// cryobench harness: the benchmark's in-process half.
//
// run.py drives the cryosocd daemon over NDJSON for the served paths and
// calls this program for everything that has to happen inside a process:
// the paper_flow pipeline, the traced replays of cold_corner and
// serve_mix, and the host probe. Every number here comes from timing
// calls into the layers' public functions (the span recorder below), from
// the structures those functions return, and from the existing obs
// registry counters. Nothing is added to the library.
//
//   cryobench_harness probe THREADS ITERATIONS
//   cryobench_harness paper_flow LIB_DIR SEED SHOTS DHRY_ITERS WINDOW TRACE SPANS
//   cryobench_harness cold_replay LIB_DIR TEMPERATURE DAEMON_LIB OUT_DIR SPANS
//   cryobench_harness serve_replay LIB_DIR REQUESTS COUNT SPANS
//
// Each mode prints one JSON object as its last stdout line. paper_flow
// also prints "ready" once its set-up is done, so the caller can time
// launch-to-ready from outside. SPANS is the file the recorded spans are
// written to when the run ends ("-" for none).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calib/extraction.hpp"
#include "calib/measurement.hpp"
#include "cells/celldef.hpp"
#include "charlib/characterizer.hpp"
#include "classify/kernels.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "core/flow.hpp"
#include "device/modelcard.hpp"
#include "exec/exec.hpp"
#include "gatesim/activity.hpp"
#include "liberty/liberty.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "qubit/readout.hpp"
#include "riscv/workloads.hpp"
#include "serve/request.hpp"
#include "sram/sram.hpp"
#include "sta/sta.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace cryo;
namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * tv.tv_usec;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

// Times every call it wraps; when enabled it also records a span (name,
// start, end, parent, request id). Spans stay in memory until write().
// Single-threaded by construction: the harness calls layers from one
// thread, and the layers' own worker threads are inside the spans.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string request;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  void enable(bool on) { on_ = on; }

  // Seconds since the program started: the time base of written spans.
  double rel(double t) const { return t - origin_; }

  // Runs f() and returns its result; `seconds` receives the call's wall
  // time whether or not spans are being recorded.
  template <class F>
  decltype(auto) span(const char* name, const std::string& request,
                      double& seconds, F&& f) {
    struct Close {
      Tracer& tracer;
      double& seconds;
      double start;
      int index;
      ~Close() {
        const double end = now_s();
        seconds = end - start;
        if (index >= 0) {
          tracer.spans_[static_cast<std::size_t>(index)].end = end;
          tracer.stack_.pop_back();
        }
      }
    };
    int index = -1;
    if (on_) {
      index = static_cast<int>(spans_.size());
      spans_.push_back(
          {name, request, 0.0, 0.0, stack_.empty() ? -1 : stack_.back()});
      stack_.push_back(index);
    }
    Close close{*this, seconds, now_s(), index};
    if (index >= 0) spans_[static_cast<std::size_t>(index)].start = close.start;
    return f();
  }

  template <class F>
  decltype(auto) span(const char* name, const std::string& request, F&& f) {
    double ignored = 0.0;
    return span(name, request, ignored, std::forward<F>(f));
  }

  // Writes the recorded spans as a JSON array (times relative to the
  // program start). An empty path or "-" writes nothing.
  void write(const std::string& path) const {
    if (path.empty() || path == "-") return;
    obs::Json out = obs::Json::array();
    for (const Span& s : spans_) {
      obs::Json j = obs::Json::object();
      j["name"] = s.name;
      j["request"] = s.request;
      j["start"] = rel(s.start);
      j["end"] = rel(s.end);
      j["parent"] = s.parent;
      out.push_back(std::move(j));
    }
    std::ofstream(path) << out.dump_line() << '\n';
  }

 private:
  bool on_ = false;
  double origin_ = now_s();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

Tracer tracer;

core::FlowConfig flow_config(const std::string& lib_dir) {
  core::FlowConfig config;
  config.calibrate_devices = false;  // the committed artifacts' cards
  config.lib_dir = lib_dir;
  return config;
}

// Traced runs only: the artifact check and Liberty parse that the flow
// performs inside CryoSocFlow::library(), called explicitly so the two
// layers get their own spans.
void probe_artifact(const std::string& lib_dir, const core::Corner& corner) {
  // CryoSocFlow's artifact name for a named corner at its supply.
  const std::string path =
      (fs::path(lib_dir) / ("cryo5_" + corner.slug() + ".lib")).string();
  const auto key = core::library_artifact_key(
      device::golden_nmos(), device::golden_pmos(), cells::CatalogOptions{},
      corner);
  const auto status = tracer.span("core.artifact_check", corner.label(),
                                  [&] { return core::check_artifact(path, key); });
  if (!status.fresh)
    throw std::runtime_error("artifact " + path + " is stale: " + status.reason);
  tracer.span("liberty.read", corner.label(),
              [&] { return liberty::read_file(path); });
}

// The StaEngine constructor and run() as two spans (CryoSocFlow::timing
// hides the split).
void probe_sta(const netlist::Netlist& soc, const charlib::Library& library,
               const sram::SramModel& sram_model, const std::string& rid) {
  const auto engine = tracer.span("sta.engine_build", rid, [&] {
    return std::make_unique<sta::StaEngine>(soc, library, sram_model);
  });
  tracer.span("sta.run", rid, [&] { return engine->run(); });
}

obs::Json span_window(double start, double end) {
  obs::Json w = obs::Json::array();
  w.push_back(tracer.rel(start));
  w.push_back(tracer.rel(end));
  return w;
}

// ---- probe ----------------------------------------------------------------

int run_probe(int threads, long long iterations) {
  const auto spin = [iterations] {
    std::uint64_t x = 88172645463325252ULL;
    for (long long i = 0; i < iterations; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    return x;
  };
  std::vector<std::uint64_t> sinks(static_cast<std::size_t>(threads));
  const double t0 = now_s();
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&, t] { sinks[static_cast<std::size_t>(t)] = spin(); });
  for (auto& th : pool) th.join();
  const double seconds = now_s() - t0;
  obs::Json out = obs::Json::object();
  out["threads"] = threads;
  out["seconds"] = seconds;
  out["sink"] = hex64(sinks.front());
  std::printf("%s\n", out.dump_line().c_str());
  return 0;
}

// ---- paper_flow -------------------------------------------------------------

int run_paper_flow(const std::string& lib_dir, std::uint64_t seed, int shots,
                   int dhry_iterations, std::size_t window, bool traced,
                   const std::string& spans_path) {
  tracer.enable(traced);
  const std::string rid = "flow";

  // Set-up: the flow over the committed libraries, both corners loaded.
  core::CryoSocFlow flow(flow_config(lib_dir));
  const core::Corner c300 = flow.corner(300.0);
  const core::Corner c10 = flow.corner(10.0);
  if (traced)
    for (const auto& c : {c300, c10}) probe_artifact(lib_dir, c);
  for (const auto& c : {c300, c10})
    tracer.span("core.library", c.label(), [&] { return flow.library(c); });
  std::printf("ready\n");
  std::fflush(stdout);

  const double wall0 = now_s();
  const double cpu0 = process_cpu_s();

  // 1. Measurements -> calibrated modelcards, both polarities.
  const std::uint64_t lm0 = counter("calib.lm_iterations");
  double rms10k = 0.0;
  std::string digest_text;
  const auto note = [&digest_text](const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%s=%.17g;", key, v);
    digest_text += buf;
  };
  for (int i = 0; i < 2; ++i) {
    const auto polarity =
        i == 0 ? device::Polarity::kNmos : device::Polarity::kPmos;
    calib::SiliconOracle oracle(polarity, flow.config().seed + i);
    const auto campaign = tracer.span("calib.campaign", rid, [&] {
      return calib::run_campaign(oracle, flow.config().vdd + 0.05);
    });
    const auto report = tracer.span("calib.extract", rid, [&] {
      return calib::extract(campaign, polarity);
    });
    rms10k = std::max(rms10k, report.rms_log_error_10k);
    note("rms300k", report.rms_log_error_300k);
    note("rms10k", report.rms_log_error_10k);
  }
  const std::uint64_t lm_iterations = counter("calib.lm_iterations") - lm0;

  // 2. Synthesized SoC, timing at both corners.
  const netlist::Netlist& soc =
      tracer.span("synth.soc", rid,
                  [&]() -> const netlist::Netlist& { return flow.soc(); });
  const auto t300 = tracer.span("sta.timing", c300.label(),
                                [&] { return flow.timing(c300); });
  const auto t10 = tracer.span("sta.timing", c10.label(),
                               [&] { return flow.timing(c10); });
  note("fmax300", t300.fmax);
  note("fmax10", t10.fmax);

  // 3. kNN and HDC kernels on the ISS over seeded 27-qubit Falcon shots.
  qubit::ReadoutModel falcon(27, seed);
  const auto shots_ms = tracer.span("qubit.sample", rid, [&] {
    return falcon.sample_all(shots);
  });
  const auto knn = tracer.span("classify.build", rid, [&] {
    return classify::KnnClassifier(falcon.calibration());
  });
  const auto hdc = tracer.span("classify.build", rid, [&] {
    return classify::HdcClassifier(falcon.calibration());
  });
  double kernel_s = 0.0, stage_s = 0.0;
  riscv::Cpu knn_cpu(flow.config().cpu);
  const auto knn_stats = tracer.span("riscv.knn_kernel", rid, stage_s, [&] {
    return classify::run_knn_kernel(knn_cpu, knn, shots_ms);
  });
  kernel_s += stage_s;
  riscv::Cpu hdc_cpu(flow.config().cpu);
  const auto hdc_stats = tracer.span("riscv.hdc_kernel", rid, stage_s, [&] {
    return classify::run_hdc_kernel(hdc_cpu, hdc, shots_ms);
  });
  kernel_s += stage_s;
  riscv::Perf perf = knn_stats.perf;
  for (auto [sum, add] :
       {std::pair{&perf.instructions, hdc_stats.perf.instructions},
        std::pair{&perf.cycles, hdc_stats.perf.cycles},
        std::pair{&perf.stall_cycles, hdc_stats.perf.stall_cycles},
        std::pair{&perf.l1d_misses, hdc_stats.perf.l1d_misses},
        std::pair{&perf.l2_misses, hdc_stats.perf.l2_misses}})
    *sum += add;
  std::uint64_t label_hash = 1469598103934665603ULL;
  for (const auto* labels : {&knn_stats.labels, &hdc_stats.labels})
    for (int label : *labels) label_hash = (label_hash ^ label) * 1099511628211ULL;
  note("instructions", static_cast<double>(perf.instructions));
  note("cycles", static_cast<double>(perf.cycles));
  note("labels", static_cast<double>(label_hash % (1ULL << 52)));

  // 4. Retire trace of the dhrystone-like program -> vector deck ->
  //    event-driven gate simulation.
  std::vector<riscv::TraceEntry> trace;
  riscv::Cpu trace_cpu(flow.config().cpu);
  trace_cpu.set_trace(&trace);
  const auto program = riscv::dhrystone_like(dhry_iterations);
  trace_cpu.load_program(program);
  tracer.span("riscv.trace", rid,
              [&] { return trace_cpu.run(program.base, 50'000'000); });
  double gatesim_s = 0.0;
  const auto deck = tracer.span("gatesim.deck", rid, [&] {
    return gatesim::make_soc_deck(soc, trace, window);
  });
  const auto lib300 = flow.library(c300);
  gatesim::ActivityExtractor extractor(soc, *lib300);
  const auto activity = tracer.span("gatesim.extract", rid, gatesim_s, [&] {
    return extractor.extract(deck, t10.fmax);
  });
  note("activity", static_cast<double>(activity.fingerprint() % (1ULL << 52)));

  // 5. Measured and uniform power at both corners.
  const auto profile = flow.activity_from_perf(knn_stats.perf, t10.fmax);
  power::PowerReport p10;
  for (const auto& c : {c300, c10}) {
    const auto measured = tracer.span("power.measured", c.label(), [&] {
      return flow.measured_power(c, activity);
    });
    const auto uniform = tracer.span("power.uniform", c.label(), [&] {
      return flow.workload_power(c, profile);
    });
    note("measured_total", measured.total());
    note("uniform_total", uniform.total());
    if (c == c10) p10 = measured;
  }

  // 6. Fig. 7 verdict: how many qubits one 10 K SoC classifies inside
  //    the decoherence time, and whether it fits the cooling budget.
  const double cpc = knn_stats.cycles_per_classification;
  const int max_qubits =
      static_cast<int>(kFalconDecoherenceTime * t10.fmax / cpc);
  const bool fits_budget = p10.total() < kCoolingBudget10K;
  note("max_qubits", max_qubits);
  note("fits_budget", fits_budget ? 1.0 : 0.0);

  const double wall1 = now_s();
  const double cpu_s = process_cpu_s() - cpu0;

  // Traced runs only, after the timed pipeline: the STA split the flow's
  // timing() hides, and a timing() call on a warm corner.
  if (traced) {
    for (const auto& c : {c300, c10}) {
      const auto state = flow.corner_state(c);
      probe_sta(soc, state->library, state->sram, c.label());
    }
    tracer.span("sta.timing", "warm", [&] { return flow.timing(c10); });
  }
  tracer.write(spans_path);

  obs::Json out = obs::Json::object();
  out["cpu_s"] = cpu_s;
  out["window"] = span_window(wall0, wall1);
  out["kernel_s"] = kernel_s;
  out["gatesim_s"] = gatesim_s;
  out["lm_iterations"] = lm_iterations;
  out["rms_log_err_10k"] = rms10k;
  out["instructions"] = perf.instructions;
  out["cycles"] = perf.cycles;
  out["stall_cycles"] = perf.stall_cycles;
  out["l1d_misses"] = perf.l1d_misses;
  out["l2_misses"] = perf.l2_misses;
  out["knn_cpc"] = knn_stats.cycles_per_classification;
  out["hdc_cpc"] = hdc_stats.cycles_per_classification;
  out["labels_match_host"] = knn_stats.matches_host && hdc_stats.matches_host;
  out["events"] = activity.events;
  out["glitches"] = activity.glitches;
  out["gatesim_cycles"] = activity.cycles;
  out["activity_fingerprint"] = hex64(activity.fingerprint());
  out["critical_delay_300k_s"] = t300.critical_delay;
  out["critical_delay_10k_s"] = t10.critical_delay;
  out["power_10k_w"] = p10.total();
  out["max_qubits"] = max_qubits;
  out["fits_budget"] = fits_budget;
  out["digest"] = hex64(core::fnv1a64(digest_text));
  std::printf("%s\n", out.dump_line().c_str());
  return 0;
}

// ---- cold_replay ------------------------------------------------------------

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

int run_cold_replay(const std::string& lib_dir, double temperature,
                    const std::string& daemon_lib, const std::string& out_dir,
                    const std::string& spans_path) {
  const device::ModelCard nmos = device::golden_nmos();
  const device::ModelCard pmos = device::golden_pmos();
  const core::Corner corner{core::FlowConfig{}.vdd, temperature, ""};
  const std::string stem = fs::path(daemon_lib).stem().string();
  const std::string daemon_bytes = slurp(daemon_lib);
  charlib::CharOptions options;
  options.temperature = temperature;
  options.vdd = corner.vdd;
  const auto key = core::library_artifact_key(nmos, pmos,
                                              cells::CatalogOptions{}, corner);
  const auto defs = cells::standard_cells(cells::CatalogOptions{});
  const unsigned threads = exec::thread_count(options.threads);

  // Pass 0 is traced and characterizes the catalog. Pass 1 repeats the
  // replay untraced on the same library but without characterize_all: that
  // one long call carries a single span, so the tracing overhead is the
  // difference of the two walls with it left out.
  obs::Json out = obs::Json::object();
  obs::Json passes = obs::Json::array();
  obs::Json traced = obs::Json::object();
  bool identical = true;
  std::optional<charlib::Library> lib;
  obs::registry().reset();
  for (int pass = 0; pass < 2; ++pass) {
    const bool on = pass == 0;
    tracer.enable(on);
    const std::string rid = "cold";
    const fs::path dir = fs::path(out_dir) / ("pass" + std::to_string(pass));
    fs::create_directories(dir);
    const std::string path = (dir / (stem + ".lib")).string();

    const double t0 = now_s();
    double char_s = 0.0;
    const auto characterizer = tracer.span("device.ids_cache", rid, [&] {
      return std::make_unique<charlib::Characterizer>(nmos, pmos, options);
    });
    double char_cpu_s = 0.0;
    if (on) {
      const double cpu0 = process_cpu_s();
      lib = tracer.span("charlib.characterize", rid, char_s, [&] {
        return characterizer->characterize_all(defs, stem);
      });
      char_cpu_s = process_cpu_s() - cpu0;
    }
    tracer.span("liberty.write", rid, [&] {
      liberty::Manifest manifest = key.manifest();
      manifest.quarantined = lib->quarantined_arcs;
      liberty::write_file(*lib, path);
      liberty::write_manifest(path, manifest);
    });
    const bool same = slurp(path) == daemon_bytes;
    identical = identical && same;
    const auto status = tracer.span("core.artifact_check", rid, [&] {
      return core::check_artifact(path, key);
    });
    const charlib::Library reloaded = tracer.span(
        "liberty.read", rid, [&] { return liberty::read_file(path); });
    core::CryoSocFlow flow(flow_config(lib_dir));
    tracer.span("core.library", rid,
                [&] { return flow.library(flow.corner(300.0)); });
    const netlist::Netlist& soc =
        tracer.span("synth.soc", rid,
                    [&]() -> const netlist::Netlist& { return flow.soc(); });
    const sram::SramModel sram_model = tracer.span("sram.model", rid, [&] {
      return sram::SramModel(nmos, pmos, temperature, corner.vdd);
    });
    probe_sta(soc, reloaded, sram_model, rid);
    const double t1 = now_s();

    obs::Json p = obs::Json::object();
    p["wall_s"] = t1 - t0 - char_s;
    p["identical_to_daemon"] = same;
    p["fresh"] = status.fresh;
    passes.push_back(std::move(p));
    if (on) {
      out["window"] = span_window(t0, t1);
      traced["characterize_cpu_s"] = char_cpu_s;
      traced["threads"] = threads;
      for (const char* name :
           {"charlib.tasks", "charlib.grid_points", "charlib.arc_retries",
            "charlib.settle_retries", "charlib.failed_arcs",
            "spice.nr_iterations", "spice.transient_steps",
            "spice.transient_rejected_steps", "spice.gmin_fallbacks",
            "spice.source_step_fallbacks", "spice.transient_retries",
            "spice.transient_be_fallbacks"})
        traced[name] = counter(name);
      traced["exec.queue_wait_s"] =
          obs::registry().histogram("exec.queue_wait_seconds").sum();
    }
  }
  tracer.write(spans_path);
  out["passes"] = std::move(passes);
  out["traced"] = std::move(traced);
  out["identical_to_daemon"] = identical;
  std::printf("%s\n", out.dump_line().c_str());
  return 0;
}

// ---- serve_replay -----------------------------------------------------------

int run_serve_replay(const std::string& lib_dir, const std::string& requests,
                     std::size_t count, const std::string& spans_path) {
  core::CryoSocFlow flow(flow_config(lib_dir));
  std::vector<std::string> lines;
  {
    std::ifstream in(requests);
    for (std::string line; lines.size() < count && std::getline(in, line);)
      lines.push_back(line);
  }

  // Set-up: both committed corners resident with their STA engines built,
  // as after the daemon's warm-up session.
  tracer.enable(true);
  const core::Corner c300 = flow.corner(300.0);
  tracer.span("core.library", c300.label(),
              [&] { return flow.library(c300); });
  const netlist::Netlist& soc =
      tracer.span("synth.soc", "setup",
                  [&]() -> const netlist::Netlist& { return flow.soc(); });
  for (const auto& c : {c300, flow.corner(10.0)}) {
    probe_artifact(lib_dir, c);
    const auto state = tracer.span("core.library", c.label(),
                                   [&] { return flow.corner_state(c); });
    probe_sta(soc, state->library, state->sram, c.label());
    tracer.span("sta.timing", c.label(), [&] { return flow.timing(c); });
  }
  tracer.enable(false);

  // One pass answers every request the way serve::execute dispatches it,
  // with a span around each layer call. Passes 0 and 2 untraced, pass 1
  // traced.
  std::vector<double> walls(3, 0.0);
  std::vector<std::string> digests;
  obs::Json out = obs::Json::object();
  obs::Json traced = obs::Json::object();
  std::size_t rendered_bytes = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const bool on = pass == 1;
    tracer.enable(on);
    obs::registry().reset();
    std::vector<std::string> pass_digests;
    const double t0 = now_s();
    for (const std::string& line : lines) {
      serve::FlowRequest request = tracer.span(
          "serve.parse", "", [&] { return serve::parse_request(line); });
      const std::string& rid = request.id;
      serve::FlowResponse response;
      response.kind = request.kind;
      response.corner = request.corner;
      try {
        switch (request.kind) {
          case serve::QueryKind::kTiming:
            response.timing = tracer.span("sta.timing", rid, [&] {
              return flow.timing(request.corner);
            });
            break;
          case serve::QueryKind::kPower: {
            power::ActivityProfile profile = request.profile;
            if (profile.clock_frequency <= 0.0)
              profile.clock_frequency =
                  tracer.span("sta.timing", rid, [&] {
                    return flow.timing(request.corner);
                  }).fmax;
            response.power = tracer.span("power.analyze", rid, [&] {
              return flow.workload_power(request.corner, profile);
            });
            break;
          }
          case serve::QueryKind::kMeasuredPower:
            response.power = tracer.span("power.measured", rid, [&] {
              return flow.measured_power(request.corner, request.activity);
            });
            break;
          case serve::QueryKind::kLeakage: {
            const auto lib = tracer.span("core.library", rid, [&] {
              return flow.library(request.corner);
            });
            double w = 0.0;
            for (const auto& cell : lib->cells) w += cell.leakage_avg;
            response.library_leakage_w = w;
            break;
          }
          case serve::QueryKind::kSram: {
            const sram::SramModel model = tracer.span("sram.model", rid, [&] {
              return flow.sram_model(request.corner);
            });
            serve::SramResult sram;
            sram.macro = request.macro;
            sram.timing = model.timing(request.macro);
            sram.power = model.power(request.macro);
            sram.leakage_per_bit_w = model.leakage_per_bit();
            sram.reference_gate_delay_s = model.reference_gate_delay();
            response.sram = sram;
            break;
          }
          case serve::QueryKind::kSweep:
            response.sweep = tracer.span("sweep.run", rid, [&] {
              return sweep::run_sweep(flow, request.sweep);
            });
            break;
        }
        response.ok = true;
      } catch (const core::FlowError& e) {
        response.error_stage = e.stage();
        response.error = e.what();
      }
      response.meta.id = request.id;
      rendered_bytes += tracer.span("serve.render", rid, [&] {
        return serve::to_json(response).dump_line();
      }).size();
      pass_digests.push_back(
          hex64(core::fnv1a64(serve::response_payload_json(response).dump_line())));
    }
    const double t1 = now_s();
    walls[static_cast<std::size_t>(pass)] = t1 - t0;
    if (on) out["window"] = span_window(t0, t1);
    if (pass == 0) digests = pass_digests;
    if (pass_digests != digests) {
      std::fprintf(stderr, "serve_replay: pass %d payloads differ from pass 0\n",
                   pass);
      return 4;
    }
    if (on) {
      traced["sta.runs"] = counter("sta.runs");
      traced["corner_cache_hit"] = counter("sweep.corner_cache.hit");
      traced["corner_cache_miss"] = counter("sweep.corner_cache.miss");
    }
  }
  tracer.write(spans_path);

  traced["requests"] = lines.size();
  traced["rendered_bytes"] = rendered_bytes;
  out["untraced_wall_s"] = 0.5 * (walls[0] + walls[2]);
  out["traced_wall_s"] = walls[1];
  out["traced"] = std::move(traced);
  obs::Json d = obs::Json::array();
  for (const auto& digest : digests) d.push_back(digest);
  out["digests"] = std::move(d);
  std::printf("%s\n", out.dump_line().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: cryobench_harness probe THREADS ITERATIONS\n"
               "       cryobench_harness paper_flow LIB_DIR SEED SHOTS "
               "DHRY_ITERS WINDOW TRACE SPANS\n"
               "       cryobench_harness cold_replay LIB_DIR TEMPERATURE "
               "DAEMON_LIB OUT_DIR SPANS\n"
               "       cryobench_harness serve_replay LIB_DIR REQUESTS COUNT "
               "SPANS\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  const std::string& mode = args[0];
  try {
    if (mode == "probe" && args.size() == 3 && std::stoi(args[1]) >= 1)
      return run_probe(std::stoi(args[1]), std::stoll(args[2]));
    if (mode == "paper_flow" && args.size() == 8)
      return run_paper_flow(args[1], std::stoull(args[2]), std::stoi(args[3]),
                            std::stoi(args[4]),
                            static_cast<std::size_t>(std::stoull(args[5])),
                            args[6] == "1", args[7]);
    if (mode == "cold_replay" && args.size() == 6)
      return run_cold_replay(args[1], std::stod(args[2]), args[3], args[4],
                             args[5]);
    if (mode == "serve_replay" && args.size() == 5)
      return run_serve_replay(args[1], args[2],
                              static_cast<std::size_t>(std::stoull(args[3])),
                              args[4]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cryobench_harness %s: %s\n", mode.c_str(), e.what());
    return 1;
  }
  return usage();
}
