// Multi-corner sweep: the paper's 300 K / 10 K comparison generalized to a
// V/T signoff grid via cryo::sweep. The default 4-corner run reproduces
// Table 1 (timing at 300 K vs 10 K) and Fig. 6 (power + cooling budget) as
// the two nominal-supply end points of a temperature ladder, and measures
// the parallel sweep engine against sequential per-corner analysis:
//
//   phase A: warm the Liberty artifact store (characterize any missing
//            corner once; committed artifacts cover 300 K / 10 K),
//   phase B: sequential per-corner timing on a fresh flow (baseline; the
//            slowest corner bounds the ideal parallel wall-clock),
//   phase C: parallel run_sweep on a fresh flow (cold corner cache),
//   phase D: warm re-run on the same flow (zero characterizations, all
//            corner-cache hits).
//
// Grid size: CRYOSOC_SWEEP_CORNERS (2..20, default 4) walks a 5 vdd x 4
// temperature grid, nominal-supply corners first — 2 gives exactly the
// paper's degenerate two-corner case. CRYOSOC_BENCH_QUICK=1 switches to a
// tiny catalog + leakage-only analyses in a scratch lib dir for CI smoke
// runs. Every check is a BenchReport gate; the exit status is nonzero if
// any gate fails.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cells/celldef.hpp"
#include "charlib/characterizer.hpp"
#include "classify/kernels.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "device/modelcard.hpp"
#include "liberty/liberty.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "sweep/sweep.hpp"

namespace {

using namespace cryo;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

std::size_t grid_size() {
  if (const char* v = std::getenv("CRYOSOC_SWEEP_CORNERS")) {
    const long n = std::strtol(v, nullptr, 10);
    return static_cast<std::size_t>(std::clamp(n, 2l, 20l));
  }
  return 4;
}

// Nominal-supply corners first (300 K, 10 K leading, so the first two are
// the paper's degenerate case), then the reduced/raised supplies.
std::vector<core::Corner> make_grid(const core::CryoSocFlow& flow,
                                    std::size_t n) {
  const double temps[] = {300.0, 10.0, 77.0, 150.0};
  const double vdds[] = {flow.config().vdd, 0.65, 0.75, 0.6, 0.8};
  std::vector<core::Corner> grid;
  for (double v : vdds) {
    for (double t : temps) {
      if (grid.size() >= n) return grid;
      if (v == flow.config().vdd)
        grid.push_back(flow.corner(t));
      else
        grid.push_back(core::Corner{v, t, ""});
    }
  }
  return grid;
}

core::CryoSocFlow make_flow(bool quick, std::size_t corners) {
  core::FlowConfig config;
  config.calibrate_devices = false;
  config.corner_cache_capacity = std::max<std::size_t>(8, corners);
  if (quick) {
    // Tiny catalog in a scratch store: cheap per-corner characterization,
    // no contention with the committed full-catalog artifacts.
    config.catalog.only_bases = {"INV", "NAND2"};
    config.catalog.drives = {1};
    config.catalog.extra_drives_common = {};
    config.catalog.include_slvt = false;
    config.lib_dir = obs::BenchReport::output_dir() + "/sweep-lib-quick";
  }
  return core::CryoSocFlow(config);
}

}  // namespace

int main() {
  bench::header("sweep_corners: parallel multi-corner signoff sweep",
                "paper Tables 1-3 / Fig. 6 generalized to a V/T grid");
  auto report = bench::make_report("sweep_corners");

  const bool quick = bench::quick();
  const std::size_t n_corners = grid_size();
  // The engine is measured at >= 4 workers even on smaller machines (the
  // scheduler time-slices; BenchReport records hardware_concurrency).
  const int threads = static_cast<int>(std::max(4u, exec::thread_count()));
  report.set_threads(static_cast<unsigned>(threads));

  serve::SweepQuery request;
  if (quick) {
    // CI smoke: leakage-only keeps the SoC (full catalog) out of the run.
    request.run_timing = false;
    request.run_leakage = true;
  } else {
    request.run_timing = true;
    request.run_power = true;
    request.run_leakage = true;
    request.run_feasibility = true;
    request.profile.clock_frequency = 0.0;  // per-corner fmax
  }
  request.threads = threads;

  if (!quick) {
    // Representative activity: the paper's kNN classification workload on
    // the ISS (27 qubits, as in Fig. 6), also giving the decoherence
    // deadline inputs.
    qubit::ReadoutModel falcon(27, 11);
    classify::KnnClassifier knn(falcon.calibration());
    const auto ms = falcon.sample_all(50);
    core::CryoSocFlow probe = make_flow(quick, n_corners);
    riscv::Cpu cpu(probe.config().cpu);
    const auto stats = classify::run_knn_kernel(cpu, knn, ms);
    const auto profile = probe.activity_from_perf(stats.perf, 1e9);
    request.profile = profile;
    request.profile.clock_frequency = 0.0;
    request.cycles_per_classification = stats.cycles_per_classification;
    request.qubits = 27;
    std::printf("\nworkload: kNN, %.1f cycles/classification, IPC %.2f\n",
                stats.cycles_per_classification, stats.perf.ipc());
  }

  // ---- phase A0: uncached-corner characterization probe -----------------
  // The wall this bench exists to watch: a corner nobody has cached. A
  // fixed probe catalog is characterized from scratch at 1 thread and at
  // 4 through the arc-parallel batched pipeline. Gates: the rendered
  // Liberty text is byte-identical (fingerprint), the speedup is >= 2x
  // when the host really has 4 hardware threads, and the charlib.{tasks,
  // ctx_pool_reuse, engine_reuse} counter deltas recorded here all move.
  {
    cells::CatalogOptions copt;
    copt.only_bases = {"INV", "NAND2", "NOR2", "AOI21", "DFF"};
    copt.drives = {1, 2};
    copt.extra_drives_common = {};
    copt.include_slvt = false;
    const auto defs = cells::standard_cells(copt);
    const auto run = [&](int nthreads, double* out_seconds) {
      charlib::CharOptions o;
      o.temperature = 200.0;  // not a committed corner: always uncached
      o.threads = nthreads;
      charlib::Characterizer ch(device::golden_nmos(),
                                device::golden_pmos(), o);
      const auto t0 = std::chrono::steady_clock::now();
      const auto lib = ch.characterize_all(defs, "probe_200k");
      *out_seconds = seconds_since(t0);
      return core::fnv1a64(liberty::write(lib));
    };
    auto& tasks = obs::registry().counter("charlib.tasks");
    auto& ctx_reuse = obs::registry().counter("charlib.ctx_pool_reuse");
    auto& eng_reuse = obs::registry().counter("charlib.engine_reuse");
    const auto tasks0 = tasks.value();
    const auto ctx0 = ctx_reuse.value();
    const auto eng0 = eng_reuse.value();
    double serial_seconds = 0.0, parallel_seconds4 = 0.0;
    const auto fp_serial = run(1, &serial_seconds);
    const auto fp_parallel = run(4, &parallel_seconds4);
    const double speedup =
        parallel_seconds4 > 0.0 ? serial_seconds / parallel_seconds4 : 0.0;
    std::printf(
        "\nphase A0 (uncached-corner probe, %zu cells): %.2f s serial, "
        "%.2f s at 4 threads (%.2fx), fingerprints %s\n",
        defs.size(), serial_seconds, parallel_seconds4, speedup,
        fp_serial == fp_parallel ? "identical" : "DIFFERENT");
    report.results()["uncached_probe_cells"] = defs.size();
    report.results()["uncached_serial_seconds"] = serial_seconds;
    report.results()["uncached_parallel_seconds"] = parallel_seconds4;
    report.results()["uncached_speedup_4t"] = speedup;
    report.results()["uncached_fingerprints_identical"] =
        fp_serial == fp_parallel;
    // Counter deltas over both probe runs (phases C/D reset the registry,
    // so the final snapshot cannot carry these).
    report.results()["charlib_tasks_delta"] = tasks.value() - tasks0;
    report.results()["charlib_ctx_pool_reuse_delta"] =
        ctx_reuse.value() - ctx0;
    report.results()["charlib_engine_reuse_delta"] = eng_reuse.value() - eng0;
    report.gate("uncached_fingerprints_identical", fp_serial == fp_parallel,
                "==", 1);
    report.gate("uncached_probe_cells", defs.size(), ">", 0);
    report.gate("charlib_tasks_delta", tasks.value() - tasks0, ">", 0);
    report.gate("charlib_ctx_pool_reuse_delta", ctx_reuse.value() - ctx0, ">",
                0);
    report.gate("charlib_engine_reuse_delta", eng_reuse.value() - eng0, ">",
                0);
    // Time-sliced hosts with fewer hardware threads cannot show it.
    if (std::thread::hardware_concurrency() >= 4)
      report.gate("uncached_speedup_4t", speedup, ">=", 2.0);
  }

  // ---- phase A: warm the artifact store ---------------------------------
  {
    auto flow = make_flow(quick, n_corners);
    request.corners = make_grid(flow, n_corners);
    std::printf("\ngrid: %zu corners, %d sweep threads\n",
                request.corners.size(), threads);
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& c : request.corners) (void)flow.library(c);
    const double prep = seconds_since(t0);
    std::printf("phase A (artifact store warm-up): %.2f s\n", prep);
    report.results()["store_warmup_seconds"] = prep;
  }

  // ---- phase B: sequential baseline on a fresh flow ---------------------
  double slowest = 0.0, seq_total = 0.0;
  {
    auto flow = make_flow(quick, n_corners);
    request.corners = make_grid(flow, n_corners);
    // The synthesized SoC is shared one-time setup, not per-corner work;
    // build it outside the timed region (phase C gets the same treatment).
    if (!quick) (void)flow.soc();
    auto& per_corner = report.results()["sequential_corner_seconds"];
    for (const auto& c : request.corners) {
      const auto t0 = std::chrono::steady_clock::now();
      if (quick) {
        (void)flow.library(c);
      } else {
        (void)flow.timing(c);
      }
      const double dt = seconds_since(t0);
      slowest = std::max(slowest, dt);
      seq_total += dt;
      per_corner[c.label()] = dt;
    }
    std::printf(
        "phase B (sequential baseline): %.2f s total, slowest corner "
        "%.2f s\n",
        seq_total, slowest);
  }

  // ---- phase C: parallel sweep, cold corner cache -----------------------
  auto flow = make_flow(quick, n_corners);
  request.corners = make_grid(flow, n_corners);
  if (!quick) (void)flow.soc();
  obs::registry().reset();
  const auto tc = std::chrono::steady_clock::now();
  const auto swept = sweep::run_sweep(flow, request);
  const double parallel_seconds = seconds_since(tc);
  const auto cold_misses =
      obs::registry().counter("sweep.corner_cache.miss").value();

  // ---- phase D: warm re-run on the same flow ----------------------------
  obs::registry().reset();
  const auto tw = std::chrono::steady_clock::now();
  const auto warm = sweep::run_sweep(flow, request);
  const double warm_seconds = seconds_since(tw);
  const auto warm_hits =
      obs::registry().counter("sweep.corner_cache.hit").value();
  const auto warm_misses =
      obs::registry().counter("sweep.corner_cache.miss").value();
  const auto warm_charlib_runs =
      obs::registry().counter("charlib.runs").value();

  // ---- report -----------------------------------------------------------
  std::printf("\n%-12s %-11s %6s | %10s | %12s | %10s\n", "corner", "vdd",
              "T [K]", "fmax [MHz]", "total [mW]", "status");
  for (const auto& r : swept.corners) {
    std::printf("%-12s %-11.2f %6.0f | %10s | %12s | %10s\n",
                r.corner.label().c_str(), r.corner.vdd,
                r.corner.temperature,
                r.timing ? std::to_string(static_cast<int>(
                               r.timing->fmax / 1e6)).c_str()
                         : "-",
                r.power ? std::to_string(r.power->total() * 1e3).c_str()
                        : "-",
                r.ok ? "ok" : r.error_stage.c_str());
  }
  if (!quick && swept.corners.size() >= 2 && swept.corners[0].timing &&
      swept.corners[1].timing) {
    // The paper's Table 1, as the degenerate 2-corner slice of the grid.
    const auto& t300 = *swept.corners[0].timing;
    const auto& t10 = *swept.corners[1].timing;
    std::printf(
        "\nTable 1 slice: 300 K %.3f ns / %.0f MHz, 10 K %.3f ns / "
        "%.0f MHz (%+.1f %% slowdown; paper: +4.6 %%)\n",
        t300.critical_delay * 1e9, t300.fmax / 1e6,
        t10.critical_delay * 1e9, t10.fmax / 1e6,
        100.0 * (t10.critical_delay / t300.critical_delay - 1.0));
  }
  if (swept.worst_corner)
    std::printf("worst corner: %s\n",
                swept.corners[*swept.worst_corner].corner.label().c_str());
  if (swept.cooling_crossover_k)
    std::printf("cooling budget crossover: %.1f K\n",
                *swept.cooling_crossover_k);

  const double ratio = slowest > 0.0 ? parallel_seconds / slowest : 0.0;
  std::printf(
      "\nparallel sweep: %.2f s cold (%.2fx the slowest corner, ideal "
      "1.0), %.3f s warm\n",
      parallel_seconds, ratio, warm_seconds);
  std::printf(
      "warm re-run: %llu corner-cache hits, %llu misses, %llu "
      "characterizations\n",
      static_cast<unsigned long long>(warm_hits),
      static_cast<unsigned long long>(warm_misses),
      static_cast<unsigned long long>(warm_charlib_runs));

  report.results()["corners"] = request.corners.size();
  report.results()["failed"] = swept.failed;
  report.results()["slowest_corner_seconds"] = slowest;
  report.results()["sequential_total_seconds"] = seq_total;
  report.results()["parallel_seconds"] = parallel_seconds;
  report.results()["parallel_over_slowest"] = ratio;
  report.results()["cold_cache_misses"] = cold_misses;
  report.results()["warm_seconds"] = warm_seconds;
  report.results()["warm_cache_hits"] = warm_hits;
  report.results()["warm_cache_misses"] = warm_misses;
  report.results()["warm_charlib_runs"] = warm_charlib_runs;
  (void)warm;

  // The embedded cryosoc-sweep-v1 document, read back the way a consumer
  // reads it: the right schema and one row per requested corner.
  obs::Json sweep_doc = sweep::to_json(swept);
  const serve::JsonValue parsed = serve::json_parse(sweep_doc.dump());
  report.gate("sweep.schema_is_v1",
              parsed.at("schema", "sweep").as_string("schema") ==
                  "cryosoc-sweep-v1",
              "==", 1);
  report.gate("sweep.corners", parsed.at("corners", "sweep").items.size(),
              "==", n_corners);
  report.results()["sweep"] = std::move(sweep_doc);
  // failed == 0 means every corner row is ok.
  report.gate("failed", swept.failed, "==", 0);
  report.gate("cold_cache_misses", cold_misses, "<=", n_corners);
  report.gate("warm_charlib_runs", warm_charlib_runs, "==", 0);
  report.gate("warm_cache_hits", warm_hits, ">=", n_corners);

  // ---- phase E: dense fmax-vs-T curve on interpolated libraries ---------
  // The continuous-temperature mode (ROADMAP item 5): 20 temperatures
  // across the 10..300 K span, served by piecewise-linear interpolation
  // between 4 characterized anchors. The whole curve must cost ZERO
  // characterizations beyond the anchors (gated).
  {
    const std::vector<double> anchor_temps = {10.0, 77.0, 150.0, 300.0};
    core::FlowConfig iconfig;
    iconfig.calibrate_devices = false;
    iconfig.interp_anchor_temps = anchor_temps;
    iconfig.corner_cache_capacity = 32;
    if (quick) {
      iconfig.catalog.only_bases = {"INV", "NAND2"};
      iconfig.catalog.drives = {1};
      iconfig.catalog.extra_drives_common = {};
      iconfig.catalog.include_slvt = false;
      iconfig.lib_dir = obs::BenchReport::output_dir() + "/sweep-lib-interp";
    }
    core::CryoSocFlow iflow(iconfig);

    auto& runs = obs::registry().counter("charlib.runs");
    const auto runs_start = runs.value();
    for (double t : anchor_temps) (void)iflow.library(iflow.corner(t));
    const auto anchor_runs = runs.value() - runs_start;
    if (!quick) (void)iflow.soc();

    const std::size_t points = 20;
    serve::SweepQuery dense;
    for (std::size_t i = 0; i < points; ++i)
      dense.corners.push_back(iflow.corner(
          10.0 + (300.0 - 10.0) * double(i) / double(points - 1)));
    dense.run_timing = !quick;
    dense.run_leakage = quick;
    dense.threads = threads;

    const auto runs_before = runs.value();
    const auto te = std::chrono::steady_clock::now();
    const auto curve = sweep::run_sweep(iflow, dense);
    const double interp_seconds = seconds_since(te);
    const auto extra_runs = runs.value() - runs_before;

    std::printf(
        "\nphase E (interpolated %zu-point T-curve, %zu anchors): %.2f s, "
        "%llu anchor characterizations, %llu beyond the anchors\n",
        points, anchor_temps.size(), interp_seconds,
        static_cast<unsigned long long>(anchor_runs),
        static_cast<unsigned long long>(extra_runs));
    if (!quick) {
      for (const auto& [t, f] : curve.fmax_vs_temperature)
        std::printf("  %6.1f K -> %7.1f MHz\n", t, f / 1e6);
    }

    report.results()["interp_points"] = points;
    report.results()["interp_anchor_count"] = anchor_temps.size();
    report.results()["interp_anchor_charlib_runs"] = anchor_runs;
    report.results()["interp_extra_charlib_runs"] = extra_runs;
    report.results()["interp_seconds"] = interp_seconds;
    report.results()["interp_failed"] = curve.failed;

    report.gate("interp_points", points, ">=", 20);
    report.gate("interp_failed", curve.failed, "==", 0);
    report.gate("interp_anchor_charlib_runs", anchor_runs, "<=",
                anchor_temps.size());
    report.gate("interp_extra_charlib_runs", extra_runs, "==", 0);
  }
  return report.exit_code();
}
