#include "core/flow.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "core/artifacts.hpp"
#include "exec/exec.hpp"
#include "liberty/interp.hpp"
#include "liberty/liberty.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "synth/synth.hpp"

namespace cryo::core {
namespace fs = std::filesystem;

std::string default_lib_dir() {
  if (const char* env = std::getenv("CRYOSOC_LIB_DIR")) return env;
  // Accept a candidate only if it already holds the artifacts (otherwise
  // an unrelated directory like the system /lib could match).
  for (const char* candidate : {"lib", "../lib", "../../lib", "../../../lib"}) {
    std::error_code ec;
    if (fs::exists(fs::path(candidate) / "cryo5_300k.lib", ec))
      return candidate;
  }
  return "lib";
}

namespace {

// Reject invalid configs up front with a structured error instead of
// clamping silently or failing deep inside a characterization.
FlowConfig validate_config(FlowConfig config) {
  if (config.corner_cache_capacity < 1)
    throw FlowError("config", "",
                    "FlowConfig.corner_cache_capacity must be >= 1 (got " +
                        std::to_string(config.corner_cache_capacity) + ")");
  if (config.characterize_threads < 0)
    throw FlowError("config", "",
                    "FlowConfig.characterize_threads must be >= 0 (got " +
                        std::to_string(config.characterize_threads) + ")");
  if (!config.interp_anchor_temps.empty()) {
    const auto& temps = config.interp_anchor_temps;
    for (double t : temps)
      if (!std::isfinite(t) || t <= 0.0)
        throw FlowError("config", "",
                        "FlowConfig.interp_anchor_temps must be finite and "
                        "> 0 K (got " +
                            corner_detail::shortest(t) + ")");
    if (temps.size() < 2)
      throw FlowError("config", "",
                      "FlowConfig.interp_anchor_temps needs >= 2 anchors "
                      "(got " +
                          std::to_string(temps.size()) + ")");
    for (std::size_t i = 1; i < temps.size(); ++i)
      if (temps[i] <= temps[i - 1])
        throw FlowError(
            "config", "",
            "FlowConfig.interp_anchor_temps must be strictly ascending "
            "(anchor " +
                std::to_string(i) + " at " +
                corner_detail::shortest(temps[i]) + " K follows " +
                corner_detail::shortest(temps[i - 1]) + " K)");
  }
  return config;
}

}  // namespace

CryoSocFlow::CryoSocFlow(FlowConfig config)
    : config_(validate_config(std::move(config))),
      corners_(config_.corner_cache_capacity, "sweep.corner_cache"),
      srams_(config_.corner_cache_capacity, "flow.sram_cache") {
  if (config_.lib_dir.empty()) config_.lib_dir = default_lib_dir();
}

CryoSocFlow::~CryoSocFlow() {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  for (auto& job : jobs_) job.wait();
}

void CryoSocFlow::ensure_devices() {
  std::call_once(devices_once_, [&] {
    if (config_.nmos_override || config_.pmos_override) {
      if (!config_.nmos_override || !config_.pmos_override)
        throw std::invalid_argument(
            "FlowConfig: override both modelcards or neither");
      nmos_ = *config_.nmos_override;
      pmos_ = *config_.pmos_override;
      return;
    }
    if (!config_.calibrate_devices) {
      nmos_ = device::golden_nmos();
      pmos_ = device::golden_pmos();
      return;
    }
    OBS_SPAN("flow.calibrate");
    // The two polarities are independent measurement + extraction
    // campaigns (each oracle owns its RNG stream, seeded per polarity);
    // run them concurrently.
    exec::parallel_for(2, [&](std::size_t i) {
      const auto polarity =
          i == 0 ? device::Polarity::kNmos : device::Polarity::kPmos;
      calib::SiliconOracle oracle(polarity, config_.seed + i);
      auto campaign = calib::run_campaign(oracle, config_.vdd + 0.05);
      auto& report = i == 0 ? report_n_ : report_p_;
      report = calib::extract(campaign, polarity);
      (i == 0 ? nmos_ : pmos_) = report->card;
    });
  });
}

const device::ModelCard& CryoSocFlow::nmos() {
  ensure_devices();
  return *nmos_;
}

const device::ModelCard& CryoSocFlow::pmos() {
  ensure_devices();
  return *pmos_;
}

const calib::ExtractionReport& CryoSocFlow::extraction_report(
    device::Polarity p) {
  ensure_devices();
  const auto& report = p == device::Polarity::kNmos ? report_n_ : report_p_;
  if (!report)
    throw std::logic_error("extraction_report: calibration disabled");
  return *report;
}

Corner CryoSocFlow::corner(double temperature) const {
  Corner c{config_.vdd, temperature, ""};
  c.name = corner_detail::sanitize(corner_detail::shortest(temperature)) + "k";
  return c;
}

std::string CryoSocFlow::corner_slug(const Corner& corner) const {
  if (!corner.name.empty()) return corner.slug();
  // Unnamed corner at the nominal supply: use the temperature-only name
  // ("300k"), so Corner{0.7, 300} finds the same committed artifact as
  // the canonical corner(300).
  if (corner.vdd == config_.vdd)
    return corner_detail::sanitize(
               corner_detail::shortest(corner.temperature)) +
           "k";
  return corner.slug();  // "v0p65_t300"
}

namespace {

// Writes a freshly characterized library and its manifest. The manifest
// records the quarantine list, which check_artifact treats as permanently
// stale — a degraded library is usable in this process but never trusted
// from disk. A failed write is not fatal (read-only checkout).
void write_artifact(const charlib::Library& lib, const fs::path& path,
                    const std::string& lib_dir, const ArtifactKey& key) {
  OBS_SPAN("flow.library.write", lib.name);
  std::error_code ec;
  fs::create_directories(lib_dir, ec);
  liberty::Manifest manifest = key.manifest();
  manifest.quarantined = lib.quarantined_arcs;
  if (!manifest.quarantined.empty())
    std::fprintf(stderr,
                 "[cryo::core] library %s characterized with %zu "
                 "quarantined arc(s) (first: %s); artifact will not be "
                 "reused\n",
                 lib.name.c_str(), manifest.quarantined.size(),
                 manifest.quarantined.front().c_str());
  try {
    liberty::write_file(lib, path.string());
    liberty::write_manifest(path.string(), manifest);
  } catch (const std::exception&) {
  }
}

}  // namespace

std::vector<std::string> CryoSocFlow::priority_cells(const Corner& corner) {
  // Never from inside a parallel region: exec runs one top-level batch at
  // a time, so the background job's batches would queue behind the
  // region's while one of its tasks waited for them. Never for the
  // corner soc() itself needs, nor for anchors, which soc() may need
  // through an interpolated 300 K corner: those builds must not wait for
  // a synthesis.
  if (exec::inside_parallel_region() || corner == this->corner(300.0) ||
      !config_.interp_anchor_temps.empty())
    return {};
  std::unique_lock<std::mutex> lock(soc_mutex_);
  soc_done_.wait(lock, [&] { return !soc_building_; });
  return soc_cells_;
}

CryoSocFlow::Corners::Built CryoSocFlow::build_corner_state(
    const Corner& corner, const Corners::Ticket& ticket) {
  if (!config_.interp_anchor_temps.empty()) {
    // Only exact anchor temperatures take the characterize/artifact path;
    // everything else is synthesized, so a dense T-grid costs zero extra
    // characterizations.
    bool exact_anchor = false;
    for (double t : config_.interp_anchor_temps)
      exact_anchor = exact_anchor || corner.temperature == t;
    if (!exact_anchor) return {build_interpolated_state(corner)};
  }
  const std::string name = "cryo5_" + corner_slug(corner);
  const fs::path path = fs::path(config_.lib_dir) / (name + ".lib");

  OBS_SPAN("flow.corner", corner.label());
  static obs::Counter& hits = obs::registry().counter("artifacts.hits");
  static obs::Counter& misses = obs::registry().counter("artifacts.misses");
  static obs::Counter& regenerated =
      obs::registry().counter("artifacts.regenerated");
  const ArtifactKey key = library_artifact_key(
      *nmos_, *pmos_, config_.catalog, corner, kCharacterizerVersion,
      config_.cells_override ? &*config_.cells_override : nullptr);
  const ArtifactStatus status = check_artifact(path.string(), key);
  // Copies `corner` and the model: the background job below outlives this
  // call, and a cold corner's partial and full states share the model.
  const auto state = [corner, sram = sram_for(corner)](charlib::Library lib) {
    return std::make_shared<CornerState>(corner, std::move(lib), *sram);
  };
  if (status.fresh) {
    hits.add(1);
    OBS_SPAN("flow.library.load", name);
    // A fresh fingerprint with unreadable content is a corrupt artifact:
    // surface it as a per-corner failure (the manifest promised content
    // it cannot deliver) instead of silently re-characterizing.
    charlib::Library lib;
    try {
      lib = liberty::read_file(path.string());
    } catch (const FlowError& e) {
      throw FlowError::at_corner(e, corner, "artifact-load");
    } catch (const std::exception& e) {
      throw FlowError("artifact-load", path.string(), e.what(), corner);
    }
    return {state(std::move(lib))};
  }
  if (status.reason.find("missing") != std::string::npos) {
    misses.add(1);
  } else {
    regenerated.add(1);
    std::fprintf(stderr,
                 "[cryo::core] artifact %s stale: %s; re-characterizing\n",
                 path.string().c_str(), status.reason.c_str());
  }

  OBS_SPAN("flow.library.characterize", name);
  charlib::CharOptions options;
  options.temperature = corner.temperature;
  options.vdd = corner.vdd;
  options.threads = config_.characterize_threads;
  charlib::Characterizer characterizer(*nmos_, *pmos_, options);
  std::vector<cells::CellDef> defs =
      config_.cells_override ? *config_.cells_override
                             : cells::standard_cells(config_.catalog);
  const auto failure = [path, corner](std::exception_ptr error) {
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      return FlowError("characterize", path.string(), e.what(), corner);
    } catch (...) {
      return FlowError("characterize", path.string(), "unknown error",
                       corner);
    }
  };
  // Every library characterized here is rounded to its artifact's numbers
  // before anything reads it, so this process answers exactly as one that
  // loads the artifact.
  std::vector<std::string> priority = priority_cells(corner);
  if (priority.empty()) {
    charlib::Library lib;
    try {
      lib = characterizer.characterize_all(defs, name);
      liberty::round_to_artifact(lib);
    } catch (...) {
      throw failure(std::current_exception());
    }
    write_artifact(lib, path, config_.lib_dir, key);
    return {state(std::move(lib))};
  }

  // Cold corner: the netlist's cells come back through `early`; the job
  // finishes the catalog, writes the artifact, then lands the full state.
  static obs::Counter& publications =
      obs::registry().counter("flow.partial_publications");
  static obs::Histogram& background =
      obs::registry().histogram("flow.background_seconds");
  std::promise<charlib::Library> early;
  std::future<charlib::Library> partial = early.get_future();
  auto job = [this, ticket, early = std::move(early),
              characterizer = std::move(characterizer),
              defs = std::move(defs), name, path, key,
              priority = std::move(priority), state, failure]() mutable {
    bool published = false;
    std::chrono::steady_clock::time_point published_at;
    try {
      OBS_SPAN("flow.library.background", name);
      charlib::Library lib = characterizer.characterize_all(
          defs, name, priority, [&](charlib::Library cells) {
            liberty::round_to_artifact(cells);
            early.set_value(std::move(cells));
            published = true;
            published_at = std::chrono::steady_clock::now();
          });
      liberty::round_to_artifact(lib);
      write_artifact(lib, path, config_.lib_dir, key);
      corners_.finish(ticket, state(std::move(lib)));
      background.observe(std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - published_at)
                             .count());
    } catch (...) {
      auto error = std::make_exception_ptr(failure(std::current_exception()));
      if (published)
        corners_.finish(ticket, nullptr, error);
      else
        early.set_exception(error);
    }
  };
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    std::erase_if(jobs_, [](const std::future<void>& f) {
      return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
    });
    jobs_.push_back(std::async(std::launch::async, std::move(job)));
  }
  charlib::Library lib = partial.get();
  publications.add(1);
  return {state(std::move(lib)), /*early=*/true};
}

std::shared_ptr<CornerState> CryoSocFlow::build_interpolated_state(
    const Corner& corner) {
  OBS_SPAN("flow.corner_interp", corner.label());
  std::vector<std::shared_ptr<const charlib::Library>> anchors;
  anchors.reserve(config_.interp_anchor_temps.size());
  for (double t : config_.interp_anchor_temps)
    anchors.push_back(library(Corner{corner.vdd, t, ""}));
  charlib::Library lib;
  try {
    liberty::InterpLibrary interp(std::move(anchors));
    lib = interp.at(corner.temperature, "cryo5_" + corner_slug(corner));
  } catch (const FlowError& e) {
    throw FlowError::at_corner(e, corner, e.stage());
  }
  return std::make_shared<CornerState>(corner, std::move(lib),
                                       *sram_for(corner));
}

std::shared_ptr<CornerState> CryoSocFlow::corner_state_mutable(
    const Corner& corner, bool accept_partial) {
  ensure_devices();
  return corners_.get_or_build(
      corner,
      [&](const Corners::Ticket& ticket) {
        return build_corner_state(corner, ticket);
      },
      accept_partial);
}

std::shared_ptr<const CornerState> CryoSocFlow::corner_state(
    const Corner& corner) {
  return corner_state_mutable(corner, /*accept_partial=*/false);
}

std::shared_ptr<const charlib::Library> CryoSocFlow::library(
    const Corner& corner) {
  auto state = corner_state_mutable(corner, /*accept_partial=*/false);
  return {state, &state->library};
}

std::shared_ptr<const sram::SramModel> CryoSocFlow::sram_for(
    const Corner& corner) {
  ensure_devices();
  return srams_.get_or_build(corner, [&](const Srams::Ticket&) {
    OBS_SPAN("flow.sram_model", corner.label());
    return Srams::Built{std::make_shared<sram::SramModel>(
        *nmos_, *pmos_, corner.temperature, corner.vdd)};
  });
}

sram::SramModel CryoSocFlow::sram_model(const Corner& corner) {
  return *sram_for(corner);
}

const sta::StaEngine& CryoSocFlow::engine_for(CornerState& state) {
  // Resolve the netlist before taking the once-lock: soc() itself
  // resolves the 300 K corner and must not nest under it.
  const netlist::Netlist& netlist = soc();
  static obs::Counter& builds = obs::registry().counter("flow.engine_builds");
  static obs::Gauge& reuse = obs::registry().gauge("flow.engine_reuse");
  bool built = false;
  std::call_once(state.engine_once, [&] {
    OBS_SPAN("flow.sta_engine_build", state.corner.label());
    state.engine = std::make_unique<sta::StaEngine>(netlist, state.library,
                                                    state.sram);
    builds.add(1);
    built = true;
  });
  if (!built) reuse.add(1);
  return *state.engine;
}

sta::TimingReport CryoSocFlow::timing(const Corner& corner) {
  start_soc();
  auto state = corner_state_mutable(corner, /*accept_partial=*/true);
  const sta::StaEngine& engine = engine_for(*state);
  // A throwing run() leaves the flag unset, so the next call retries.
  std::call_once(state->timing_once, [&] {
    OBS_SPAN("flow.sta", corner.label());
    state->timing = engine.run();
  });
  return *state->timing;
}

const power::PowerAnalyzer& CryoSocFlow::analyzer_for(CornerState& state) {
  const sta::StaEngine& engine = engine_for(state);
  const netlist::Netlist& netlist = soc();
  static obs::Counter& builds = obs::registry().counter("flow.power_builds");
  std::call_once(state.analyzer_once, [&] {
    OBS_SPAN("flow.power_build", state.corner.label());
    state.analyzer = std::make_unique<power::PowerAnalyzer>(
        netlist, state.library, state.sram, engine);
    builds.add(1);
  });
  return *state.analyzer;
}

power::PowerReport CryoSocFlow::workload_power(
    const Corner& corner, const power::ActivityProfile& profile) {
  start_soc();
  auto state = corner_state_mutable(corner, /*accept_partial=*/true);
  const power::PowerAnalyzer& analyzer = analyzer_for(*state);
  OBS_SPAN("flow.power", corner.label());
  return analyzer.analyze(profile);
}

power::PowerReport CryoSocFlow::measured_power(
    const Corner& corner, const gatesim::MeasuredActivity& activity) {
  start_soc();
  auto state = corner_state_mutable(corner, /*accept_partial=*/true);
  const power::PowerAnalyzer& analyzer = analyzer_for(*state);
  OBS_SPAN("flow.power_measured", corner.label());
  return analyzer.analyze(activity);
}

void CryoSocFlow::start_soc() {
  {
    std::lock_guard<std::mutex> lock(soc_mutex_);
    if (soc_ || soc_building_) return;
  }
  soc();
}

const netlist::Netlist& CryoSocFlow::soc() {
  std::unique_lock<std::mutex> lock(soc_mutex_);
  soc_done_.wait(lock, [&] { return !soc_building_; });
  if (soc_) return *soc_;
  soc_building_ = true;
  lock.unlock();
  std::optional<netlist::Netlist> built;
  std::set<std::string> cells;
  try {
    built = netlist::build_soc(config_.soc);
    auto lib = library(corner(300.0));
    OBS_SPAN("flow.synthesize");
    synth::optimize(*built, *lib);
    for (const auto& gate : built->gates()) cells.insert(gate.cell);
  } catch (...) {
    lock.lock();
    soc_building_ = false;
    soc_done_.notify_all();
    throw;
  }
  lock.lock();
  soc_ = std::move(built);
  soc_cells_.assign(cells.begin(), cells.end());
  soc_building_ = false;
  soc_done_.notify_all();
  return *soc_;
}

power::ActivityProfile CryoSocFlow::activity_from_perf(
    const riscv::Perf& perf, double clock_frequency) const {
  power::ActivityProfile p;
  p.clock_frequency = clock_frequency;
  const double cycles = static_cast<double>(std::max<std::uint64_t>(
      perf.cycles, 1));
  const double ipc = static_cast<double>(perf.instructions) / cycles;
  const double alu_rate = static_cast<double>(perf.alu_ops) / cycles;
  const double mul_rate = static_cast<double>(perf.mul_ops +
                                              perf.fpu_ops) / cycles;
  const double mem_rate =
      static_cast<double>(perf.loads + perf.stores) / cycles;
  const double l1d_miss_rate =
      static_cast<double>(perf.l1d_misses) / cycles;
  const double l1i_miss_rate =
      static_cast<double>(perf.l1i_misses) / cycles;

  // Per-unit toggle probabilities: instance-name prefixes from the SoC
  // generator. Roughly half the datapath bits toggle on an active cycle.
  p.unit_activity = {
      {"pc", 0.30 + 0.2 * ipc},
      {"pcadd", 0.25},
      {"if_id", 0.4 * ipc},
      {"dec", 0.3 * ipc},
      {"rf", 0.20 * ipc},
      {"rp", 0.25 * ipc},
      {"id_ex", 0.35 * ipc},
      {"alu", 0.45 * alu_rate + 0.1 * ipc},
      {"mul", 0.50 * mul_rate},
      {"br", 0.2 * ipc},
      {"ex_mem", 0.35 * ipc},
      {"tagcmp", 0.5 * mem_rate},
      {"waysel", 0.5 * mem_rate},
      {"lalign", 0.5 * mem_rate},
      {"hit", 0.3 * mem_rate},
      {"wb", 0.3 * ipc},
      {"mem_wb", 0.35 * ipc},
      {"fobuf", 0.15 * ipc},
      {"l1i", 0.4 * ipc},
      {"l1d", 0.5 * mem_rate},
      {"l2", 0.5 * (l1d_miss_rate + l1i_miss_rate)},
  };
  p.default_activity = 0.05;

  // SRAM access rates by macro-name prefix (per macro: bank interleaving
  // spreads accesses, so divide L1 data rates by the bank count).
  const double ifetch_rate = 0.5 * ipc;  // two instructions per 64-bit word
  p.sram_reads_per_cycle = {
      {"l1i_data", ifetch_rate / 4.0},
      {"l1i_tags", ifetch_rate},
      {"l1d_data", mem_rate / 4.0},
      {"l1d_tags", mem_rate},
      {"l2_data", l1d_miss_rate + l1i_miss_rate},
      {"l2_tags", l1d_miss_rate + l1i_miss_rate},
      {"l2_state", l1d_miss_rate + l1i_miss_rate},
  };
  p.sram_writes_per_cycle = {
      {"l1d_data", static_cast<double>(perf.stores) / cycles / 4.0},
      {"l2_data", 0.5 * (l1d_miss_rate + l1i_miss_rate)},
  };
  return p;
}

}  // namespace cryo::core
