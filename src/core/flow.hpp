// cryosoc top-level flow: the paper's methodology (Fig. 1) as one API.
//
//   measurements -> calibrated modelcard -> standard-cell libraries per
//   operating corner -> synthesized RISC-V SoC -> STA + power at every
//   corner -> workload simulation (kNN / HDC kernels on the ISS)
//   -> feasibility versus the cooling budget and decoherence deadline.
//
// The flow is corner-keyed: every analysis takes a core::Corner
// (vdd, temperature) and per-corner state — the characterized library,
// the SRAM macro model, and the STA engine — lives in a bounded,
// thread-safe LRU cache, so a multi-corner sweep (cryo::sweep) can fan
// corners out over the exec scheduler while each corner characterizes at
// most once. Characterized libraries are cached as Liberty files
// (lib/*.lib) through the fingerprinted artifact store, so the expensive
// SPICE characterization runs once ever per corner; benches and examples
// load the artifacts afterwards.
//
// The typed request/response front door over this class is cryo::serve
// (serve/request.hpp, serve/service.hpp).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "calib/extraction.hpp"
#include "charlib/characterizer.hpp"
#include "core/corner.hpp"
#include "core/corner_cache.hpp"
#include "core/error.hpp"
#include "netlist/soc_gen.hpp"
#include "riscv/cpu.hpp"
#include "power/power.hpp"
#include "sram/sram.hpp"
#include "sta/sta.hpp"

namespace cryo::core {

struct FlowConfig {
  double vdd = 0.7;
  cells::CatalogOptions catalog;
  netlist::SocConfig soc;
  riscv::CpuConfig cpu;
  // Directory for Liberty artifacts; empty = search lib/, ../lib,
  // ../../lib, else characterize into ./lib.
  std::string lib_dir;
  // When true (default) calibrate the modelcards from the synthetic
  // silicon oracle; when false use the golden cards directly (fast tests).
  bool calibrate_devices = true;
  // Explicit modelcards: when set they win over both calibration and the
  // golden cards (e.g. injecting externally extracted cards, or perturbing
  // a parameter to probe the artifact cache).
  std::optional<device::ModelCard> nmos_override;
  std::optional<device::ModelCard> pmos_override;
  // Explicit cell list replacing the catalog (e.g. injecting a hostile
  // cell to exercise quarantine). The definitions are hashed into the
  // artifact key, so overridden runs never collide with catalog runs.
  std::optional<std::vector<cells::CellDef>> cells_override;
  // Anchored-interpolation mode (ROADMAP item 5): when non-empty, the
  // listed temperatures (>= 2, strictly ascending; validated at
  // construction) are the only corners that ever characterize. A corner
  // at any other temperature is served by piecewise-linear interpolation
  // between the bracketing anchor libraries (liberty::InterpLibrary) at
  // the corner's own vdd; temperatures outside the anchor span clamp to
  // the nearest anchor (obs `interp.extrapolations`). Anchors resolve
  // through the normal artifact path, so committed artifacts stay
  // byte-identical, and interpolated libraries are never written back —
  // interpolation is a read-side layer only.
  std::vector<double> interp_anchor_temps;
  // Bound on the per-corner state cache (library + SRAM model + STA
  // engine per resident corner). Sweeps over grids larger than this
  // evict least-recently-used corners; evicted corners reload from the
  // artifact store on the next touch. Must be >= 1 (validated at
  // construction).
  std::size_t corner_cache_capacity = 8;
  // Worker threads for characterizing an uncached corner: > 0 explicit,
  // 0 = defer to CRYOSOC_THREADS / hardware concurrency (see
  // charlib::CharOptions::threads). Artifacts are byte-identical at any
  // setting; this only trades wall-clock for cores. Must be >= 0
  // (validated at construction).
  int characterize_threads = 0;
  std::uint64_t seed = 42;
};

// Resolves the Liberty artifact directory (see FlowConfig::lib_dir).
std::string default_lib_dir();

// One corner's resident state: everything derived from (vdd, temperature)
// that is worth keeping across analyses. The STA engine is built lazily on
// the first timing/power call for the corner and reused afterwards (its
// sink lists, net loads and per-gate cells depend only on the netlist +
// library). Its report is memoized beside it: StaEngine::run() depends
// only on the corner, so timing(), power at fmax and every sweep corner
// share one STA run per resident corner.
//
// A cold corner is first resident as a partial state: its library holds
// only the synthesized netlist's cells, each bit-identical to its slice of
// the full library, so timing(), workload_power() and measured_power(),
// which read nothing else, answer from it unchanged. The full state
// replaces it once the rest of the catalog is characterized and the
// artifact is written; library(), corner_state(), leakage, sweeps and
// interpolation anchors only ever see full states.
struct CornerState {
  CornerState(Corner c, charlib::Library lib, sram::SramModel sm)
      : corner(std::move(c)), library(std::move(lib)), sram(std::move(sm)) {}

  Corner corner;
  charlib::Library library;
  sram::SramModel sram;

  // Lazily-built engine and report; managed by CryoSocFlow (see
  // engine_for and timing).
  mutable std::once_flag engine_once;
  mutable std::unique_ptr<sta::StaEngine> engine;
  mutable std::once_flag timing_once;
  mutable std::optional<sta::TimingReport> timing;
};

class CryoSocFlow {
 public:
  // Throws core::FlowError{stage="config"} when the config is invalid
  // (corner_cache_capacity < 1, characterize_threads < 0, an anchor
  // temperature that is not finite and > 0).
  explicit CryoSocFlow(FlowConfig config = {});
  // Waits for every background characterization (see library()) to
  // land, so its artifact is written before the flow goes away.
  ~CryoSocFlow();
  CryoSocFlow(const CryoSocFlow&) = delete;
  CryoSocFlow& operator=(const CryoSocFlow&) = delete;

  // Calibrated devices (runs the extraction flow on first use).
  const device::ModelCard& nmos();
  const device::ModelCard& pmos();
  const calib::ExtractionReport& extraction_report(device::Polarity p);

  // Canonical named corner at the flow's nominal supply: corner(300) is
  // the "300k" corner, corner(10) is "10k"; any other temperature gets a
  // derived name ("77k"). The name only labels the Liberty artifact file;
  // identity is (vdd, temperature).
  Corner corner(double temperature) const;

  // ---- Corner-keyed surface --------------------------------------------
  //
  // All of these resolve the corner through the LRU corner cache
  // (obs: sweep.corner_cache.{hit,miss,evict,size}); the library is
  // loaded from the fingerprinted artifact store or characterized on
  // first touch. Failures throw core::FlowError carrying stage + corner
  // + path. Safe to call concurrently from exec workers.

  // Cold corners: a top-level build (outside any exec parallel region)
  // of a corner other than the synthesis corner, once the netlist exists
  // or another thread is synthesizing it, characterizes the netlist's
  // cells first and publishes a partial state (see CornerState) as soon as
  // they are done; a job owned by the flow finishes the catalog, writes
  // the artifact and swaps the full state in. Such a build never starts a
  // synthesis itself, and anchored-interpolation flows always build whole.
  // A failure in the background part reaches the calls waiting for the
  // full state as FlowError{stage="characterize"}.

  // Characterized library at the corner, always the full one: waits for a
  // background characterization in flight. The shared_ptr keeps the
  // library alive across cache eviction for as long as the caller holds
  // it.
  std::shared_ptr<const charlib::Library> library(const Corner& corner);

  // Full per-corner state (library + SRAM model + cached STA engine);
  // waits like library().
  std::shared_ptr<const CornerState> corner_state(const Corner& corner);

  sram::SramModel sram_model(const Corner& corner);
  // The three analyses below may answer from a cold corner's partial
  // state. Each starts soc() before resolving its corner, unless another
  // thread is already synthesizing. STA runs once per resident corner
  // state; later calls copy its report.
  sta::TimingReport timing(const Corner& corner);
  power::PowerReport workload_power(const Corner& corner,
                                    const power::ActivityProfile& profile);
  // Workload-accurate power from measured per-net activity (the gatesim
  // ActivityExtractor's output) instead of per-unit toggle probabilities.
  power::PowerReport measured_power(const Corner& corner,
                                    const gatesim::MeasuredActivity& activity);

  // The synthesized SoC netlist (built and optimized with the 300 K
  // library, as the paper does). Thread-safe; built once (a failed build
  // is retried by the next call).
  const netlist::Netlist& soc();

  // Translates ISS performance counters into the per-unit activity
  // profile the power analyzer consumes.
  power::ActivityProfile activity_from_perf(const riscv::Perf& perf,
                                            double clock_frequency) const;

  const FlowConfig& config() const { return config_; }

 private:
  using Corners = CornerCache<CornerState>;

  void ensure_devices();
  // Artifact file stem for a corner ("300k", "v0p65_t300", or the
  // corner's own name).
  std::string corner_slug(const Corner& corner) const;
  // Load-or-characterize the corner's library and assemble its state; a
  // cold corner may come back partial (see the cold-corner comment above).
  Corners::Built build_corner_state(const Corner& corner,
                                    const Corners::Ticket& ticket);
  // The netlist's cell names when a cold corner may publish early (the
  // netlist exists, or waits for another thread's synthesis); else empty.
  std::vector<std::string> priority_cells(const Corner& corner);
  // Synthesizes on this thread unless the netlist exists or another
  // thread is building it. timing() and the power analyses call it first,
  // so a cold corner's build, whichever query starts it, finds the
  // synthesis in flight, while a warm corner's load still overlaps
  // another thread's synthesis instead of queuing behind it.
  void start_soc();
  // Anchored-interpolation path: resolve the anchor libraries through the
  // corner cache (nested get_or_build on distinct corners is safe — the
  // cache skips mid-build slots on eviction) and synthesize the corner's
  // library instead of characterizing it.
  std::shared_ptr<CornerState> build_interpolated_state(const Corner& corner);
  // Non-const state access for the lazy engine; `accept_partial` lets a
  // cold corner's partial state answer.
  std::shared_ptr<CornerState> corner_state_mutable(const Corner& corner,
                                                    bool accept_partial);
  // The corner's cached STA engine, built on first use.
  const sta::StaEngine& engine_for(CornerState& state);

  FlowConfig config_;
  std::once_flag devices_once_;
  std::optional<device::ModelCard> nmos_;
  std::optional<device::ModelCard> pmos_;
  std::optional<calib::ExtractionReport> report_n_;
  std::optional<calib::ExtractionReport> report_p_;
  // The netlist: built once by soc(); soc_building_ marks a synthesis in
  // flight, so a cold corner's build can wait for it (priority_cells).
  std::mutex soc_mutex_;
  std::condition_variable soc_done_;
  bool soc_building_ = false;
  std::optional<netlist::Netlist> soc_;
  std::vector<std::string> soc_cells_;  // distinct cell names of *soc_
  Corners corners_;
  // Background characterizations; the destructor waits for them.
  std::mutex jobs_mutex_;
  std::vector<std::future<void>> jobs_;
};

}  // namespace cryo::core
