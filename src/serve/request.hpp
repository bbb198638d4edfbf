// cryo::serve — the unified request/response API of the flow.
//
// Every query the stack answers (STA timing, workload power, measured
// power, library leakage, SRAM macro models, multi-corner sweeps) is one
// FlowRequest: a tagged union over the query kinds, each carrying a
// core::Corner — or a corner grid for sweeps — plus its kind-specific
// payload. The matching FlowResponse carries the kind's result, a
// structured error (stage + detail, mirroring core::FlowError) when the
// query failed, and service metadata (queue/service latency, coalescing,
// live p50/p95/p99 for the kind).
//
// This is the single public entry point of the flow: CryoSocFlow and
// sweep::run_sweep are the implementation underneath serve::execute()
// (see serve/service.hpp), and sweep::run_sweep takes and returns the
// SweepQuery / SweepOutcome types defined here.
//
// Wire format: a stable JSON schema, `cryosoc-req-v1` / `cryosoc-resp-v1`.
//  - to_json() renders with obs::Json; identity-bearing doubles (corner
//    vdd/temperature, profile rates) are emitted in shortest round-trip
//    form, so parse(to_json(r)) == r exactly — equal corners stay equal
//    through the wire and coalesce to one cache entry.
//  - parse_request()/parse_response() accept the same schema back;
//    malformed documents throw core::FlowError{stage="request-parse"}.
//  - response_payload_json() renders only the deterministic result
//    portion (no metadata), so "service response == direct CryoSocFlow
//    call" is a byte-level assertion.
//  - request_fingerprint() hashes the canonical request rendering minus
//    the client id; the service coalesces in-flight requests on it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "core/corner.hpp"
#include "gatesim/activity.hpp"
#include "obs/report.hpp"
#include "power/power.hpp"
#include "sram/sram.hpp"
#include "sta/sta.hpp"

namespace cryo::serve {

// ---- Query kinds ---------------------------------------------------------

enum class QueryKind {
  kTiming,         // STA at one corner -> sta::TimingReport
  kPower,          // workload power from an ActivityProfile
  kMeasuredPower,  // workload power from gatesim MeasuredActivity
  kLeakage,        // sum of library cell leakage at one corner
  kSram,           // SRAM macro timing + power at one corner
  kSweep,          // multi-corner sweep (timing/power/leakage/feasibility)
};

inline constexpr QueryKind kAllQueryKinds[] = {
    QueryKind::kTiming, QueryKind::kPower,  QueryKind::kMeasuredPower,
    QueryKind::kLeakage, QueryKind::kSram,  QueryKind::kSweep,
};

// Stable wire names ("timing", "power", "measured_power", "leakage",
// "sram", "sweep").
const char* kind_name(QueryKind kind);
std::optional<QueryKind> kind_from_name(const std::string& name);

// ---- Sweep query + outcome (shared with cryo::sweep) ---------------------

// A multi-corner analysis request, the input of sweep::run_sweep.
struct SweepQuery {
  std::vector<core::Corner> corners;

  // Which analyses to run per corner.
  bool run_timing = true;
  bool run_power = false;
  bool run_leakage = false;      // sum of library cell leakage
  bool run_feasibility = false;  // cooling budget + decoherence deadline

  // Activity profile for the power analysis. When clock_frequency <= 0 it
  // is replaced per corner by that corner's fmax (requires run_timing).
  power::ActivityProfile profile;

  // Feasibility inputs (paper Sec. VI): total power must fit the cooling
  // budget; a batch of `qubits` classifications at cycles_per_classification
  // must finish inside the decoherence deadline (0 disables the check).
  double cooling_budget_w = kCoolingBudget10K;
  double deadline_s = kFalconDecoherenceTime;
  double cycles_per_classification = 0.0;
  int qubits = 0;

  // Worker threads: > 0 explicit, 0 = CRYOSOC_THREADS / hardware.
  int threads = 0;
};

// One corner's sweep outcome.
struct SweepCornerResult {
  core::Corner corner;
  bool ok = false;
  // Failure account (empty when ok): the stage mirrors
  // core::FlowError::stage(), plus "quarantine" for degraded
  // characterizations and "analysis" for non-flow throws.
  std::string error;
  std::string error_stage;

  std::optional<sta::TimingReport> timing;
  std::optional<power::PowerReport> power;
  double library_leakage_w = 0.0;  // when run_leakage

  // Feasibility verdicts (when run_feasibility and the inputs exist).
  std::optional<bool> fits_cooling_budget;
  std::optional<bool> meets_deadline;

  double seconds = 0.0;  // wall clock of this corner's analyses
};

// Cooling-budget feasibility over the power-vs-temperature series. The
// crossover temperature alone could not distinguish "no crossover
// because every corner fits the budget" from "no crossover because even
// the coldest corner exceeds it" — both left one unset optional.
enum class CoolingVerdict {
  kNotEvaluated,          // no corner produced a power result
  kCrossover,             // budget crossed; cooling_crossover_k is set
  kFitsEverywhere,        // every temperature fits the budget
  kInfeasibleEverywhere,  // every temperature exceeds the budget
  kNonMonotonic,  // mixed feasibility but no fits->exceeds bracketing
};

// Stable wire names ("not_evaluated", "crossover", "fits_everywhere",
// "infeasible_everywhere", "non_monotonic").
const char* cooling_verdict_name(CoolingVerdict verdict);
std::optional<CoolingVerdict> cooling_verdict_from_name(
    const std::string& name);

// A whole sweep's outcome, the result of sweep::run_sweep.
struct SweepOutcome {
  std::vector<SweepCornerResult> corners;  // same order as the request
  std::size_t failed = 0;

  // Derived cross-corner scalars (over successful corners only).
  // Index of the worst corner by fmax (slowest timing), if any ran.
  std::optional<std::size_t> worst_corner;
  // (temperature, min fmax at that temperature), ascending temperature.
  std::vector<std::pair<double, double>> fmax_vs_temperature;
  // Highest temperature at which total power still fits the cooling
  // budget (linear interpolation between bracketing corners); set iff
  // cooling_verdict == kCrossover.
  std::optional<double> cooling_crossover_k;
  // Why cooling_crossover_k is (or is not) set.
  CoolingVerdict cooling_verdict = CoolingVerdict::kNotEvaluated;
};

// ---- FlowRequest ---------------------------------------------------------

struct FlowRequest {
  QueryKind kind = QueryKind::kTiming;
  // Client correlation tag; echoed in the response metadata. Excluded
  // from the request fingerprint, so identically-shaped requests with
  // different ids still coalesce.
  std::string id;

  // Operating corner for every kind except kSweep (which carries a grid).
  core::Corner corner;

  power::ActivityProfile profile;       // kPower (clock <= 0 -> use fmax)
  gatesim::MeasuredActivity activity;   // kMeasuredPower (SoC net ids)
  sram::MacroSpec macro;                // kSram
  SweepQuery sweep;                     // kSweep
};

// Convenience constructors for the common queries.
FlowRequest timing_request(const core::Corner& corner, std::string id = "");
FlowRequest power_request(const core::Corner& corner,
                          power::ActivityProfile profile,
                          std::string id = "");
FlowRequest leakage_request(const core::Corner& corner, std::string id = "");
FlowRequest sram_request(const core::Corner& corner, sram::MacroSpec macro,
                         std::string id = "");
FlowRequest sweep_request(SweepQuery query, std::string id = "");

// ---- FlowResponse --------------------------------------------------------

struct SramResult {
  sram::MacroSpec macro;
  sram::MacroTiming timing;
  sram::MacroPower power;
  double leakage_per_bit_w = 0.0;
  double reference_gate_delay_s = 0.0;
};

// Live latency statistics for one request kind, read from the obs
// registry histogram (serve.latency.<kind>) at response time.
struct LatencyStats {
  std::uint64_t count = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;
};

// Non-deterministic service bookkeeping. Everything here is excluded
// from response_payload_json(), so payloads stay byte-identical across
// runs, thread counts, and queueing history.
struct ResponseMeta {
  std::string id;                 // echoed FlowRequest::id
  std::uint64_t sequence = 0;     // service-local completion number
  std::uint64_t coalesced = 0;    // requests that joined this execution
  double queue_seconds = 0.0;     // admission -> execution start
  double service_seconds = 0.0;   // execution wall clock
  LatencyStats kind_latency;      // service-lifetime stats for this kind
};

struct FlowResponse {
  QueryKind kind = QueryKind::kTiming;
  bool ok = false;
  // Mirrors core::FlowError (stage/detail); stage "admission" marks a
  // backpressure rejection, "analysis" a non-flow throw.
  std::string error_stage;
  std::string error;

  core::Corner corner;  // echoed for every kind except kSweep

  std::optional<sta::TimingReport> timing;        // kTiming
  std::optional<power::PowerReport> power;        // kPower / kMeasuredPower
  std::optional<double> library_leakage_w;        // kLeakage
  std::optional<SramResult> sram;                 // kSram
  std::optional<SweepOutcome> sweep;              // kSweep

  ResponseMeta meta;
};

// ---- Wire format ---------------------------------------------------------

// Admission bounds, both rejected at stage "request-parse".
//  - A sweep names at most this many corners. The largest grid in the
//    repository's benches and tests is 20.
inline constexpr std::size_t kMaxSweepCorners = 1024;
//  - cryosocd reads a request line of at most this many bytes. The
//    largest legitimate line, a measured_power request for the default
//    SoC over a 9000-cycle deck, is 101 KB; at 20 digits per count its
//    two 23175-net arrays would still be under 1 MB.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{4} << 20;

// `cryosoc-req-v1`. include_id=false renders the canonical form used for
// fingerprinting/coalescing.
obs::Json to_json(const FlowRequest& request, bool include_id = true);
// Containers of the wrong type (a profile, rate map, activity array or
// sweep grid that is not an object or array) and a sweep over more than
// kMaxSweepCorners corners are parse errors.
FlowRequest parse_request(const std::string& text);

// `cryosoc-resp-v1`: the deterministic payload plus a "meta" member.
obs::Json to_json(const FlowResponse& response);
// Payload only (schema/kind/ok/error/corner/result) — byte-identical for
// identical queries regardless of service scheduling.
obs::Json response_payload_json(const FlowResponse& response);
FlowResponse parse_response(const std::string& text);

// FNV-1a over the canonical (id-less) request rendering. Two requests
// with equal fingerprints are the same query and may share one execution.
std::uint64_t request_fingerprint(const FlowRequest& request);

}  // namespace cryo::serve
