#include "serve/request.hpp"

#include <cmath>

#include "core/artifacts.hpp"
#include "core/error.hpp"
#include "serve/json.hpp"

namespace cryo::serve {
namespace {

// Identity-bearing doubles are rendered in shortest round-trip form
// (std::to_chars), so parse(to_json(x)) reproduces the exact bits and
// equal corners stay equal through the wire.
obs::Json jnum(double v) {
  if (!std::isfinite(v)) return obs::Json::raw("null");
  return obs::Json::raw(core::corner_detail::shortest(v));
}

double num_or(const JsonValue& obj, std::string_view key, double fallback,
              std::string_view what) {
  const JsonValue* v = obj.find(key);
  if (!v || v->is_null()) return fallback;
  return v->as_number(what);
}

bool bool_or(const JsonValue& obj, std::string_view key, bool fallback,
             std::string_view what) {
  const JsonValue* v = obj.find(key);
  if (!v) return fallback;
  return v->as_bool(what);
}

std::string string_or(const JsonValue& obj, std::string_view key) {
  const JsonValue* v = obj.find(key);
  if (!v) return "";
  return v->as_string(key);
}

// ---- Corner --------------------------------------------------------------

obs::Json corner_to_json(const core::Corner& corner) {
  obs::Json j = obs::Json::object();
  j["vdd"] = jnum(corner.vdd);
  j["temperature_k"] = jnum(corner.temperature);
  if (!corner.name.empty()) j["name"] = corner.name;
  return j;
}

core::Corner corner_from_json(const JsonValue& v) {
  core::Corner corner;
  corner.vdd = v.at("vdd", "corner").as_number("corner.vdd");
  corner.temperature =
      v.at("temperature_k", "corner").as_number("corner.temperature_k");
  corner.name = string_or(v, "name");
  return corner;
}

// ---- string->double maps (activity rates) --------------------------------

obs::Json rate_map_to_json(const std::map<std::string, double>& rates) {
  obs::Json j = obs::Json::object();
  for (const auto& [key, value] : rates) j[key] = jnum(value);
  return j;
}

std::map<std::string, double> rate_map_from_json(const JsonValue* v,
                                                 std::string_view what) {
  std::map<std::string, double> rates;
  if (!v) return rates;
  for (const auto& [key, value] : v->members)
    rates[key] = value.as_number(what);
  return rates;
}

// ---- ActivityProfile -----------------------------------------------------

obs::Json profile_to_json(const power::ActivityProfile& profile) {
  obs::Json j = obs::Json::object();
  j["clock_frequency_hz"] = jnum(profile.clock_frequency);
  j["default_activity"] = jnum(profile.default_activity);
  j["unit_activity"] = rate_map_to_json(profile.unit_activity);
  j["sram_reads_per_cycle"] = rate_map_to_json(profile.sram_reads_per_cycle);
  j["sram_writes_per_cycle"] = rate_map_to_json(profile.sram_writes_per_cycle);
  return j;
}

power::ActivityProfile profile_from_json(const JsonValue& v) {
  power::ActivityProfile profile;
  profile.clock_frequency =
      num_or(v, "clock_frequency_hz", profile.clock_frequency, "profile");
  profile.default_activity =
      num_or(v, "default_activity", profile.default_activity, "profile");
  profile.unit_activity =
      rate_map_from_json(v.find("unit_activity"), "profile.unit_activity");
  profile.sram_reads_per_cycle = rate_map_from_json(
      v.find("sram_reads_per_cycle"), "profile.sram_reads_per_cycle");
  profile.sram_writes_per_cycle = rate_map_from_json(
      v.find("sram_writes_per_cycle"), "profile.sram_writes_per_cycle");
  return profile;
}

// ---- MeasuredActivity ----------------------------------------------------

obs::Json activity_to_json(const gatesim::MeasuredActivity& activity) {
  obs::Json j = obs::Json::object();
  j["clock_frequency_hz"] = jnum(activity.clock_frequency);
  j["cycles"] = activity.cycles;
  j["events"] = activity.events;
  j["glitches"] = activity.glitches;
  obs::Json toggles = obs::Json::array();
  for (const std::uint64_t t : activity.net_toggles) toggles.push_back(t);
  j["net_toggles"] = std::move(toggles);
  obs::Json glitches = obs::Json::array();
  for (const std::uint64_t g : activity.net_glitches) glitches.push_back(g);
  j["net_glitches"] = std::move(glitches);
  j["sram_reads_per_cycle"] = rate_map_to_json(activity.sram_reads_per_cycle);
  j["sram_writes_per_cycle"] =
      rate_map_to_json(activity.sram_writes_per_cycle);
  return j;
}

gatesim::MeasuredActivity activity_from_json(const JsonValue& v) {
  gatesim::MeasuredActivity activity;
  activity.clock_frequency =
      num_or(v, "clock_frequency_hz", activity.clock_frequency, "activity");
  activity.cycles = v.at("cycles", "activity").as_uint("activity.cycles");
  activity.events = v.at("events", "activity").as_uint("activity.events");
  activity.glitches =
      v.at("glitches", "activity").as_uint("activity.glitches");
  if (const JsonValue* toggles = v.find("net_toggles"))
    for (const JsonValue& t : toggles->items)
      activity.net_toggles.push_back(t.as_uint("activity.net_toggles"));
  if (const JsonValue* glitches = v.find("net_glitches"))
    for (const JsonValue& g : glitches->items)
      activity.net_glitches.push_back(g.as_uint("activity.net_glitches"));
  activity.sram_reads_per_cycle = rate_map_from_json(
      v.find("sram_reads_per_cycle"), "activity.sram_reads_per_cycle");
  activity.sram_writes_per_cycle = rate_map_from_json(
      v.find("sram_writes_per_cycle"), "activity.sram_writes_per_cycle");
  return activity;
}

// ---- MacroSpec -----------------------------------------------------------

obs::Json macro_to_json(const sram::MacroSpec& macro) {
  obs::Json j = obs::Json::object();
  j["rows"] = macro.rows;
  j["cols"] = macro.cols;
  return j;
}

sram::MacroSpec macro_from_json(const JsonValue& v) {
  sram::MacroSpec macro;
  macro.rows = static_cast<int>(v.at("rows", "macro").as_number("macro.rows"));
  macro.cols = static_cast<int>(v.at("cols", "macro").as_number("macro.cols"));
  return macro;
}

// ---- SweepQuery ----------------------------------------------------------

obs::Json sweep_query_to_json(const SweepQuery& query) {
  obs::Json j = obs::Json::object();
  obs::Json corners = obs::Json::array();
  for (const core::Corner& corner : query.corners)
    corners.push_back(corner_to_json(corner));
  j["corners"] = std::move(corners);
  j["run_timing"] = query.run_timing;
  j["run_power"] = query.run_power;
  j["run_leakage"] = query.run_leakage;
  j["run_feasibility"] = query.run_feasibility;
  j["profile"] = profile_to_json(query.profile);
  j["cooling_budget_w"] = jnum(query.cooling_budget_w);
  j["deadline_s"] = jnum(query.deadline_s);
  j["cycles_per_classification"] = jnum(query.cycles_per_classification);
  j["qubits"] = query.qubits;
  j["threads"] = query.threads;
  return j;
}

SweepQuery sweep_query_from_json(const JsonValue& v) {
  SweepQuery query;
  for (const JsonValue& corner : v.at("corners", "sweep").items)
    query.corners.push_back(corner_from_json(corner));
  query.run_timing = bool_or(v, "run_timing", query.run_timing, "sweep");
  query.run_power = bool_or(v, "run_power", query.run_power, "sweep");
  query.run_leakage = bool_or(v, "run_leakage", query.run_leakage, "sweep");
  query.run_feasibility =
      bool_or(v, "run_feasibility", query.run_feasibility, "sweep");
  if (const JsonValue* profile = v.find("profile"))
    query.profile = profile_from_json(*profile);
  query.cooling_budget_w =
      num_or(v, "cooling_budget_w", query.cooling_budget_w, "sweep");
  query.deadline_s = num_or(v, "deadline_s", query.deadline_s, "sweep");
  query.cycles_per_classification = num_or(
      v, "cycles_per_classification", query.cycles_per_classification,
      "sweep");
  query.qubits =
      static_cast<int>(num_or(v, "qubits", query.qubits, "sweep"));
  query.threads =
      static_cast<int>(num_or(v, "threads", query.threads, "sweep"));
  return query;
}

// ---- TimingReport --------------------------------------------------------

obs::Json timing_to_json(const sta::TimingReport& timing) {
  obs::Json j = obs::Json::object();
  j["critical_delay_s"] = jnum(timing.critical_delay);
  j["fmax_hz"] = jnum(timing.fmax);
  j["worst_hold_slack_s"] = jnum(timing.worst_hold_slack);
  j["has_hold_endpoints"] = timing.has_hold_endpoints;
  j["endpoint_count"] = timing.endpoint_count;
  j["critical_endpoint"] = timing.critical_endpoint;
  obs::Json path = obs::Json::array();
  for (const sta::PathStep& step : timing.critical_path) {
    obs::Json s = obs::Json::object();
    s["instance"] = step.instance;
    s["cell"] = step.cell;
    s["through"] = step.through;
    s["delay_s"] = jnum(step.delay);
    s["arrival_s"] = jnum(step.arrival);
    path.push_back(std::move(s));
  }
  j["critical_path"] = std::move(path);
  return j;
}

sta::TimingReport timing_from_json(const JsonValue& v) {
  sta::TimingReport timing;
  timing.critical_delay =
      v.at("critical_delay_s", "timing").as_number("timing.critical_delay_s");
  timing.fmax = v.at("fmax_hz", "timing").as_number("timing.fmax_hz");
  timing.worst_hold_slack = num_or(v, "worst_hold_slack_s", 0.0, "timing");
  timing.has_hold_endpoints =
      bool_or(v, "has_hold_endpoints", false, "timing");
  timing.endpoint_count = static_cast<std::size_t>(
      v.at("endpoint_count", "timing").as_uint("timing.endpoint_count"));
  timing.critical_endpoint = string_or(v, "critical_endpoint");
  if (const JsonValue* path = v.find("critical_path")) {
    for (const JsonValue& s : path->items) {
      sta::PathStep step;
      step.instance = string_or(s, "instance");
      step.cell = string_or(s, "cell");
      step.through = string_or(s, "through");
      step.delay = num_or(s, "delay_s", 0.0, "timing.critical_path");
      step.arrival = num_or(s, "arrival_s", 0.0, "timing.critical_path");
      timing.critical_path.push_back(std::move(step));
    }
  }
  return timing;
}

// ---- PowerReport ---------------------------------------------------------

obs::Json power_to_json(const power::PowerReport& power) {
  obs::Json j = obs::Json::object();
  j["dynamic_logic_w"] = jnum(power.dynamic_logic);
  j["dynamic_sram_w"] = jnum(power.dynamic_sram);
  j["dynamic_glitch_w"] = jnum(power.dynamic_glitch);
  j["leakage_logic_w"] = jnum(power.leakage_logic);
  j["leakage_sram_w"] = jnum(power.leakage_sram);
  j["total_w"] = jnum(power.total());
  return j;
}

power::PowerReport power_from_json(const JsonValue& v) {
  power::PowerReport power;
  power.dynamic_logic = num_or(v, "dynamic_logic_w", 0.0, "power");
  power.dynamic_sram = num_or(v, "dynamic_sram_w", 0.0, "power");
  power.dynamic_glitch = num_or(v, "dynamic_glitch_w", 0.0, "power");
  power.leakage_logic = num_or(v, "leakage_logic_w", 0.0, "power");
  power.leakage_sram = num_or(v, "leakage_sram_w", 0.0, "power");
  return power;
}

// ---- SramResult ----------------------------------------------------------

obs::Json sram_to_json(const SramResult& sram) {
  obs::Json j = obs::Json::object();
  j["macro"] = macro_to_json(sram.macro);
  j["access_time_s"] = jnum(sram.timing.access_time);
  j["setup_time_s"] = jnum(sram.timing.setup_time);
  j["min_cycle_s"] = jnum(sram.timing.min_cycle);
  j["leakage_w"] = jnum(sram.power.leakage);
  j["read_energy_j"] = jnum(sram.power.read_energy);
  j["write_energy_j"] = jnum(sram.power.write_energy);
  j["leakage_per_bit_w"] = jnum(sram.leakage_per_bit_w);
  j["reference_gate_delay_s"] = jnum(sram.reference_gate_delay_s);
  return j;
}

SramResult sram_from_json(const JsonValue& v) {
  SramResult sram;
  sram.macro = macro_from_json(v.at("macro", "sram"));
  sram.timing.access_time = num_or(v, "access_time_s", 0.0, "sram");
  sram.timing.setup_time = num_or(v, "setup_time_s", 0.0, "sram");
  sram.timing.min_cycle = num_or(v, "min_cycle_s", 0.0, "sram");
  sram.power.leakage = num_or(v, "leakage_w", 0.0, "sram");
  sram.power.read_energy = num_or(v, "read_energy_j", 0.0, "sram");
  sram.power.write_energy = num_or(v, "write_energy_j", 0.0, "sram");
  sram.leakage_per_bit_w = num_or(v, "leakage_per_bit_w", 0.0, "sram");
  sram.reference_gate_delay_s =
      num_or(v, "reference_gate_delay_s", 0.0, "sram");
  return sram;
}

// ---- SweepOutcome --------------------------------------------------------
//
// Per-corner wall clocks (`seconds`) are scheduling noise, not results;
// they are deliberately not serialized, so sweep responses stay
// byte-identical at any thread count.

obs::Json sweep_outcome_to_json(const SweepOutcome& outcome) {
  obs::Json j = obs::Json::object();
  j["failed"] = outcome.failed;
  obs::Json corners = obs::Json::array();
  for (const SweepCornerResult& r : outcome.corners) {
    obs::Json c = obs::Json::object();
    c["corner"] = corner_to_json(r.corner);
    c["ok"] = r.ok;
    if (!r.ok) {
      obs::Json e = obs::Json::object();
      e["stage"] = r.error_stage;
      e["detail"] = r.error;
      c["error"] = std::move(e);
    }
    if (r.timing) c["timing"] = timing_to_json(*r.timing);
    if (r.power) c["power"] = power_to_json(*r.power);
    if (r.library_leakage_w > 0.0)
      c["library_leakage_w"] = jnum(r.library_leakage_w);
    if (r.fits_cooling_budget)
      c["fits_cooling_budget"] = *r.fits_cooling_budget;
    if (r.meets_deadline) c["meets_deadline"] = *r.meets_deadline;
    corners.push_back(std::move(c));
  }
  j["corners"] = std::move(corners);
  if (outcome.worst_corner) j["worst_corner"] = *outcome.worst_corner;
  obs::Json curve = obs::Json::array();
  for (const auto& [t, f] : outcome.fmax_vs_temperature) {
    obs::Json pt = obs::Json::object();
    pt["temperature_k"] = jnum(t);
    pt["fmax_hz"] = jnum(f);
    curve.push_back(std::move(pt));
  }
  j["fmax_vs_temperature"] = std::move(curve);
  if (outcome.cooling_crossover_k)
    j["cooling_crossover_k"] = jnum(*outcome.cooling_crossover_k);
  j["cooling_verdict"] = cooling_verdict_name(outcome.cooling_verdict);
  return j;
}

SweepOutcome sweep_outcome_from_json(const JsonValue& v) {
  SweepOutcome outcome;
  outcome.failed = static_cast<std::size_t>(
      v.at("failed", "sweep").as_uint("sweep.failed"));
  for (const JsonValue& c : v.at("corners", "sweep").items) {
    SweepCornerResult r;
    r.corner = corner_from_json(c.at("corner", "sweep.corners"));
    r.ok = c.at("ok", "sweep.corners").as_bool("sweep.corners.ok");
    if (const JsonValue* e = c.find("error")) {
      r.error_stage = string_or(*e, "stage");
      r.error = string_or(*e, "detail");
    }
    if (const JsonValue* t = c.find("timing")) r.timing = timing_from_json(*t);
    if (const JsonValue* p = c.find("power")) r.power = power_from_json(*p);
    r.library_leakage_w = num_or(c, "library_leakage_w", 0.0, "sweep");
    if (const JsonValue* f = c.find("fits_cooling_budget"))
      r.fits_cooling_budget = f->as_bool("sweep.fits_cooling_budget");
    if (const JsonValue* m = c.find("meets_deadline"))
      r.meets_deadline = m->as_bool("sweep.meets_deadline");
    outcome.corners.push_back(std::move(r));
  }
  if (const JsonValue* w = v.find("worst_corner"))
    outcome.worst_corner =
        static_cast<std::size_t>(w->as_uint("sweep.worst_corner"));
  if (const JsonValue* curve = v.find("fmax_vs_temperature")) {
    for (const JsonValue& pt : curve->items)
      outcome.fmax_vs_temperature.emplace_back(
          pt.at("temperature_k", "sweep.curve").as_number("temperature_k"),
          pt.at("fmax_hz", "sweep.curve").as_number("fmax_hz"));
  }
  if (const JsonValue* x = v.find("cooling_crossover_k"))
    outcome.cooling_crossover_k = x->as_number("sweep.cooling_crossover_k");
  if (const JsonValue* verdict = v.find("cooling_verdict")) {
    const auto parsed =
        cooling_verdict_from_name(verdict->as_string("sweep.cooling_verdict"));
    if (!parsed)
      throw core::FlowError("request-parse", "",
                            "sweep.cooling_verdict: unknown verdict \"" +
                                verdict->as_string("sweep.cooling_verdict") +
                                "\"");
    outcome.cooling_verdict = *parsed;
  } else if (outcome.cooling_crossover_k) {
    // Pre-verdict documents: a recorded crossover implies one.
    outcome.cooling_verdict = CoolingVerdict::kCrossover;
  }
  return outcome;
}

}  // namespace

// ---- Kind names ----------------------------------------------------------

const char* kind_name(QueryKind kind) {
  switch (kind) {
    case QueryKind::kTiming: return "timing";
    case QueryKind::kPower: return "power";
    case QueryKind::kMeasuredPower: return "measured_power";
    case QueryKind::kLeakage: return "leakage";
    case QueryKind::kSram: return "sram";
    case QueryKind::kSweep: return "sweep";
  }
  return "unknown";
}

std::optional<QueryKind> kind_from_name(const std::string& name) {
  for (const QueryKind kind : kAllQueryKinds)
    if (name == kind_name(kind)) return kind;
  return std::nullopt;
}

const char* cooling_verdict_name(CoolingVerdict verdict) {
  switch (verdict) {
    case CoolingVerdict::kNotEvaluated: return "not_evaluated";
    case CoolingVerdict::kCrossover: return "crossover";
    case CoolingVerdict::kFitsEverywhere: return "fits_everywhere";
    case CoolingVerdict::kInfeasibleEverywhere:
      return "infeasible_everywhere";
    case CoolingVerdict::kNonMonotonic: return "non_monotonic";
  }
  return "not_evaluated";
}

std::optional<CoolingVerdict> cooling_verdict_from_name(
    const std::string& name) {
  for (const CoolingVerdict v :
       {CoolingVerdict::kNotEvaluated, CoolingVerdict::kCrossover,
        CoolingVerdict::kFitsEverywhere, CoolingVerdict::kInfeasibleEverywhere,
        CoolingVerdict::kNonMonotonic})
    if (name == cooling_verdict_name(v)) return v;
  return std::nullopt;
}

// ---- Convenience constructors --------------------------------------------

FlowRequest timing_request(const core::Corner& corner, std::string id) {
  FlowRequest r;
  r.kind = QueryKind::kTiming;
  r.corner = corner;
  r.id = std::move(id);
  return r;
}

FlowRequest power_request(const core::Corner& corner,
                          power::ActivityProfile profile, std::string id) {
  FlowRequest r;
  r.kind = QueryKind::kPower;
  r.corner = corner;
  r.profile = std::move(profile);
  r.id = std::move(id);
  return r;
}

FlowRequest leakage_request(const core::Corner& corner, std::string id) {
  FlowRequest r;
  r.kind = QueryKind::kLeakage;
  r.corner = corner;
  r.id = std::move(id);
  return r;
}

FlowRequest sram_request(const core::Corner& corner, sram::MacroSpec macro,
                         std::string id) {
  FlowRequest r;
  r.kind = QueryKind::kSram;
  r.corner = corner;
  r.macro = macro;
  r.id = std::move(id);
  return r;
}

FlowRequest sweep_request(SweepQuery query, std::string id) {
  FlowRequest r;
  r.kind = QueryKind::kSweep;
  r.sweep = std::move(query);
  r.id = std::move(id);
  return r;
}

// ---- Request wire format -------------------------------------------------

obs::Json to_json(const FlowRequest& request, bool include_id) {
  obs::Json j = obs::Json::object();
  j["schema"] = "cryosoc-req-v1";
  j["kind"] = kind_name(request.kind);
  if (include_id && !request.id.empty()) j["id"] = request.id;
  if (request.kind != QueryKind::kSweep)
    j["corner"] = corner_to_json(request.corner);
  switch (request.kind) {
    case QueryKind::kPower:
      j["profile"] = profile_to_json(request.profile);
      break;
    case QueryKind::kMeasuredPower:
      j["activity"] = activity_to_json(request.activity);
      break;
    case QueryKind::kSram:
      j["macro"] = macro_to_json(request.macro);
      break;
    case QueryKind::kSweep:
      j["sweep"] = sweep_query_to_json(request.sweep);
      break;
    case QueryKind::kTiming:
    case QueryKind::kLeakage:
      break;
  }
  return j;
}

namespace {

// A corner a request may name: finite, positive temperature and supply.
// Checked at admission, because a cold corner keeps characterizing after
// it answers; responses parse their corners without it.
void check_physical(const core::Corner& corner, const std::string& where) {
  const auto bad = [](double v) { return !std::isfinite(v) || v <= 0.0; };
  if (bad(corner.temperature) || bad(corner.vdd))
    throw core::FlowError(
        "request-parse", "",
        where + ": temperature_k and vdd must be finite and > 0 (got " +
            core::corner_detail::shortest(corner.temperature) + " K, " +
            core::corner_detail::shortest(corner.vdd) + " V)");
}

}  // namespace

FlowRequest parse_request(const std::string& text) {
  JsonValue doc;
  try {
    doc = json_parse(text);
  } catch (const core::FlowError& e) {
    throw core::FlowError("request-parse", "", e.detail());
  }
  if (!doc.is_object())
    throw core::FlowError("request-parse", "", "request must be an object");
  const std::string schema = string_or(doc, "schema");
  if (schema != "cryosoc-req-v1")
    throw core::FlowError("request-parse", "",
                          "unsupported schema '" + schema +
                              "' (expected cryosoc-req-v1)");
  const std::string kind_text =
      doc.at("kind", "request").as_string("request.kind");
  const auto kind = kind_from_name(kind_text);
  if (!kind)
    throw core::FlowError("request-parse", "",
                          "unknown request kind '" + kind_text + "'");

  FlowRequest request;
  request.kind = *kind;
  request.id = string_or(doc, "id");
  try {
    if (request.kind != QueryKind::kSweep)
      request.corner = corner_from_json(doc.at("corner", "request"));
    switch (request.kind) {
      case QueryKind::kPower:
        request.profile = profile_from_json(doc.at("profile", "request"));
        break;
      case QueryKind::kMeasuredPower:
        request.activity = activity_from_json(doc.at("activity", "request"));
        break;
      case QueryKind::kSram:
        request.macro = macro_from_json(doc.at("macro", "request"));
        break;
      case QueryKind::kSweep:
        request.sweep = sweep_query_from_json(doc.at("sweep", "request"));
        break;
      case QueryKind::kTiming:
      case QueryKind::kLeakage:
        break;
    }
  } catch (const core::FlowError& e) {
    throw core::FlowError("request-parse", "", e.detail());
  }
  if (request.kind == QueryKind::kSweep) {
    for (std::size_t i = 0; i < request.sweep.corners.size(); ++i)
      check_physical(request.sweep.corners[i],
                     "sweep.corners[" + std::to_string(i) + "]");
  } else {
    check_physical(request.corner, "corner");
  }
  return request;
}

std::uint64_t request_fingerprint(const FlowRequest& request) {
  return core::fnv1a64(to_json(request, /*include_id=*/false).dump(0));
}

// ---- Response wire format ------------------------------------------------

obs::Json response_payload_json(const FlowResponse& response) {
  obs::Json j = obs::Json::object();
  j["schema"] = "cryosoc-resp-v1";
  j["kind"] = kind_name(response.kind);
  j["ok"] = response.ok;
  if (!response.ok) {
    obs::Json e = obs::Json::object();
    e["stage"] = response.error_stage;
    e["detail"] = response.error;
    j["error"] = std::move(e);
  }
  if (response.kind != QueryKind::kSweep)
    j["corner"] = corner_to_json(response.corner);
  obs::Json result = obs::Json::object();
  if (response.timing) result["timing"] = timing_to_json(*response.timing);
  if (response.power) result["power"] = power_to_json(*response.power);
  if (response.library_leakage_w)
    result["library_leakage_w"] = jnum(*response.library_leakage_w);
  if (response.sram) result["sram"] = sram_to_json(*response.sram);
  if (response.sweep)
    result["sweep"] = sweep_outcome_to_json(*response.sweep);
  j["result"] = std::move(result);
  return j;
}

obs::Json to_json(const FlowResponse& response) {
  obs::Json j = response_payload_json(response);
  obs::Json meta = obs::Json::object();
  if (!response.meta.id.empty()) meta["id"] = response.meta.id;
  meta["sequence"] = response.meta.sequence;
  meta["coalesced"] = response.meta.coalesced;
  meta["queue_seconds"] = jnum(response.meta.queue_seconds);
  meta["service_seconds"] = jnum(response.meta.service_seconds);
  obs::Json latency = obs::Json::object();
  latency["count"] = response.meta.kind_latency.count;
  latency["p50_s"] = jnum(response.meta.kind_latency.p50_s);
  latency["p95_s"] = jnum(response.meta.kind_latency.p95_s);
  latency["p99_s"] = jnum(response.meta.kind_latency.p99_s);
  meta["latency"] = std::move(latency);
  j["meta"] = std::move(meta);
  return j;
}

FlowResponse parse_response(const std::string& text) {
  JsonValue doc;
  try {
    doc = json_parse(text);
  } catch (const core::FlowError& e) {
    throw core::FlowError("response-parse", "", e.detail());
  }
  if (!doc.is_object())
    throw core::FlowError("response-parse", "", "response must be an object");
  const std::string schema = string_or(doc, "schema");
  if (schema != "cryosoc-resp-v1")
    throw core::FlowError("response-parse", "",
                          "unsupported schema '" + schema +
                              "' (expected cryosoc-resp-v1)");
  FlowResponse response;
  const std::string kind_text =
      doc.at("kind", "response").as_string("response.kind");
  const auto kind = kind_from_name(kind_text);
  if (!kind)
    throw core::FlowError("response-parse", "",
                          "unknown response kind '" + kind_text + "'");
  response.kind = *kind;
  response.ok = doc.at("ok", "response").as_bool("response.ok");
  if (const JsonValue* e = doc.find("error")) {
    response.error_stage = string_or(*e, "stage");
    response.error = string_or(*e, "detail");
  }
  if (const JsonValue* corner = doc.find("corner"))
    response.corner = corner_from_json(*corner);
  if (const JsonValue* result = doc.find("result")) {
    if (const JsonValue* t = result->find("timing"))
      response.timing = timing_from_json(*t);
    if (const JsonValue* p = result->find("power"))
      response.power = power_from_json(*p);
    if (const JsonValue* l = result->find("library_leakage_w"))
      response.library_leakage_w = l->as_number("result.library_leakage_w");
    if (const JsonValue* s = result->find("sram"))
      response.sram = sram_from_json(*s);
    if (const JsonValue* sweep = result->find("sweep"))
      response.sweep = sweep_outcome_from_json(*sweep);
  }
  if (const JsonValue* meta = doc.find("meta")) {
    response.meta.id = string_or(*meta, "id");
    if (const JsonValue* seq = meta->find("sequence"))
      response.meta.sequence = seq->as_uint("meta.sequence");
    if (const JsonValue* c = meta->find("coalesced"))
      response.meta.coalesced = c->as_uint("meta.coalesced");
    response.meta.queue_seconds = num_or(*meta, "queue_seconds", 0.0, "meta");
    response.meta.service_seconds =
        num_or(*meta, "service_seconds", 0.0, "meta");
    if (const JsonValue* latency = meta->find("latency")) {
      if (const JsonValue* n = latency->find("count"))
        response.meta.kind_latency.count = n->as_uint("meta.latency.count");
      response.meta.kind_latency.p50_s =
          num_or(*latency, "p50_s", 0.0, "meta.latency");
      response.meta.kind_latency.p95_s =
          num_or(*latency, "p95_s", 0.0, "meta.latency");
      response.meta.kind_latency.p99_s =
          num_or(*latency, "p99_s", 0.0, "meta.latency");
    }
  }
  return response;
}

}  // namespace cryo::serve
