#include "sweep/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <stdexcept>

#include "core/error.hpp"
#include "exec/exec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace cryo::sweep {
namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Runs one corner's analyses; everything thrown is caught by the caller
// and recorded on the result.
void analyze_corner(core::CryoSocFlow& flow, const serve::SweepQuery& req,
                    serve::SweepCornerResult& r) {
  auto lib = flow.library(r.corner);
  if (!lib->quarantined_arcs.empty()) {
    r.error_stage = "quarantine";
    r.error = "library has " +
              std::to_string(lib->quarantined_arcs.size()) +
              " quarantined arc(s), first: " + lib->quarantined_arcs.front();
    return;
  }

  if (req.run_leakage) {
    double w = 0.0;
    for (const auto& cell : lib->cells) w += cell.leakage_avg;
    r.library_leakage_w = w;
  }

  const bool need_fmax_clock =
      req.run_power && req.profile.clock_frequency <= 0.0;
  if (req.run_timing || need_fmax_clock ||
      (req.run_feasibility && req.cycles_per_classification > 0.0))
    r.timing = flow.timing(r.corner);

  double clock = req.profile.clock_frequency;
  if (clock <= 0.0 && r.timing) clock = r.timing->fmax;

  if (req.run_power) {
    power::ActivityProfile profile = req.profile;
    profile.clock_frequency = clock;
    r.power = flow.workload_power(r.corner, profile);
  }

  if (req.run_feasibility) {
    if (r.power)
      r.fits_cooling_budget = r.power->total() <= req.cooling_budget_w;
    if (r.timing && req.cycles_per_classification > 0.0 && req.qubits > 0 &&
        clock > 0.0) {
      const double batch_s =
          req.qubits * req.cycles_per_classification / clock;
      r.meets_deadline = batch_s <= req.deadline_s;
    }
  }
  r.ok = true;
}

void derive_cross_corner(serve::SweepOutcome& report,
                         double cooling_budget_w) {
  // Worst corner = slowest successful timing run.
  double worst_fmax = 0.0;
  for (std::size_t i = 0; i < report.corners.size(); ++i) {
    const serve::SweepCornerResult& r = report.corners[i];
    if (!r.ok || !r.timing) continue;
    if (!report.worst_corner || r.timing->fmax < worst_fmax) {
      report.worst_corner = i;
      worst_fmax = r.timing->fmax;
    }
  }

  // fmax-vs-temperature curve: the minimum fmax at each exact
  // temperature, ascending.
  std::map<double, double> curve;
  for (const serve::SweepCornerResult& r : report.corners) {
    if (!r.ok || !r.timing) continue;
    const auto [it, fresh] =
        curve.try_emplace(r.corner.temperature, r.timing->fmax);
    if (!fresh) it->second = std::min(it->second, r.timing->fmax);
  }
  report.fmax_vs_temperature.assign(curve.begin(), curve.end());

  // Cooling-budget crossover: total power vs temperature, interpolated at
  // the budget between the warmest fitting corner and the first corner
  // above it that exceeds the budget.
  std::map<double, double> by_temperature;  // T -> total W, worst per T
  for (const serve::SweepCornerResult& r : report.corners) {
    if (!r.ok || !r.power) continue;
    const auto [it, fresh] =
        by_temperature.try_emplace(r.corner.temperature, r.power->total());
    if (!fresh) it->second = std::max(it->second, r.power->total());
  }
  const std::vector<std::pair<double, double>> pw(by_temperature.begin(),
                                                  by_temperature.end());
  for (std::size_t i = 0; i + 1 < pw.size(); ++i) {
    const auto [t0, p0] = pw[i];
    const auto [t1, p1] = pw[i + 1];
    if (p0 <= cooling_budget_w && p1 > cooling_budget_w) {
      const double frac = (p1 == p0) ? 0.0 : (cooling_budget_w - p0) / (p1 - p0);
      report.cooling_crossover_k = t0 + frac * (t1 - t0);
      break;
    }
  }

  // Verdict: say WHY there is (or is not) a crossover. Silence used to
  // mean both "everything fits" and "even the coldest corner exceeds the
  // budget" — opposite feasibility conclusions behind one unset optional.
  if (report.cooling_crossover_k) {
    report.cooling_verdict = serve::CoolingVerdict::kCrossover;
  } else if (pw.empty()) {
    report.cooling_verdict = serve::CoolingVerdict::kNotEvaluated;
  } else {
    bool all_fit = true, all_exceed = true;
    for (const auto& [t, p] : pw) {
      (p <= cooling_budget_w ? all_exceed : all_fit) = false;
    }
    report.cooling_verdict =
        all_fit     ? serve::CoolingVerdict::kFitsEverywhere
        : all_exceed ? serve::CoolingVerdict::kInfeasibleEverywhere
                     : serve::CoolingVerdict::kNonMonotonic;
  }
}

}  // namespace

serve::SweepOutcome run_sweep(core::CryoSocFlow& flow,
                              const serve::SweepQuery& request) {
  if (request.corners.empty())
    throw std::invalid_argument("run_sweep: empty corner grid");
  OBS_SPAN("sweep.run");

  static obs::Counter& corners_total =
      obs::registry().counter("sweep.corners");
  static obs::Counter& failures = obs::registry().counter("sweep.failures");
  static obs::Histogram& corner_seconds =
      obs::registry().histogram("sweep.corner_seconds");

  // Build the shared lazy state serially so the fan-out does per-corner
  // work only. The SoC needs the full 300 K library; a leakage-only sweep
  // (e.g. with a reduced catalog) must not pull it in.
  if (request.run_timing || request.run_power ||
      request.run_feasibility) {
    flow.soc();
  } else {
    flow.nmos();
  }

  serve::SweepOutcome report;
  report.corners = exec::parallel_map<serve::SweepCornerResult>(
      request.corners.size(),
      [&](std::size_t i) {
        serve::SweepCornerResult r;
        r.corner = request.corners[i];
        OBS_SPAN("sweep.corner", r.corner.label());
        const double t0 = now_seconds();
        try {
          analyze_corner(flow, request, r);
        } catch (const core::FlowError& e) {
          r.ok = false;
          r.error_stage = e.stage();
          r.error = e.what();
        } catch (const std::exception& e) {
          r.ok = false;
          r.error_stage = "analysis";
          r.error = e.what();
        }
        r.seconds = now_seconds() - t0;
        corners_total.add(1);
        corner_seconds.observe(r.seconds);
        if (!r.ok) failures.add(1);
        return r;
      },
      request.threads);

  for (const serve::SweepCornerResult& r : report.corners)
    if (!r.ok) ++report.failed;
  derive_cross_corner(report, request.cooling_budget_w);
  return report;
}

obs::Json to_json(const serve::SweepOutcome& report) {
  obs::Json j = obs::Json::object();
  j["schema"] = "cryosoc-sweep-v1";
  j["corner_count"] = report.corners.size();
  j["failed"] = report.failed;

  obs::Json corners = obs::Json::array();
  for (const serve::SweepCornerResult& r : report.corners) {
    obs::Json c = obs::Json::object();
    c["name"] = r.corner.label();
    c["key"] = r.corner.key();
    c["vdd"] = r.corner.vdd;
    c["temperature_k"] = r.corner.temperature;
    c["ok"] = r.ok;
    if (!r.ok) {
      c["error_stage"] = r.error_stage;
      c["error"] = r.error;
    }
    if (r.timing) {
      obs::Json t = obs::Json::object();
      t["fmax_hz"] = r.timing->fmax;
      t["critical_delay_s"] = r.timing->critical_delay;
      t["critical_endpoint"] = r.timing->critical_endpoint;
      t["endpoint_count"] = r.timing->endpoint_count;
      c["timing"] = std::move(t);
    }
    if (r.power) {
      obs::Json p = obs::Json::object();
      p["dynamic_w"] = r.power->dynamic();
      p["leakage_w"] = r.power->leakage();
      p["total_w"] = r.power->total();
      c["power"] = std::move(p);
    }
    if (r.library_leakage_w > 0.0)
      c["library_leakage_w"] = r.library_leakage_w;
    if (r.fits_cooling_budget)
      c["fits_cooling_budget"] = *r.fits_cooling_budget;
    if (r.meets_deadline) c["meets_deadline"] = *r.meets_deadline;
    c["seconds"] = r.seconds;
    corners.push_back(std::move(c));
  }
  j["corners"] = std::move(corners);

  if (report.worst_corner) {
    obs::Json w = obs::Json::object();
    w["index"] = *report.worst_corner;
    w["name"] = report.corners[*report.worst_corner].corner.label();
    j["worst_corner"] = std::move(w);
  }
  if (!report.fmax_vs_temperature.empty()) {
    obs::Json curve = obs::Json::array();
    for (const auto& [t, f] : report.fmax_vs_temperature) {
      obs::Json pt = obs::Json::object();
      pt["temperature_k"] = t;
      pt["fmax_hz"] = f;
      curve.push_back(std::move(pt));
    }
    j["fmax_vs_temperature"] = std::move(curve);
  }
  if (report.cooling_crossover_k)
    j["cooling_crossover_k"] = *report.cooling_crossover_k;
  j["cooling_verdict"] = serve::cooling_verdict_name(report.cooling_verdict);
  return j;
}

}  // namespace cryo::sweep
