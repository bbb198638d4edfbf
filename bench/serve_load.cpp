// serve_load: open-loop load generator for the FlowService / cryosocd
// serving path.
//
// Two phases against one long-running FlowService:
//
//   phase A (cold storm): N identical requests for one uncached corner
//     submitted concurrently while the workers are gated. Exactly one
//     characterization may run; the rest must coalesce onto it
//     (serve.coalesced == N-1, charlib.runs == 1).
//
//   phase B (warm open-loop): a mixed-kind request stream submitted at a
//     fixed arrival rate without waiting for responses (open loop: the
//     generator never slows down to match the server, so queueing is
//     real). Every corner was pre-warmed, so the phase must finish with
//     zero characterizations; throughput and per-kind p50/p95/p99 come
//     from the serve.latency.<kind> histograms.
//
// Only ok responses count as completed; both phases record the failed
// ones and gate them at zero. The exit status is nonzero if any gate
// fails.
//
// Quick mode (CRYOSOC_BENCH_QUICK=1): tiny INV+NAND2 catalog in a scratch
// store and the SoC-free kinds (leakage / sram / sweep), for CI smoke.
// Full mode uses the committed artifacts and adds timing + power queries.
// Output: bench-out/BENCH_serve_load.json (cryosoc-bench-v1).
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace {

using namespace cryo;

std::uint64_t counter(const char* name) {
  return obs::registry().counter(name).value();
}

core::CryoSocFlow make_flow(bool quick) {
  core::FlowConfig config;
  config.calibrate_devices = false;
  if (quick) {
    config.catalog.only_bases = {"INV", "NAND2"};
    config.catalog.drives = {1};
    config.catalog.extra_drives_common = {};
    config.catalog.include_slvt = false;
    config.lib_dir = obs::BenchReport::output_dir() + "/serve-lib-quick";
    // Start from an empty store so the storm corner is cold on every run.
    std::error_code ec;
    std::filesystem::remove_all(config.lib_dir, ec);
  }
  return core::CryoSocFlow(config);
}

// The warm-phase request mix, cycled round-robin by the generator.
std::vector<serve::FlowRequest> make_mix(bool quick) {
  const core::Corner c300{0.7, 300.0, "300k"};
  const core::Corner c10{0.7, 10.0, "10k"};
  std::vector<serve::FlowRequest> mix;
  mix.push_back(serve::leakage_request(c300));
  mix.push_back(serve::leakage_request(c10));
  mix.push_back(serve::sram_request(c300, {512, 64}));
  mix.push_back(serve::sram_request(c10, {512, 64}));
  serve::SweepQuery sweep;
  sweep.corners = {c300, c10};
  sweep.run_timing = false;
  sweep.run_leakage = true;
  sweep.threads = 1;  // no nested fan-out under the service workers
  mix.push_back(serve::sweep_request(sweep));
  if (!quick) {
    mix.push_back(serve::timing_request(c300));
    mix.push_back(serve::timing_request(c10));
    power::ActivityProfile profile;
    profile.clock_frequency = 0.0;  // per-corner fmax
    profile.default_activity = 0.1;
    mix.push_back(serve::power_request(c300, profile));
  }
  return mix;
}

}  // namespace

int main() {
  const bool quick = bench::quick();
  bench::header("serve_load: open-loop load on the FlowService corner server",
                "flow-as-a-service: coalescing + tail latency under load");
  auto report = bench::make_report("serve_load");
  report.results()["quick"] = quick;

  core::CryoSocFlow flow = make_flow(quick);
  serve::ServiceConfig service_config;
  service_config.workers = 4;
  service_config.queue_capacity = 4096;

  // ---- phase A: cold-corner storm ---------------------------------------
  obs::registry().reset();
  const std::size_t storm_n = 32;
  // Quick mode characterizes the tiny catalog at an off-grid corner in an
  // emptied scratch store (always cold); full mode storms 77 K,
  // characterizing the full catalog once ever (the artifact persists
  // across runs, so only the first full run pays it — still exactly one
  // charlib run in-process when cold, zero when the artifact exists).
  const core::Corner storm_corner =
      quick ? core::Corner{0.7, 150.0, ""} : flow.corner(77.0);
  {
    std::promise<void> all_submitted;
    std::shared_future<void> gate = all_submitted.get_future().share();
    serve::ServiceConfig storm_config = service_config;
    storm_config.before_execute = [gate](const serve::FlowRequest&) {
      gate.wait();
    };
    serve::FlowService service(flow, storm_config);
    std::vector<std::shared_future<serve::FlowResponse>> futures;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < storm_n; ++i)
      futures.push_back(service.submit(serve::leakage_request(
          storm_corner, "storm-" + std::to_string(i))));
    all_submitted.set_value();
    std::size_t failed = 0;
    for (auto& f : futures) {
      if (f.get().ok) continue;
      ++failed;
      std::fprintf(stderr, "storm response failed: %s\n",
                   f.get().error.c_str());
    }
    const double storm_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();

    report.results()["storm"]["requests"] = storm_n;
    report.results()["storm"]["executed"] = counter("serve.executed");
    report.results()["storm"]["coalesced"] = counter("serve.coalesced");
    report.results()["storm"]["characterizations"] = counter("charlib.runs");
    report.results()["storm"]["failed"] = failed;
    report.results()["storm"]["seconds"] = storm_s;
    std::printf("\nstorm: %zu requests -> %llu executed, %llu coalesced, "
                "%llu characterization(s) in %.3fs\n",
                storm_n,
                static_cast<unsigned long long>(counter("serve.executed")),
                static_cast<unsigned long long>(counter("serve.coalesced")),
                static_cast<unsigned long long>(counter("charlib.runs")),
                storm_s);
    // 32 requests: one execution and 31 joiners. The quick store is always
    // cold, so exactly one characterization; a full run characterizes
    // only if the 77 K artifact does not exist yet.
    report.gate("storm.executed", counter("serve.executed"), "==", 1);
    report.gate("storm.coalesced", counter("serve.coalesced"), "==", 31);
    report.gate("storm.characterizations", counter("charlib.runs"),
                quick ? "==" : "<=", 1);
    report.gate("storm.failed", failed, "==", 0);
  }

  // ---- phase B: warm open-loop mix --------------------------------------
  const std::vector<serve::FlowRequest> mix = make_mix(quick);
  {
    // Pre-warm every corner the mix touches (and the SoC in full mode) so
    // the measured phase serves entirely from the caches.
    for (const serve::FlowRequest& request : mix) {
      const serve::FlowResponse r = serve::execute(flow, request);
      if (!r.ok)
        std::fprintf(stderr, "warmup failed (%s): %s\n",
                     serve::kind_name(request.kind), r.error.c_str());
    }
  }
  obs::registry().reset();

  const std::size_t warm_n = quick ? 200 : 60;
  const double rate_rps = quick ? 2000.0 : 50.0;
  serve::FlowService service(flow, service_config);
  std::vector<std::shared_future<serve::FlowResponse>> futures;
  futures.reserve(warm_n);
  std::uint64_t rejected = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < warm_n; ++i) {
    // Open loop: arrivals follow the schedule, not the service.
    const auto arrival =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(static_cast<double>(i) /
                                               rate_rps));
    std::this_thread::sleep_until(arrival);
    try {
      futures.push_back(service.submit(mix[i % mix.size()]));
    } catch (const core::FlowError&) {
      ++rejected;  // backpressure is a measured outcome, not a crash
    }
  }
  std::size_t completed = 0;
  for (auto& f : futures) {
    if (f.get().ok)
      ++completed;
    else
      std::fprintf(stderr, "warm response failed: %s\n", f.get().error.c_str());
  }
  const std::size_t failed = futures.size() - completed;
  const double warm_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  const double throughput =
      static_cast<double>(completed) / (warm_s > 0.0 ? warm_s : 1.0);
  report.results()["warm"]["requests"] = warm_n;
  report.results()["warm"]["completed"] = completed;
  report.results()["warm"]["failed"] = failed;
  report.results()["warm"]["rejected"] = rejected;
  report.results()["warm"]["seconds"] = warm_s;
  report.results()["warm"]["throughput_rps"] = throughput;
  report.results()["warm"]["characterizations"] = counter("charlib.runs");
  report.results()["warm"]["coalesced"] = counter("serve.coalesced");

  std::printf("warm: %zu completed, %zu failed in %.3fs (%.0f req/s), "
              "%llu characterization(s), %llu coalesced, %llu rejected\n",
              completed, failed, warm_s, throughput,
              static_cast<unsigned long long>(counter("charlib.runs")),
              static_cast<unsigned long long>(counter("serve.coalesced")),
              static_cast<unsigned long long>(rejected));
  report.gate("warm.characterizations", counter("charlib.runs"), "==", 0);
  report.gate("warm.failed", failed, "==", 0);
  // Nothing may be lost: every request completes or is a counted rejection.
  report.gate("warm.completed_plus_rejected", completed + rejected, "==",
              warm_n);
  report.gate("warm.completed", completed, ">", 0);
  report.gate("warm.throughput_rps", throughput, ">", 0);

  std::printf("\n%-14s %8s %10s %10s %10s\n", "kind", "count", "p50_ms",
              "p95_ms", "p99_ms");
  std::size_t kinds = 0;
  std::uint64_t executions = 0;
  for (const serve::QueryKind kind : serve::kAllQueryKinds) {
    const std::string name = serve::kind_name(kind);
    obs::Histogram& h = obs::registry().histogram("serve.latency." + name);
    if (h.count() == 0) continue;
    ++kinds;
    executions += h.count();
    const std::pair<const char*, double> quantiles[] = {
        {"p50_s", h.quantile(0.5)},
        {"p95_s", h.quantile(0.95)},
        {"p99_s", h.quantile(0.99)},
        {"max_s", h.max_value()}};
    std::printf("%-14s %8llu %10.4f %10.4f %10.4f\n", name.c_str(),
                static_cast<unsigned long long>(h.count()),
                quantiles[0].second * 1e3, quantiles[1].second * 1e3,
                quantiles[2].second * 1e3);
    auto& row = report.results()["warm"]["kinds"][name];
    row["count"] = h.count();
    // Tail latency is finite (the histogram clamps quantiles to the
    // tracked max) and ordered: 0 <= p50 <= p95 <= p99 <= max.
    double below = 0.0;
    for (const auto& [q, seconds] : quantiles) {
      row[q] = seconds;
      report.gate("warm." + name + "." + q, seconds, ">=", below);
      below = seconds;
    }
  }
  report.gate("warm.kinds", kinds, ">", 0);
  // Joiners share an execution, so executions plus coalesced joins
  // account for every completed request.
  report.gate("warm.executions_plus_coalesced",
              executions + counter("serve.coalesced"), "==", completed);
  report.write();
  return report.exit_code();
}
