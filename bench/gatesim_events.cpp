// Event-driven gate simulation bench: throughput of the calendar-queue
// simulator on the full SoC and the power delta between measured per-net
// activity (the paper's Voltus-style flow, Sec. VI-B) and the uniform
// per-unit activity profile. The paper rejects blanket statistical
// activity factors for power signoff; this bench quantifies how much the
// measured workload actually moves the dynamic number at both corners.
//
// Gates: two extractions of the same deck fingerprint identically, the
// event throughput stays above a floor, and both power numbers are
// positive at both corners; the exit status is nonzero if any fails.
// CRYOSOC_BENCH_QUICK=1 shrinks the simulated window for CI smoke runs.
#include <chrono>
#include <cstdio>

#include "bench_util.hpp"
#include "gatesim/activity.hpp"
#include "obs/metrics.hpp"
#include "riscv/workloads.hpp"

int main() {
  using namespace cryo;
  bench::header("gatesim_events: event-driven simulation & measured power",
                "paper Sec. VI-B (measured switching activity)");
  auto report = bench::make_report("gatesim_events");
  const bool quick = bench::quick();
  const std::size_t window = quick ? 150 : 1500;

  // ISS retire trace for the Dhrystone-like general-average workload.
  std::vector<riscv::TraceEntry> trace;
  riscv::Cpu cpu(bench::flow().config().cpu);
  cpu.set_trace(&trace);
  const auto program = riscv::dhrystone_like(quick ? 2 : 20);
  cpu.load_program(program);
  cpu.run(program.base, 200'000);
  const auto& perf = cpu.perf();
  std::printf("\nworkload: dhrystone-like, %zu retired instructions, "
              "IPC %.2f\n", trace.size(), perf.ipc());

  const auto& soc = bench::flow().soc();
  const auto corner300 = bench::flow().corner(300.0);
  const auto lib300 = bench::flow().library(corner300);
  const double f = bench::flow().timing(bench::flow().corner(10.0)).fmax;
  const auto deck = gatesim::make_soc_deck(soc, trace, window);

  // -- Throughput + determinism: two independent runs of the same deck --
  const auto run_once = [&] {
    gatesim::ActivityExtractor extractor(soc, *lib300);
    const auto t0 = std::chrono::steady_clock::now();
    auto act = extractor.extract(deck, f);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    return std::make_pair(std::move(act), secs);
  };
  auto [act, secs] = run_once();
  const auto [act2, secs2] = run_once();
  const bool deterministic = act.fingerprint() == act2.fingerprint();
  const double events_per_sec =
      secs > 0 ? static_cast<double>(act.events) / secs : 0.0;
  std::printf("\nsimulated %llu cycles: %llu events, %llu glitches "
              "cancelled\n",
              static_cast<unsigned long long>(act.cycles),
              static_cast<unsigned long long>(act.events),
              static_cast<unsigned long long>(act.glitches));
  std::printf("throughput: %.0f events/s (%.2f s wall)\n", events_per_sec,
              secs);
  std::printf("determinism: %s (fingerprints %s)\n",
              deterministic ? "byte-identical" : "DIVERGED",
              deterministic ? "match" : "differ");
  report.results()["window_cycles"] = act.cycles;
  report.results()["events"] = act.events;
  report.results()["glitches_cancelled"] = act.glitches;
  report.results()["events_per_sec"] = events_per_sec;
  report.results()["deterministic"] = deterministic;
  report.results()["quick"] = quick;
  report.gate("deterministic", deterministic, "==", 1);
  report.gate("events", act.events, ">", 0);
  report.gate("window_cycles", act.cycles, ">", 0);
  // Quick runs measure ~1.5M events/s on a 4-vCPU host; the floor leaves
  // a wide margin for runner noise and still catches an O(n^2) queue
  // regression.
  report.gate("events_per_sec", events_per_sec, ">=", 20000);

  // -- Measured vs uniform dynamic power at both corners ----------------
  const auto profile = bench::flow().activity_from_perf(perf, f);
  std::printf("\n%-8s %16s %16s %12s %10s\n", "T", "uniform dyn",
              "measured dyn", "glitch", "delta");
  for (double t : {300.0, 10.0}) {
    const auto corner = bench::flow().corner(t);
    const auto uniform = bench::flow().workload_power(corner, profile);
    const auto measured = bench::flow().measured_power(corner, act);
    const double delta =
        uniform.dynamic() > 0
            ? 100.0 * (measured.dynamic() - uniform.dynamic()) /
                  uniform.dynamic()
            : 0.0;
    std::printf("%-8.0f %13.2f mW %13.2f mW %9.3f mW %8.1f %%\n", t,
                uniform.dynamic() * 1e3, measured.dynamic() * 1e3,
                measured.dynamic_glitch * 1e3, delta);
    const std::string name = t > 100 ? "power_300k" : "power_10k";
    auto& r = report.results()[name];
    r["dynamic_uniform_mw"] = uniform.dynamic() * 1e3;
    r["dynamic_measured_mw"] = measured.dynamic() * 1e3;
    r["dynamic_glitch_mw"] = measured.dynamic_glitch * 1e3;
    r["delta_percent"] = delta;
    report.gate(name + ".dynamic_measured_mw", measured.dynamic() * 1e3, ">",
                0);
    report.gate(name + ".dynamic_uniform_mw", uniform.dynamic() * 1e3, ">",
                0);
  }
  std::printf("\nmeasured activity replaces the uniform per-unit toggle\n"
              "factors with per-net rates from the simulated instruction\n"
              "stream; the glitch column is inertially cancelled pulses\n"
              "booked at half-swing energy.\n");

  // The registry's final totals must have seen both extractions (the
  // construction-time settles may cancel more glitches).
  report.gate("counters.gatesim.events",
              obs::registry().counter("gatesim.events").value(), ">", 0);
  report.gate("counters.gatesim.glitches_cancelled",
              obs::registry().counter("gatesim.glitches_cancelled").value(),
              ">=", act.glitches + act2.glitches);
  return report.exit_code();
}
