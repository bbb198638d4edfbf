// Shared helpers for the reproduction benches: each bench binary
// regenerates one table or figure of the paper and prints it in a form
// directly comparable with the original (EXPERIMENTS.md records the
// side-by-side numbers).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/flow.hpp"
#include "exec/exec.hpp"
#include "obs/report.hpp"

namespace cryo::bench {

inline void header(const std::string& what, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

// Quick mode, for CI smoke runs: CRYOSOC_BENCH_QUICK set to anything but
// empty or "0" selects each bench's small catalog / short window.
inline bool quick() {
  static const bool on = [] {
    const char* v = std::getenv("CRYOSOC_BENCH_QUICK");
    return v && *v && *v != '0';
  }();
  return on;
}

// Standardized machine-readable output: every bench writes
// bench-out/BENCH_<name>.json (schema cryosoc-bench-v1) on exit. Record
// headline numbers into `report.results()` as they are printed.
inline obs::BenchReport make_report(const std::string& name) {
  obs::BenchReport report(name);
  report.set_threads(exec::thread_count());
  return report;
}

// Shared flow instance (loads the committed Liberty artifacts; golden
// modelcards — calibration quality is covered by bench_fig3).
inline core::CryoSocFlow& flow() {
  static core::CryoSocFlow f = [] {
    core::FlowConfig config;
    config.calibrate_devices = false;
    return core::CryoSocFlow(config);
  }();
  return f;
}

}  // namespace cryo::bench
