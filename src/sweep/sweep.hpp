// cryo::sweep — parallel multi-corner analysis engine.
//
// The paper compares one SoC across operating corners (300 K vs 10 K,
// Tables 1-3; VDD scaling in the power study); production signoff does the
// same over V/T grids with dozens of corners. run_sweep() takes a corner
// grid plus a serve::SweepQuery naming the analyses to run (timing, power,
// library leakage, workload feasibility) and fans the corners out over the
// cryo::exec scheduler. Each corner resolves its Liberty artifact through
// the flow's fingerprinted store and LRU corner cache, so a grid
// characterizes every corner exactly once ever — in parallel on a cold
// store, from disk afterwards.
//
// The request/result types are the public serve API's
// (serve/request.hpp): serve::SweepQuery, SweepCornerResult and
// SweepOutcome, so a sweep built here is the same object a
// serve::FlowRequest{kSweep} carries over the wire.
//
// Failure isolation: a corner that fails (core::FlowError from artifact
// resolution, a quarantined characterization, an analysis throw) is
// recorded as a per-corner error in the SweepOutcome; sibling corners are
// unaffected. The sweep itself only throws on programmer error (empty
// grid).
//
// Determinism: results are index-addressed per corner (exec::parallel_map)
// and every analysis is deterministic, so a sweep's reports are
// byte-identical to running the same corners sequentially, at any
// CRYOSOC_THREADS.
//
// Observability: sweep.corners / sweep.failures counters, the
// sweep.corner_seconds histogram, and the flow's
// sweep.corner_cache.{hit,miss,evict} instruments. to_json() renders the
// whole report as one `cryosoc-sweep-v1` document for obs::BenchReport.
#pragma once

#include "core/flow.hpp"
#include "obs/report.hpp"
#include "serve/request.hpp"

namespace cryo::sweep {

// Runs every corner of the request through `flow`, fanning out over the
// exec scheduler. Shared lazy state (devices, the synthesized SoC) is
// built once up front, so workers only do per-corner work.
serve::SweepOutcome run_sweep(core::CryoSocFlow& flow,
                              const serve::SweepQuery& request);

// Renders the report as one `cryosoc-sweep-v1` JSON document (embed it in
// an obs::BenchReport under results()["sweep"]).
obs::Json to_json(const serve::SweepOutcome& report);

}  // namespace cryo::sweep
