// Synthesis-lite: the netlist optimization passes a commercial synthesis
// tool would apply after technology mapping.
//
//   * fanout buffering: nets driving more than `max_fanout` sinks get a
//     buffer tree (the clock is treated as ideal and skipped),
//   * load-driven gate sizing: every gate is re-assigned the drive
//     strength that minimizes its table delay under its actual output
//     load, iterated because sizing changes input pin caps upstream.
//
// Also provides a small boolean-expression to gate mapper used to build
// random-logic blocks from readable equations.
#pragma once

#include <string>

#include "charlib/library.hpp"
#include "netlist/netlist.hpp"

namespace cryo::synth {

struct SynthOptions {
  int max_fanout = 10;
  int sizing_iterations = 3;
  double wire_cap_per_fanout = 1.2e-15;  // must match STA's wire model [F]
  double reference_slew = 10e-12;        // slew used in sizing lookups [s]
  std::string buffer_base = "BUF";
};

struct SynthReport {
  std::size_t buffers_inserted = 0;
  std::size_t gates_resized = 0;
  std::size_t gates_total = 0;
};

// Runs both passes in place; returns what changed. Each call resolves the
// library once: every cell's family of drive variants (same base and
// flavor, sorted by drive) and every gate's cell become indices, and each
// net's sinks are (gate, conn) pairs. Cell delays at the reference slew
// are remembered per (cell, exact load): worst_delay is a pure function,
// so the netlist comes out as if each had been computed afresh. Throws
// std::invalid_argument when options.max_fanout is below 1.
SynthReport optimize(netlist::Netlist& nl, const charlib::Library& library,
                     const SynthOptions& options = {});

// --- Boolean expression mapping -----------------------------------------
// Grammar: expr := term ('|' term)*; term := factor ('&' factor)*;
// factor := '!' factor | '(' expr ')' | identifier.
// Maps onto the library's NAND/NOR/INV/AND/OR cells; identifiers are nets
// in `nl` (created if missing). Returns the output net.
netlist::NetId map_expression(netlist::Netlist& nl, const std::string& expr,
                              const std::string& hint, int drive = 1);

}  // namespace cryo::synth
