#include "synth/synth.hpp"

#include <algorithm>
#include <cmath>
#include <cctype>
#include <map>
#include <stdexcept>

namespace cryo::synth {
namespace {

// Splits a full cell name into (base+flavor key, drive).
struct CellKey {
  std::string base;
  bool slvt = false;
  int drive = 1;
};

CellKey key_of(const std::string& cell_name) {
  CellKey key;
  std::string working = cell_name;
  if (working.size() > 5 && working.substr(working.size() - 5) == "_SLVT") {
    key.slvt = true;
    working = working.substr(0, working.size() - 5);
  }
  const auto xpos = working.rfind("_X");
  if (xpos == std::string::npos) {
    key.base = working;
    return key;
  }
  key.base = working.substr(0, xpos);
  key.drive = std::stoi(working.substr(xpos + 2));
  return key;
}

std::string name_of(const CellKey& key) {
  return key.base + "_X" + std::to_string(key.drive) +
         (key.slvt ? "_SLVT" : "");
}

// Variants of a base function available in the library, sorted by drive.
std::vector<int> available_drives(const charlib::Library& lib,
                                  const std::string& base, bool slvt) {
  std::vector<int> drives;
  for (const auto& cell : lib.cells) {
    const CellKey k = key_of(cell.def.name);
    if (k.base == base && k.slvt == slvt) drives.push_back(k.drive);
  }
  std::sort(drives.begin(), drives.end());
  drives.erase(std::unique(drives.begin(), drives.end()), drives.end());
  return drives;
}

// Per-net sink bookkeeping for the two passes.
struct NetUse {
  std::vector<std::pair<std::size_t, std::string>> sinks;  // (gate, pin)
  double pin_cap = 0.0;
  bool macro_or_po = false;
};

std::vector<NetUse> collect_uses(const netlist::Netlist& nl,
                                 const charlib::CellIndex& cells) {
  std::vector<NetUse> uses(nl.net_count());
  for (std::size_t gi = 0; gi < nl.gates().size(); ++gi) {
    const auto& gate = nl.gates()[gi];
    const auto& cell = cells.at(gate.cell);
    for (const auto& [pin, net] : gate.conns) {
      bool is_output = false;
      for (const auto& out : cell.def.outputs) is_output |= (out.name == pin);
      if (is_output) continue;
      auto& use = uses[static_cast<std::size_t>(net)];
      use.sinks.emplace_back(gi, pin);
      use.pin_cap += cell.pin_cap(pin);
    }
  }
  for (const auto& m : nl.srams()) {
    auto mark = [&](netlist::NetId n) {
      if (n == netlist::kNoNet) return;
      auto& use = uses[static_cast<std::size_t>(n)];
      use.macro_or_po = true;
      use.pin_cap += 1.5e-15;
    };
    for (auto n : m.address) mark(n);
    for (auto n : m.data_in) mark(n);
    mark(m.write_enable);
  }
  for (auto n : nl.outputs()) {
    uses[static_cast<std::size_t>(n)].macro_or_po = true;
    uses[static_cast<std::size_t>(n)].pin_cap += 2e-15;
  }
  return uses;
}

std::size_t buffer_fanout(netlist::Netlist& nl,
                          const charlib::CellIndex& cells,
                          const SynthOptions& opt) {
  std::size_t inserted = 0;
  // Iterate to a fixed point: buffer outputs can themselves exceed the
  // limit when fanout is huge.
  for (int round = 0; round < 8; ++round) {
    const auto uses = collect_uses(nl, cells);
    bool changed = false;
    const std::size_t net_count = nl.net_count();
    for (std::size_t n = 0; n < net_count; ++n) {
      if (static_cast<netlist::NetId>(n) == nl.clock()) continue;
      const auto& use = uses[n];
      if (use.sinks.size() <= static_cast<std::size_t>(opt.max_fanout))
        continue;
      // Split the gate sinks into groups behind buffers. Macro/PO sinks
      // stay on the original net.
      const std::size_t groups =
          (use.sinks.size() + opt.max_fanout - 1) /
          static_cast<std::size_t>(opt.max_fanout);
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t lo = g * static_cast<std::size_t>(opt.max_fanout);
        const std::size_t hi = std::min(
            lo + static_cast<std::size_t>(opt.max_fanout), use.sinks.size());
        const netlist::NetId buffered = nl.add_net(
            nl.net_name(static_cast<netlist::NetId>(n)) + "$buf" +
            std::to_string(inserted));
        nl.add_gate("fobuf$" + std::to_string(inserted),
                    opt.buffer_base + "_X4",
                    {{"A", static_cast<netlist::NetId>(n)}, {"Y", buffered}});
        ++inserted;
        for (std::size_t s = lo; s < hi; ++s) {
          auto& gate = nl.gates()[use.sinks[s].first];
          for (auto& [pin, net] : gate.conns)
            if (pin == use.sinks[s].second &&
                net == static_cast<netlist::NetId>(n))
              net = buffered;
        }
      }
      changed = true;
    }
    if (!changed) break;
  }
  return inserted;
}

std::size_t size_gates(netlist::Netlist& nl, const charlib::Library& lib,
                       const charlib::CellIndex& cells,
                       const SynthOptions& opt) {
  std::size_t resized_total = 0;
  // Cache available drives per (base, flavor).
  std::map<std::pair<std::string, bool>, std::vector<int>> drive_cache;
  auto drives_for = [&](const CellKey& key) -> const std::vector<int>& {
    auto it = drive_cache.find({key.base, key.slvt});
    if (it == drive_cache.end())
      it = drive_cache
               .emplace(std::make_pair(key.base, key.slvt),
                        available_drives(lib, key.base, key.slvt))
               .first;
    return it->second;
  };

  for (int iter = 0; iter < opt.sizing_iterations; ++iter) {
    const auto uses = collect_uses(nl, cells);
    std::size_t resized = 0;
    for (auto& gate : nl.gates()) {
      CellKey key = key_of(gate.cell);
      const auto& drives = drives_for(key);
      if (drives.size() < 2) continue;
      // Output load of the (single) output pin.
      const auto& cell = cells.at(gate.cell);
      netlist::NetId out_net = netlist::kNoNet;
      for (const auto& out : cell.def.outputs) {
        const netlist::NetId n = gate.pin(out.name);
        if (n != netlist::kNoNet) out_net = n;
      }
      if (out_net == netlist::kNoNet) continue;
      const auto& use = uses[static_cast<std::size_t>(out_net)];
      const double load =
          use.pin_cap +
          opt.wire_cap_per_fanout *
              static_cast<double>(use.sinks.size() + (use.macro_or_po ? 1 : 0));
      // Pick the drive with the best delay*sqrt(drive) figure: the sqrt
      // term charges bigger cells for their own input load so upstream
      // stages are not blindly penalized.
      int best_drive = key.drive;
      double best_score = 1e30;
      for (int d : drives) {
        CellKey trial = key;
        trial.drive = d;
        const auto& cand = cells.at(name_of(trial));
        const double delay = cand.worst_delay(opt.reference_slew, load);
        const double score = delay * std::sqrt(static_cast<double>(d));
        if (score < best_score) {
          best_score = score;
          best_drive = d;
        }
      }
      if (best_drive != key.drive) {
        key.drive = best_drive;
        gate.cell = name_of(key);
        ++resized;
      }
    }
    resized_total += resized;
    if (resized == 0) break;
  }
  return resized_total;
}

}  // namespace

SynthReport optimize(netlist::Netlist& nl, const charlib::Library& library,
                     const SynthOptions& options) {
  SynthReport report;
  const charlib::CellIndex cells(library);
  report.buffers_inserted = buffer_fanout(nl, cells, options);
  report.gates_resized = size_gates(nl, library, cells, options);
  report.gates_total = nl.gates().size();
  return report;
}

// --- Boolean expression mapping -----------------------------------------

namespace {

struct ExprParser {
  netlist::Netlist& nl;
  const std::string& text;
  const std::string& hint;
  int drive;
  std::size_t pos = 0;
  int counter = 0;

  void skip() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }
  bool eat(char c) {
    skip();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  netlist::NetId fresh() {
    return nl.add_net(hint + "$e" + std::to_string(counter++));
  }
  netlist::NetId emit(const std::string& base,
                      std::vector<std::pair<std::string, netlist::NetId>>
                          conns) {
    const netlist::NetId y = fresh();
    conns.emplace_back("Y", y);
    nl.add_gate(hint + "$x" + std::to_string(counter++),
                base + "_X" + std::to_string(drive), std::move(conns));
    return y;
  }

  netlist::NetId parse_expr() {
    netlist::NetId lhs = parse_term();
    while (eat('|'))
      lhs = emit("OR2", {{"A", lhs}, {"B", parse_term()}});
    return lhs;
  }
  netlist::NetId parse_term() {
    netlist::NetId lhs = parse_factor();
    while (eat('&'))
      lhs = emit("AND2", {{"A", lhs}, {"B", parse_factor()}});
    return lhs;
  }
  netlist::NetId parse_factor() {
    skip();
    if (eat('!')) return emit("INV", {{"A", parse_factor()}});
    if (eat('(')) {
      const netlist::NetId inner = parse_expr();
      if (!eat(')'))
        throw std::invalid_argument("map_expression: missing ')'");
      return inner;
    }
    std::string name;
    while (pos < text.size() &&
           (std::isalnum(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '_' || text[pos] == '[' || text[pos] == ']')) {
      name += text[pos++];
    }
    if (name.empty())
      throw std::invalid_argument("map_expression: expected identifier at " +
                                  std::to_string(pos));
    return nl.add_net(name);
  }
};

}  // namespace

netlist::NetId map_expression(netlist::Netlist& nl, const std::string& expr,
                              const std::string& hint, int drive) {
  ExprParser parser{nl, expr, hint, drive};
  const netlist::NetId out = parser.parse_expr();
  parser.skip();
  if (parser.pos != expr.size())
    throw std::invalid_argument("map_expression: trailing input in " + expr);
  return out;
}

}  // namespace cryo::synth
