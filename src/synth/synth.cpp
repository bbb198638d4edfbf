#include "synth/synth.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <unordered_map>

namespace cryo::synth {
namespace {

// A cell name's place in its family: (base, flavor) plus drive.
struct CellKey {
  std::string_view base;
  bool slvt = false;
  int drive = 1;
};

CellKey key_of(std::string_view name) {
  CellKey key;
  if (name.size() > 5 && name.substr(name.size() - 5) == "_SLVT") {
    key.slvt = true;
    name.remove_suffix(5);
  }
  const auto xpos = name.rfind("_X");
  key.base = name.substr(0, xpos);
  if (xpos == std::string_view::npos) return key;
  const std::string_view digits = name.substr(xpos + 2);
  if (std::from_chars(digits.data(), digits.data() + digits.size(), key.drive)
          .ec != std::errc())
    throw std::invalid_argument("synth: no drive in cell name " +
                                std::string(name));
  return key;
}

// The library resolved once per optimize() call. Cells are indices into
// library.cells; gates resolve by name exactly as CellIndex does. Each
// cell knows its family: the (base, flavor)'s variants sorted by drive,
// the first cell of each drive kept. Cell names are make_cell's canonical
// BASE_X<drive>[_SLVT], so a variant's key and its name determine each
// other.
class ResolvedCells {
 public:
  struct Variant {
    int drive;
    std::uint32_t cell;
  };

  ResolvedCells(const charlib::Library& library, double reference_slew)
      : library_(library), index_(library), slew_(reference_slew) {
    const std::size_t n = library.cells.size();
    drive_.resize(n);
    family_.resize(n);
    std::map<std::pair<std::string_view, bool>, std::size_t> families;
    for (std::size_t c = 0; c < n; ++c) {
      const CellKey key = key_of(library.cells[c].def.name);
      drive_[c] = key.drive;
      const auto [it, fresh] = families.emplace(
          std::make_pair(key.base, key.slvt), variants_.size());
      if (fresh) variants_.emplace_back();
      family_[c] = it->second;
      auto& variants = variants_[it->second];
      const auto pos = std::lower_bound(
          variants.begin(), variants.end(), key.drive,
          [](const Variant& v, int d) { return v.drive < d; });
      if (pos == variants.end() || pos->drive != key.drive)
        variants.insert(pos, {key.drive, static_cast<std::uint32_t>(c)});
    }
  }

  // Throws std::out_of_range for a name the library does not have.
  std::uint32_t id(const std::string& name) const {
    return static_cast<std::uint32_t>(&index_.at(name) -
                                      library_.cells.data());
  }
  const charlib::CellChar& cell(std::uint32_t c) const {
    return library_.cells[c];
  }
  int drive(std::uint32_t c) const { return drive_[c]; }
  const std::vector<Variant>& variants(std::uint32_t c) const {
    return variants_[family_[c]];
  }

  // worst_delay at the reference slew: a pure function of (cell, load),
  // so a remembered value is the value.
  double worst_delay(std::uint32_t c, double load) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &load, sizeof bits);
    const auto [it, fresh] = delays_.try_emplace({c, bits}, 0.0);
    if (fresh) it->second = library_.cells[c].worst_delay(slew_, load);
    return it->second;
  }

 private:
  struct DelayKey {
    std::uint32_t cell;
    std::uint64_t load_bits;
    bool operator==(const DelayKey&) const = default;
  };
  struct DelayKeyHash {
    std::size_t operator()(const DelayKey& k) const {
      return std::hash<std::uint64_t>()(k.load_bits ^
                                        (std::uint64_t{k.cell} << 52));
    }
  };

  const charlib::Library& library_;
  const charlib::CellIndex index_;
  const double slew_;
  std::vector<int> drive_;
  std::vector<std::size_t> family_;
  std::vector<std::vector<Variant>> variants_;
  std::unordered_map<DelayKey, double, DelayKeyHash> delays_;
};

// The netlist's gates bound to resolved cells, and per net what its sinks
// load it with. Both passes read the loads; buffering also reads each
// net's sinks as (gate, conn index) pairs.
class Binding {
 public:
  Binding(netlist::Netlist& nl, ResolvedCells& cells)
      : nl_(nl), cells_(cells) {
    for (std::size_t g = 0; g < nl.gates().size(); ++g)
      add(cells.id(nl.gates()[g].cell));
  }

  std::uint32_t cell(std::size_t g) const { return cell_[g]; }
  netlist::NetId out_net(std::size_t g) const { return out_net_[g]; }

  // Binds the netlist's last gate, just added, to `cell`.
  void add(std::uint32_t cell) {
    cell_.push_back(cell);
    out_net_.push_back(netlist::kNoNet);
    conn_begin_.push_back(pin_.size());
    pin_.resize(pin_.size() + nl_.gates()[cell_.size() - 1].conns.size());
    bind(cell_.size() - 1);
  }

  // Moves gate g to another variant of its cell.
  void resize(std::size_t g, std::uint32_t cell) {
    cell_[g] = cell;
    nl_.gates()[g].cell = cells_.cell(cell).def.name;
    bind(g);
  }

  // Recounts every net's sink pin caps and sinks (and, with `sinks`, lists
  // them), in gate and conn order, then the macro and output loads.
  void collect(bool sinks) {
    const std::size_t nets = nl_.net_count();
    pin_cap_.assign(nets, 0.0);
    fanout_.assign(nets, 0);
    macro_or_po_.assign(nets, 0);
    const auto& gates = nl_.gates();
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const auto& caps = cells_.cell(cell_[g]).pin_caps;
      const auto& conns = gates[g].conns;
      for (std::size_t k = 0; k < conns.size(); ++k) {
        const int pin = pin_[conn_begin_[g] + k];
        if (pin < 0) continue;
        const auto n = static_cast<std::size_t>(conns[k].second);
        pin_cap_[n] += caps[static_cast<std::size_t>(pin)].second;
        ++fanout_[n];
      }
    }
    const auto mark = [&](netlist::NetId n, double cap) {
      if (n == netlist::kNoNet) return;
      macro_or_po_[static_cast<std::size_t>(n)] = 1;
      pin_cap_[static_cast<std::size_t>(n)] += cap;
    };
    for (const auto& m : nl_.srams()) {
      for (auto n : m.address) mark(n, 1.5e-15);
      for (auto n : m.data_in) mark(n, 1.5e-15);
      mark(m.write_enable, 1.5e-15);
    }
    for (auto n : nl_.outputs()) mark(n, 2e-15);
    if (!sinks) return;
    sink_begin_.assign(nets + 1, 0);
    for (std::size_t n = 0; n < nets; ++n)
      sink_begin_[n + 1] = sink_begin_[n] + fanout_[n];
    sinks_.resize(sink_begin_[nets]);
    std::vector<std::size_t> fill(sink_begin_.begin(), sink_begin_.end() - 1);
    for (std::size_t g = 0; g < gates.size(); ++g) {
      const auto& conns = gates[g].conns;
      for (std::size_t k = 0; k < conns.size(); ++k)
        if (pin_[conn_begin_[g] + k] >= 0)
          sinks_[fill[static_cast<std::size_t>(conns[k].second)]++] = {
              static_cast<std::uint32_t>(g), static_cast<std::uint32_t>(k)};
    }
  }

  struct Sink {
    std::uint32_t gate;
    std::uint32_t conn;
  };

  std::size_t fanout(std::size_t n) const { return fanout_[n]; }
  // The load net n puts on the gate that drives it, wire included.
  double load(std::size_t n, double wire_cap_per_fanout) const {
    return pin_cap_[n] +
           wire_cap_per_fanout *
               static_cast<double>(fanout_[n] + (macro_or_po_[n] ? 1 : 0));
  }
  const Sink* sinks(std::size_t n) const {
    return sinks_.data() + sink_begin_[n];
  }

 private:
  // Each conn's index in the cell's pin_caps (-1 for an output pin) and
  // the net on the cell's last connected output.
  void bind(std::size_t g) {
    const auto& gate = nl_.gates()[g];
    const auto& cell = cells_.cell(cell_[g]);
    for (std::size_t k = 0; k < gate.conns.size(); ++k) {
      const std::string& pin = gate.conns[k].first;
      bool is_output = false;
      for (const auto& out : cell.def.outputs) is_output |= (out.name == pin);
      int index = -1;
      if (!is_output) {
        const auto& caps = cell.pin_caps;
        const auto it = std::find_if(
            caps.begin(), caps.end(),
            [&](const auto& c) { return c.first == pin; });
        if (it == caps.end())
          throw std::out_of_range("CellChar::pin_cap: unknown pin " + pin +
                                  " on " + cell.def.name);
        index = static_cast<int>(it - caps.begin());
      }
      pin_[conn_begin_[g] + k] = index;
    }
    out_net_[g] = netlist::kNoNet;
    for (const auto& out : cell.def.outputs) {
      const netlist::NetId n = gate.pin(out.name);
      if (n != netlist::kNoNet) out_net_[g] = n;
    }
  }

  netlist::Netlist& nl_;
  ResolvedCells& cells_;
  std::vector<std::uint32_t> cell_;
  std::vector<netlist::NetId> out_net_;
  std::vector<std::size_t> conn_begin_;
  std::vector<int> pin_;
  std::vector<double> pin_cap_;
  std::vector<std::size_t> fanout_;
  std::vector<char> macro_or_po_;
  std::vector<std::size_t> sink_begin_;
  std::vector<Sink> sinks_;
};

std::size_t buffer_fanout(netlist::Netlist& nl, ResolvedCells& cells,
                          Binding& binding, const SynthOptions& opt) {
  std::size_t inserted = 0;
  std::optional<std::uint32_t> buffer;
  // Iterate to a fixed point: buffer outputs can themselves exceed the
  // limit when fanout is huge.
  for (int round = 0; round < 8; ++round) {
    binding.collect(/*sinks=*/true);
    bool changed = false;
    const std::size_t net_count = nl.net_count();
    for (std::size_t n = 0; n < net_count; ++n) {
      if (static_cast<netlist::NetId>(n) == nl.clock()) continue;
      const std::size_t fanout = binding.fanout(n);
      if (fanout <= static_cast<std::size_t>(opt.max_fanout)) continue;
      if (!buffer) buffer = cells.id(opt.buffer_base + "_X4");
      // Split the gate sinks into groups behind buffers. Macro/PO sinks
      // stay on the original net.
      const Binding::Sink* sinks = binding.sinks(n);
      const std::size_t groups =
          (fanout + opt.max_fanout - 1) /
          static_cast<std::size_t>(opt.max_fanout);
      for (std::size_t g = 0; g < groups; ++g) {
        const std::size_t lo = g * static_cast<std::size_t>(opt.max_fanout);
        const std::size_t hi =
            std::min(lo + static_cast<std::size_t>(opt.max_fanout), fanout);
        const netlist::NetId buffered = nl.add_net(
            nl.net_name(static_cast<netlist::NetId>(n)) + "$buf" +
            std::to_string(inserted));
        nl.add_gate("fobuf$" + std::to_string(inserted),
                    cells.cell(*buffer).def.name,
                    {{"A", static_cast<netlist::NetId>(n)}, {"Y", buffered}});
        binding.add(*buffer);
        ++inserted;
        for (std::size_t s = lo; s < hi; ++s)
          nl.gates()[sinks[s].gate].conns[sinks[s].conn].second = buffered;
      }
      changed = true;
    }
    if (!changed) break;
  }
  return inserted;
}

std::size_t size_gates(netlist::Netlist& nl, ResolvedCells& cells,
                       Binding& binding, const SynthOptions& opt) {
  std::size_t resized_total = 0;
  for (int iter = 0; iter < opt.sizing_iterations; ++iter) {
    binding.collect(/*sinks=*/false);
    std::size_t resized = 0;
    for (std::size_t g = 0; g < nl.gates().size(); ++g) {
      const std::uint32_t current = binding.cell(g);
      const auto& variants = cells.variants(current);
      if (variants.size() < 2) continue;
      const netlist::NetId out_net = binding.out_net(g);
      if (out_net == netlist::kNoNet) continue;
      const double load = binding.load(static_cast<std::size_t>(out_net),
                                       opt.wire_cap_per_fanout);
      // Pick the drive with the best delay*sqrt(drive) figure: the sqrt
      // term charges bigger cells for their own input load so upstream
      // stages are not blindly penalized.
      std::uint32_t best = current;
      double best_score = 1e30;
      for (const auto& v : variants) {
        const double delay = cells.worst_delay(v.cell, load);
        const double score = delay * std::sqrt(static_cast<double>(v.drive));
        if (score < best_score) {
          best_score = score;
          best = v.cell;
        }
      }
      if (cells.drive(best) != cells.drive(current)) {
        binding.resize(g, best);
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
  // Buffering splits sinks into groups of max_fanout.
  if (options.max_fanout < 1)
    throw std::invalid_argument("synth: max_fanout must be at least 1");
  SynthReport report;
  ResolvedCells cells(library, options.reference_slew);
  Binding binding(nl, cells);
  report.buffers_inserted = buffer_fanout(nl, cells, binding, options);
  report.gates_resized = size_gates(nl, cells, binding, options);
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
