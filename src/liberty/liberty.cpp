#include "liberty/liberty.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/text.hpp"
#include "core/error.hpp"

namespace cryo::liberty {
namespace {

// Unit scale factors between SI and the customary Liberty units we write.
constexpr double kTimeUnit = 1e-9;   // ns
constexpr double kCapUnit = 1e-12;   // pF
constexpr double kEnergyUnit = 1e-12;  // pJ
constexpr double kLeakUnit = 1e-9;   // nW

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

std::string format_row(const Table2D& t, std::size_t row, double scale) {
  std::string out;
  for (std::size_t j = 0; j < t.cols(); ++j) {
    if (j) out += ", ";
    out += strprintf("%.6g", t.at(row, j) / scale);
  }
  return out;
}

void write_table(std::ostream& os, const std::string& name,
                 const Table2D& t, double scale, const char* indent) {
  os << indent << name << " (tmpl_7x7) {\n";
  os << indent << "  values ( \\\n";
  for (std::size_t i = 0; i < t.rows(); ++i) {
    os << indent << "    \"" << format_row(t, i, scale) << "\""
       << (i + 1 < t.rows() ? ", \\\n" : " \\\n");
  }
  os << indent << "  );\n" << indent << "}\n";
}

std::string when_condition(const cells::CellDef& def, std::uint32_t pattern,
                           bool sequential) {
  std::vector<std::string> pins = def.inputs;
  if (sequential) pins.push_back(def.clock);
  std::string out;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (i) out += "*";
    if (((pattern >> i) & 1u) == 0) out += "!";
    out += pins[i];
  }
  return out;
}

// Human-readable boolean function of an output (documentation only; the
// reader reconstructs functions from the catalog).
std::string function_string(const cells::CellDef& def,
                            const cells::OutputPin& out) {
  if (def.sequential) return "IQ";
  // Sum-of-products over the truth table; compact enough for <=4 inputs.
  std::string sop;
  const std::uint32_t patterns = 1u << def.inputs.size();
  for (std::uint32_t p = 0; p < patterns; ++p) {
    if (!((out.truth >> p) & 1u)) continue;
    if (!sop.empty()) sop += " + ";
    sop += "(";
    for (std::size_t i = 0; i < def.inputs.size(); ++i) {
      if (i) sop += "*";
      if (!((p >> i) & 1u)) sop += "!";
      sop += def.inputs[i];
    }
    sop += ")";
  }
  return sop.empty() ? "0" : sop;
}

// Streams the Liberty text, so writing an artifact never holds it whole.
void write_to(const charlib::Library& library, std::ostream& os) {
  os << "/* Generated by cryosoc charlib; temperatures in kelvin. */\n";
  os << "library (" << library.name << ") {\n";
  os << "  delay_model : table_lookup;\n";
  os << "  time_unit : \"1ns\";\n";
  os << "  voltage_unit : \"1V\";\n";
  os << "  current_unit : \"1mA\";\n";
  os << "  capacitive_load_unit (1, pf);\n";
  os << "  leakage_power_unit : \"1nW\";\n";
  os << strprintf("  nom_temperature : %.6g;\n", library.temperature);
  os << strprintf("  nom_voltage : %.6g;\n", library.vdd);
  os << "  operating_conditions (typical) {\n";
  os << strprintf("    temperature : %.6g;\n", library.temperature);
  os << strprintf("    voltage : %.6g;\n", library.vdd);
  os << "  }\n";
  os << "  lu_table_template (tmpl_7x7) {\n";
  os << "    variable_1 : input_net_transition;\n";
  os << "    variable_2 : total_output_net_capacitance;\n";
  os << "    index_1 (\"";
  for (std::size_t i = 0; i < library.slew_grid.size(); ++i)
    os << (i ? ", " : "")
       << strprintf("%.6g", library.slew_grid[i] / kTimeUnit);
  os << "\");\n    index_2 (\"";
  for (std::size_t i = 0; i < library.load_grid.size(); ++i)
    os << (i ? ", " : "")
       << strprintf("%.6g", library.load_grid[i] / kCapUnit);
  os << "\");\n  }\n";

  for (const auto& cell : library.cells) {
    const auto& def = cell.def;
    os << "  cell (" << def.name << ") {\n";
    os << strprintf("    area : %.6g;\n", def.area);
    os << strprintf("    cell_leakage_power : %.6g;\n",
                    cell.leakage_avg / kLeakUnit);
    for (const auto& state : cell.leakage) {
      os << "    leakage_power () {\n";
      os << "      when : \""
         << when_condition(def, state.pattern, def.sequential) << "\";\n";
      os << strprintf("      value : %.6g;\n", state.watts / kLeakUnit);
      os << "    }\n";
    }
    if (def.sequential) {
      os << "    ff (IQ, IQN) {\n";
      os << "      clocked_on : \"" << def.clock << "\";\n";
      os << "      next_state : \"D\";\n";
      os << "    }\n";
    }
    // Input pins (and clock).
    for (const auto& [pin, cap] : cell.pin_caps) {
      os << "    pin (" << pin << ") {\n";
      os << "      direction : input;\n";
      if (def.sequential && pin == def.clock) os << "      clock : true;\n";
      os << strprintf("      capacitance : %.6g;\n", cap / kCapUnit);
      if (def.sequential && pin == "D" && !def.is_latch) {
        os << "      timing () {\n";
        os << "        related_pin : \"" << def.clock << "\";\n";
        os << "        timing_type : setup_rising;\n";
        os << strprintf(
            "        rise_constraint (scalar) { values (\"%.6g\"); }\n",
            cell.setup_time / kTimeUnit);
        os << strprintf(
            "        fall_constraint (scalar) { values (\"%.6g\"); }\n",
            cell.setup_time / kTimeUnit);
        os << "      }\n";
        os << "      timing () {\n";
        os << "        related_pin : \"" << def.clock << "\";\n";
        os << "        timing_type : hold_rising;\n";
        os << strprintf(
            "        rise_constraint (scalar) { values (\"%.6g\"); }\n",
            cell.hold_time / kTimeUnit);
        os << strprintf(
            "        fall_constraint (scalar) { values (\"%.6g\"); }\n",
            cell.hold_time / kTimeUnit);
        os << "      }\n";
      }
      os << "    }\n";
    }
    // Output pins with their timing arcs.
    for (const auto& out : def.outputs) {
      os << "    pin (" << out.name << ") {\n";
      os << "      direction : output;\n";
      os << "      function : \"" << function_string(def, out) << "\";\n";
      for (const auto& arc : cell.arcs) {
        if (arc.output != out.name) continue;
        os << "      timing () {\n";
        os << "        related_pin : \"" << arc.input << "\";\n";
        if (def.sequential) {
          os << "        timing_type : rising_edge;\n";
        } else {
          os << "        timing_sense : "
             << (arc.input_rise == arc.output_rise ? "positive_unate"
                                                   : "negative_unate")
             << ";\n";
        }
        const char* delay_name =
            arc.output_rise ? "cell_rise" : "cell_fall";
        const char* slew_name =
            arc.output_rise ? "rise_transition" : "fall_transition";
        write_table(os, delay_name, arc.delay, kTimeUnit, "        ");
        write_table(os, slew_name, arc.output_slew, kTimeUnit, "        ");
        os << "        internal_power () {\n";
        write_table(os, arc.output_rise ? "rise_power" : "fall_power",
                    arc.energy, kEnergyUnit, "          ");
        os << "        }\n";
        os << "      }\n";
      }
      os << "    }\n";
    }
    os << "  }\n";
  }
  os << "}\n";
}

}  // namespace

std::string write(const charlib::Library& library) {
  std::ostringstream os;
  write_to(library, os);
  return os.str();
}

void write_file(const charlib::Library& library, const std::string& path) {
  std::ofstream f(path);
  if (!f)
    throw core::FlowError("liberty-io", path, "write_file: cannot open file");
  write_to(library, f);
  if (!f)
    throw core::FlowError("liberty-io", path, "write_file: write failed");
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

namespace {

// Generic Liberty group tree.
struct Group {
  std::string type;
  std::string args;  // inside the parentheses, raw
  std::vector<std::pair<std::string, std::string>> attrs;  // name -> value
  // Complex attributes like values(...) / index_1(...) keep raw argument.
  std::vector<std::pair<std::string, std::string>> complex_attrs;
  std::vector<Group> children;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) {}

  // Tokens: punctuation characters, identifiers/numbers, quoted strings.
  std::string next() {
    skip_ws_and_comments();
    if (pos_ >= text_.size()) return {};
    const char c = text_[pos_];
    if (c == '{' || c == '}' || c == '(' || c == ')' || c == ':' ||
        c == ';' || c == ',') {
      ++pos_;
      return std::string(1, c);
    }
    if (c == '"') {
      std::string out;
      ++pos_;
      while (pos_ < text_.size() && text_[pos_] != '"') {
        // Line continuations inside strings are not expected; accumulate.
        out += text_[pos_++];
      }
      if (pos_ >= text_.size())
        throw std::runtime_error("liberty: unterminated string at line " +
                                 std::to_string(line_));
      ++pos_;
      return "\"" + out + "\"";
    }
    std::string out;
    while (pos_ < text_.size() && !std::isspace(static_cast<unsigned char>(
                                      text_[pos_])) &&
           std::string("{}():;,\"").find(text_[pos_]) == std::string::npos) {
      out += text_[pos_++];
    }
    return out;
  }

  std::string peek() {
    const std::size_t save_pos = pos_;
    const int save_line = line_;
    std::string t = next();
    pos_ = save_pos;
    line_ = save_line;
    return t;
  }

  int line() const { return line_; }

 private:
  void skip_ws_and_comments() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c)) || c == '\\') {
        ++pos_;
      } else if (c == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '*') {
        pos_ += 2;
        while (pos_ + 1 < text_.size() &&
               !(text_[pos_] == '*' && text_[pos_ + 1] == '/')) {
          if (text_[pos_] == '\n') ++line_;
          ++pos_;
        }
        pos_ += 2;
      } else {
        break;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  int line_ = 1;
};

[[noreturn]] void fail(const Lexer& lex, const std::string& message) {
  throw std::runtime_error("liberty: " + message + " at line " +
                           std::to_string(lex.line()));
}

std::string unquote(const std::string& s) {
  if (s.size() >= 2 && s.front() == '"' && s.back() == '"')
    return s.substr(1, s.size() - 2);
  return s;
}

// Parses a group body after its '{'.
Group parse_group(Lexer& lex, std::string type, std::string args) {
  Group g;
  g.type = std::move(type);
  g.args = std::move(args);
  while (true) {
    std::string tok = lex.next();
    if (tok.empty()) fail(lex, "unexpected end of input");
    if (tok == "}") return g;
    // tok is an identifier: either `name : value ;`, `name (args) ;`, or
    // `name (args) { ... }`.
    const std::string name = tok;
    tok = lex.next();
    if (tok == ":") {
      std::string value;
      while (true) {
        tok = lex.next();
        if (tok == ";") break;
        if (tok.empty()) fail(lex, "unexpected end in attribute " + name);
        if (!value.empty()) value += " ";
        value += unquote(tok);
      }
      g.attrs.emplace_back(name, value);
    } else if (tok == "(") {
      std::string inner;
      int depth = 1;
      while (depth > 0) {
        tok = lex.next();
        if (tok.empty()) fail(lex, "unexpected end in " + name + "(...)");
        if (tok == "(") ++depth;
        if (tok == ")") {
          --depth;
          if (depth == 0) break;
        }
        if (!inner.empty()) inner += " ";
        inner += tok;
      }
      tok = lex.next();
      if (tok == "{") {
        g.children.push_back(parse_group(lex, name, inner));
      } else if (tok == ";") {
        g.complex_attrs.emplace_back(name, inner);
      } else {
        fail(lex, "expected '{' or ';' after " + name + "(...)");
      }
    } else {
      fail(lex, "unexpected token '" + tok + "' in group");
    }
  }
}

const std::string* find_attr(const Group& g, const std::string& name) {
  for (const auto& [k, v] : g.attrs)
    if (k == name) return &v;
  return nullptr;
}

const Group* find_child(const Group& g, const std::string& type) {
  for (const auto& c : g.children)
    if (c.type == type) return &c;
  return nullptr;
}

std::vector<double> parse_numbers(const std::string& raw) {
  std::vector<double> out;
  std::string cleaned;
  for (char c : raw) cleaned += (c == ',' || c == '"') ? ' ' : c;
  for (const auto& tok : split_ws(cleaned)) out.push_back(std::stod(tok));
  return out;
}

// Parses a values(...) complex attribute into a Table2D on the grids.
Table2D parse_values(const Group& table_group,
                     const std::vector<double>& axis1,
                     const std::vector<double>& axis2, double scale) {
  for (const auto& [k, v] : table_group.complex_attrs) {
    if (k != "values") continue;
    const auto nums = parse_numbers(v);
    if (nums.size() == 1 && axis1.size() * axis2.size() != 1) {
      // scalar constraint table
      Table2D t({0.0}, {0.0});
      t.at(0, 0) = nums[0] * scale;
      return t;
    }
    if (nums.size() != axis1.size() * axis2.size())
      throw std::runtime_error("liberty: values size mismatch");
    Table2D t(axis1, axis2);
    for (std::size_t i = 0; i < axis1.size(); ++i)
      for (std::size_t j = 0; j < axis2.size(); ++j)
        t.at(i, j) = nums[i * axis2.size() + j] * scale;
    return t;
  }
  throw std::runtime_error("liberty: missing values() in table");
}

std::uint32_t pattern_from_when(const std::string& when,
                                const std::vector<std::string>& pins) {
  std::uint32_t pattern = 0;
  for (const auto& term : split(when, '*')) {
    std::string t(trim(term));
    bool value = true;
    if (!t.empty() && t[0] == '!') {
      value = false;
      t = t.substr(1);
    }
    for (std::size_t i = 0; i < pins.size(); ++i)
      if (pins[i] == t && value) pattern |= (1u << i);
  }
  return pattern;
}

}  // namespace

charlib::Library parse(const std::string& text) {
  Lexer lex(text);
  std::string tok = lex.next();
  if (tok != "library") fail(lex, "expected 'library'");
  if (lex.next() != "(") fail(lex, "expected '(' after library");
  std::string lib_name;
  while ((tok = lex.next()) != ")") {
    if (tok.empty()) fail(lex, "unexpected end in library name");
    lib_name += tok;
  }
  if (lex.next() != "{") fail(lex, "expected '{'");
  const Group root = parse_group(lex, "library", lib_name);

  charlib::Library lib;
  lib.name = lib_name;
  if (const auto* t = find_attr(root, "nom_temperature"))
    lib.temperature = std::stod(*t);
  if (const auto* v = find_attr(root, "nom_voltage")) lib.vdd = std::stod(*v);

  const Group* tmpl = find_child(root, "lu_table_template");
  if (tmpl == nullptr) throw std::runtime_error("liberty: missing template");
  for (const auto& [k, v] : tmpl->complex_attrs) {
    if (k == "index_1")
      for (double x : parse_numbers(v)) lib.slew_grid.push_back(x * kTimeUnit);
    if (k == "index_2")
      for (double x : parse_numbers(v)) lib.load_grid.push_back(x * kCapUnit);
  }

  for (const auto& cell_group : root.children) {
    if (cell_group.type != "cell") continue;
    charlib::CellChar cc;
    // Reconstruct the CellDef from the catalog via the variant name.
    const std::string& name = cell_group.args;
    std::string base = name;
    int drive = 1;
    cells::VtFlavor flavor = cells::VtFlavor::kLvt;
    std::string working = name;
    if (working.size() > 5 &&
        working.substr(working.size() - 5) == "_SLVT") {
      flavor = cells::VtFlavor::kSlvt;
      working = working.substr(0, working.size() - 5);
    }
    const auto xpos = working.rfind("_X");
    if (xpos != std::string::npos) {
      base = working.substr(0, xpos);
      drive = std::stoi(working.substr(xpos + 2));
    }
    cc.def = cells::make_cell(base, drive, flavor);
    if (const auto* a = find_attr(cell_group, "area"))
      cc.def.area = std::stod(*a);
    if (const auto* l = find_attr(cell_group, "cell_leakage_power"))
      cc.leakage_avg = std::stod(*l) * kLeakUnit;

    std::vector<std::string> leak_pins = cc.def.inputs;
    if (cc.def.sequential) leak_pins.push_back(cc.def.clock);
    for (const auto& child : cell_group.children) {
      if (child.type == "leakage_power") {
        const auto* when = find_attr(child, "when");
        const auto* value = find_attr(child, "value");
        if (when && value)
          cc.leakage.push_back({pattern_from_when(*when, leak_pins),
                                std::stod(*value) * kLeakUnit});
      }
      if (child.type != "pin") continue;
      const std::string pin_name = child.args;
      const auto* dir = find_attr(child, "direction");
      if (dir && *dir == "input") {
        if (const auto* cap = find_attr(child, "capacitance"))
          cc.pin_caps.emplace_back(pin_name, std::stod(*cap) * kCapUnit);
        for (const auto& timing : child.children) {
          if (timing.type != "timing") continue;
          const auto* type = find_attr(timing, "timing_type");
          if (!type) continue;
          for (const auto& [k, v] : timing.complex_attrs) (void)k;
          const Group* rc = find_child(timing, "rise_constraint");
          if (!rc) continue;
          const Table2D t = parse_values(*rc, {0.0}, {0.0}, kTimeUnit);
          if (*type == "setup_rising") cc.setup_time = t.at(0, 0);
          if (*type == "hold_rising") cc.hold_time = t.at(0, 0);
        }
      } else if (dir && *dir == "output") {
        for (const auto& timing : child.children) {
          if (timing.type != "timing") continue;
          charlib::NldmArc arc;
          arc.output = pin_name;
          if (const auto* rp = find_attr(timing, "related_pin"))
            arc.input = *rp;
          bool positive_unate = true;
          if (const auto* sense = find_attr(timing, "timing_sense"))
            positive_unate = (*sense == "positive_unate");
          const Group* rise = find_child(timing, "cell_rise");
          const Group* fall = find_child(timing, "cell_fall");
          arc.output_rise = rise != nullptr;
          const Group* delay = arc.output_rise ? rise : fall;
          if (delay == nullptr)
            throw std::runtime_error("liberty: timing without delay table");
          const auto* type = find_attr(timing, "timing_type");
          if (type && *type == "rising_edge")
            arc.input_rise = true;  // clock edge
          else
            arc.input_rise = positive_unate == arc.output_rise;
          arc.delay =
              parse_values(*delay, lib.slew_grid, lib.load_grid, kTimeUnit);
          const Group* trans = find_child(
              timing, arc.output_rise ? "rise_transition" : "fall_transition");
          if (trans)
            arc.output_slew =
                parse_values(*trans, lib.slew_grid, lib.load_grid, kTimeUnit);
          if (const Group* power = find_child(timing, "internal_power")) {
            const Group* e = find_child(
                *power, arc.output_rise ? "rise_power" : "fall_power");
            if (e)
              arc.energy = parse_values(*e, lib.slew_grid, lib.load_grid,
                                        kEnergyUnit);
          }
          cc.arcs.push_back(std::move(arc));
        }
      }
    }
    lib.cells.push_back(std::move(cc));
  }
  return lib;
}

charlib::Library read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f)
    throw core::FlowError("liberty-io", path, "read_file: cannot open file");
  std::ostringstream ss;
  ss << f.rdbuf();
  // parse() reports bare line-numbered errors (it sees text, not files);
  // rebind them to the file so a sweep can name the corrupt artifact.
  try {
    return parse(ss.str());
  } catch (const std::runtime_error& e) {
    throw core::FlowError("liberty-parse", path, e.what());
  }
}

namespace {
constexpr const char* kManifestMagic = "cryosoc-liberty-manifest v1";
}

std::string manifest_path(const std::string& lib_path) {
  return lib_path + ".manifest";
}

void write_manifest(const std::string& lib_path, const Manifest& manifest) {
  const std::string path = manifest_path(lib_path);
  std::ofstream f(path);
  if (!f)
    throw core::FlowError("manifest-io", path,
                          "write_manifest: cannot open file");
  f << kManifestMagic << "\n";
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(manifest.fingerprint));
  f << "fingerprint " << hex << "\n";
  for (const auto& [key, value] : manifest.fields)
    f << "field " << key << " " << value << "\n";
  for (const auto& label : manifest.quarantined)
    f << "quarantine " << label << "\n";
  if (!f)
    throw core::FlowError("manifest-io", path,
                          "write_manifest: write failed");
}

std::optional<Manifest> read_manifest(const std::string& lib_path) {
  std::ifstream f(manifest_path(lib_path));
  if (!f) return std::nullopt;
  std::string line;
  if (!std::getline(f, line) || line != kManifestMagic) return std::nullopt;
  Manifest m;
  bool have_fingerprint = false;
  while (std::getline(f, line)) {
    std::istringstream ls(line);
    std::string tag;
    ls >> tag;
    if (tag == "fingerprint") {
      std::string hex;
      ls >> hex;
      char* end = nullptr;
      m.fingerprint = std::strtoull(hex.c_str(), &end, 16);
      if (end == hex.c_str() || *end != '\0') return std::nullopt;
      have_fingerprint = true;
    } else if (tag == "field") {
      std::string key, value;
      ls >> key;
      std::getline(ls, value);
      if (!value.empty() && value.front() == ' ') value.erase(0, 1);
      m.fields.emplace_back(key, value);
    } else if (tag == "quarantine") {
      std::string label;
      ls >> label;
      if (!label.empty()) m.quarantined.push_back(label);
    }
  }
  if (!have_fingerprint) return std::nullopt;
  return m;
}

}  // namespace cryo::liberty
