#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "charlib/characterizer.hpp"
#include "core/artifacts.hpp"
#include "core/error.hpp"
#include "core/flow.hpp"
#include "liberty/liberty.hpp"

namespace cryo::liberty {
namespace {

// A small library straight from the characterizer: INV, NAND2 and DFF at
// drives 1 and 2 on a 3x3 grid.
charlib::Library characterize_mini(double temperature) {
  charlib::CharOptions opt;
  opt.temperature = temperature;
  opt.slews = {2e-12, 8e-12, 32e-12};
  opt.loads = {0.5e-15, 2e-15, 8e-15};
  charlib::Characterizer ch(device::golden_nmos(), device::golden_pmos(),
                            opt);
  cells::CatalogOptions copt;
  copt.only_bases = {"INV", "NAND2", "DFF"};
  copt.drives = {1, 2};
  copt.include_slvt = false;
  return ch.characterize_all(cells::standard_cells(copt), "roundtrip");
}

// One shared mini-library characterized once for all round-trip tests.
const charlib::Library& mini_library() {
  static const charlib::Library lib = characterize_mini(300.0);
  return lib;
}

TEST(Liberty, WriteProducesWellFormedText) {
  const std::string text = write(mini_library());
  EXPECT_NE(text.find("library (roundtrip)"), std::string::npos);
  EXPECT_NE(text.find("lu_table_template"), std::string::npos);
  EXPECT_NE(text.find("cell (NAND2_X1)"), std::string::npos);
  EXPECT_NE(text.find("cell_leakage_power"), std::string::npos);
  EXPECT_NE(text.find("timing ()"), std::string::npos);
  EXPECT_NE(text.find("setup_rising"), std::string::npos);
}

TEST(Liberty, RoundTripPreservesStructure) {
  const auto& original = mini_library();
  const auto parsed = parse(write(original));
  EXPECT_EQ(parsed.name, original.name);
  EXPECT_DOUBLE_EQ(parsed.temperature, original.temperature);
  EXPECT_DOUBLE_EQ(parsed.vdd, original.vdd);
  ASSERT_EQ(parsed.cells.size(), original.cells.size());
  ASSERT_EQ(parsed.slew_grid.size(), original.slew_grid.size());
  for (std::size_t i = 0; i < parsed.slew_grid.size(); ++i)
    EXPECT_NEAR(parsed.slew_grid[i], original.slew_grid[i], 1e-18);
}

TEST(Liberty, RoundTripPreservesTables) {
  const auto& original = mini_library();
  const auto parsed = parse(write(original));
  for (const auto& cell : original.cells) {
    const auto* back = parsed.find(cell.def.name);
    ASSERT_NE(back, nullptr) << cell.def.name;
    ASSERT_EQ(back->arcs.size(), cell.arcs.size()) << cell.def.name;
    for (std::size_t a = 0; a < cell.arcs.size(); ++a) {
      // Arcs may be reordered by pin grouping; find the matching one.
      const auto& want = cell.arcs[a];
      const charlib::NldmArc* got = nullptr;
      for (const auto& cand : back->arcs) {
        if (cand.input == want.input && cand.output == want.output &&
            cand.input_rise == want.input_rise &&
            cand.output_rise == want.output_rise)
          got = &cand;
      }
      ASSERT_NE(got, nullptr)
          << cell.def.name << " arc " << want.input << "->" << want.output;
      for (std::size_t i = 0; i < want.delay.rows(); ++i) {
        for (std::size_t j = 0; j < want.delay.cols(); ++j) {
          EXPECT_NEAR(got->delay.at(i, j), want.delay.at(i, j),
                      std::abs(want.delay.at(i, j)) * 1e-4 + 1e-16);
          EXPECT_NEAR(got->energy.at(i, j), want.energy.at(i, j),
                      std::abs(want.energy.at(i, j)) * 1e-4 + 1e-18);
        }
      }
    }
  }
}

TEST(Liberty, RoundTripPreservesLeakageAndConstraints) {
  const auto& original = mini_library();
  const auto parsed = parse(write(original));
  for (const auto& cell : original.cells) {
    const auto* back = parsed.find(cell.def.name);
    ASSERT_NE(back, nullptr);
    EXPECT_NEAR(back->leakage_avg, cell.leakage_avg,
                cell.leakage_avg * 1e-4 + 1e-15);
    ASSERT_EQ(back->leakage.size(), cell.leakage.size());
    for (std::size_t i = 0; i < cell.leakage.size(); ++i) {
      EXPECT_EQ(back->leakage[i].pattern, cell.leakage[i].pattern);
      EXPECT_NEAR(back->leakage[i].watts, cell.leakage[i].watts,
                  std::abs(cell.leakage[i].watts) * 1e-4 + 1e-15);
    }
    if (cell.def.sequential && !cell.def.is_latch) {
      EXPECT_NEAR(back->setup_time, cell.setup_time, 1e-15);
      EXPECT_NEAR(back->hold_time, cell.hold_time, 1e-15);
    }
    // Pin caps survive.
    for (const auto& [pin, cap] : cell.pin_caps)
      EXPECT_NEAR(back->pin_cap(pin), cap, cap * 1e-4 + 1e-20);
  }
}

// Everything the reader fills in, as bytes: strings with their lengths,
// doubles as their bit patterns. Hashed with core::fnv1a64.
class LibraryBits {
 public:
  explicit LibraryBits(const charlib::Library& lib) {
    str(lib.name);
    raw(lib.temperature);
    raw(lib.vdd);
    nums(lib.slew_grid);
    nums(lib.load_grid);
    raw(lib.cells.size());
    for (const auto& cell : lib.cells) {
      str(cell.def.name);
      raw(cell.def.area);
      raw(cell.leakage_avg);
      raw(cell.leakage.size());
      for (const auto& state : cell.leakage) {
        raw(state.pattern);
        raw(state.watts);
      }
      raw(cell.pin_caps.size());
      for (const auto& [pin, cap] : cell.pin_caps) {
        str(pin);
        raw(cap);
      }
      raw(cell.setup_time);
      raw(cell.hold_time);
      raw(cell.arcs.size());
      for (const auto& arc : cell.arcs) {
        str(arc.input);
        str(arc.output);
        raw(arc.input_rise);
        raw(arc.output_rise);
        for (const Table2D* t : {&arc.delay, &arc.output_slew, &arc.energy}) {
          nums(t->axis1());
          nums(t->axis2());
          nums(t->values());
        }
      }
    }
  }

  std::uint64_t hash() const { return core::fnv1a64(bytes_); }

 private:
  template <class T>
  void raw(const T& v) {
    bytes_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void str(const std::string& s) {
    raw(s.size());
    bytes_ += s;
  }
  void nums(const std::vector<double>& v) {
    raw(v.size());
    for (double x : v) raw(x);
  }

  std::string bytes_;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

// Recorded from the reader as it stood before the one-pass rewrite: any
// change in how a committed artifact's bytes become doubles shows here.
TEST(Liberty, CommittedLibrariesParseToGoldenBits) {
  const std::string dir = core::default_lib_dir();
  EXPECT_EQ(LibraryBits(read_file(dir + "/cryo5_300k.lib")).hash(),
            0xf8c3ae75e5dcffd7ull);
  EXPECT_EQ(LibraryBits(read_file(dir + "/cryo5_10k.lib")).hash(),
            0x89c95df0d50ff9a0ull);
}

TEST(Liberty, CommittedLibrariesRewriteByteForByte) {
  const std::string dir = core::default_lib_dir();
  for (const char* file : {"/cryo5_300k.lib", "/cryo5_10k.lib"}) {
    const std::string text = slurp(dir + file);
    ASSERT_GT(text.size(), 1000000u) << file;
    // EXPECT_TRUE, not EXPECT_EQ: a mismatch must not print 3 MB twice.
    EXPECT_TRUE(write(read_file(dir + file)) == text) << file;
  }
}

// A characterized library rounded to its artifact's numbers holds the
// bits its artifact reads back as, and still writes the same bytes.
TEST(Liberty, RoundedLibraryHoldsItsArtifactsNumbers) {
  const charlib::Library cold = characterize_mini(143.7);
  for (const charlib::Library* raw : {&mini_library(), &cold}) {
    const std::string text = write(*raw);
    charlib::Library rounded = *raw;
    round_to_artifact(rounded);
    EXPECT_EQ(LibraryBits(rounded).hash(), LibraryBits(parse(text)).hash())
        << raw->temperature;
    // Not vacuous: the characterizer's own numbers read back differently.
    EXPECT_NE(LibraryBits(*raw).hash(), LibraryBits(rounded).hash())
        << raw->temperature;
    EXPECT_TRUE(write(rounded) == text) << raw->temperature;
  }
}

TEST(Liberty, RoundingACommittedLibraryChangesNothing) {
  const std::string dir = core::default_lib_dir();
  for (const char* file : {"/cryo5_300k.lib", "/cryo5_10k.lib"}) {
    charlib::Library lib = read_file(dir + file);
    const std::uint64_t before = LibraryBits(lib).hash();
    round_to_artifact(lib);
    EXPECT_EQ(LibraryBits(lib).hash(), before) << file;
  }
}

// An arc whose transition or power table is empty writes without it, the
// shape the reader reads as "absent", so the library reads back bit for
// bit.
TEST(Liberty, EmptyTablesRoundTrip) {
  const auto lib = read_file(core::default_lib_dir() + "/cryo5_300k.lib");
  using Member = Table2D charlib::NldmArc::*;
  const std::vector<std::vector<Member>> clears = {
      {&charlib::NldmArc::output_slew},
      {&charlib::NldmArc::energy},
      {&charlib::NldmArc::output_slew, &charlib::NldmArc::energy}};
  for (const auto& members : clears) {
    charlib::Library edited = lib;
    for (auto& cell : edited.cells)
      if (cell.def.name == "INV_X1")
        for (const Member m : members) cell.arcs.front().*m = Table2D{};
    const std::string text = write(edited);
    const auto back = parse(text);
    EXPECT_EQ(LibraryBits(back).hash(), LibraryBits(edited).hash())
        << members.size();
    EXPECT_TRUE(write(back) == text) << members.size();
  }
}

// A library small enough to break by hand, one statement per line.
const std::string kTiny =
    "library (tiny) {\n"                                         // 1
    "  nom_temperature : 300;\n"                                 // 2
    "  lu_table_template (tmpl) {\n"                             // 3
    "    index_1 (\"0.01, 0.02\");\n"                            // 4
    "    index_2 (\"0.001, 0.002\");\n"                          // 5
    "  }\n"                                                      // 6
    "  cell (INV_X1) {\n"                                        // 7
    "    area : 0.5;\n"                                          // 8
    "    pin (A) { direction : input; capacitance : 0.001; }\n"  // 9
    "  }\n"                                                      // 10
    "}\n";

std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  text.replace(text.find(from), from.size(), to);
  return text;
}

TEST(Liberty, ParseRejectsGarbage) {
  EXPECT_THROW(parse("not a library"), std::runtime_error);
  EXPECT_THROW(parse("library (x) { cell (y) {"), std::runtime_error);

  const auto tiny = parse(kTiny);
  ASSERT_EQ(tiny.cells.size(), 1u);
  EXPECT_EQ(tiny.temperature, 300.0);
  EXPECT_EQ(tiny.cells[0].def.area, 0.5);

  std::string nest;
  for (int i = 0; i < 100000; ++i) nest += "g () { ";
  nest += std::string(100000, '}');
  const struct {
    std::string text;
    int line;
  } cases[] = {
      {replaced(kTiny, "0.01, 0.02", "abc"), 4},
      {replaced(kTiny, "300", "hot"), 2},
      {replaced(kTiny, "0.5", "zz"), 8},
      {replaced(kTiny, "0.001;", "1e999;"), 9},
      // A number must be the whole token, not a prefix of it.
      {replaced(kTiny, "0.5", "1.5abc"), 8},
      {replaced(kTiny, "INV_X1", "INV_Xq"), 7},
      {replaced(kTiny, "INV_X1", "FOO_X1"), 7},
      {replaced(kTiny, "    area", nest + "area"), 8},
  };
  const std::string path = ::testing::TempDir() + "/garbage.lib";
  for (const auto& c : cases) {
    const std::string at_line = "at line " + std::to_string(c.line);
    try {
      (void)parse(c.text);
      ADD_FAILURE() << "accepted:\n" << c.text.substr(0, 400);
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(at_line), std::string::npos)
          << e.what();
    }
    std::ofstream(path) << c.text;
    try {
      (void)read_file(path);
      ADD_FAILURE() << "read_file accepted:\n" << c.text.substr(0, 400);
    } catch (const core::FlowError& e) {
      EXPECT_EQ(e.stage(), "liberty-parse");
      EXPECT_EQ(e.path(), path);
      EXPECT_NE(e.detail().find(at_line), std::string::npos) << e.what();
    }
  }
}

TEST(Liberty, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/rt.lib";
  write_file(mini_library(), path);
  const auto parsed = read_file(path);
  EXPECT_EQ(parsed.cells.size(), mini_library().cells.size());
  EXPECT_THROW(read_file("/nonexistent/x.lib"), std::runtime_error);
}

}  // namespace
}  // namespace cryo::liberty
