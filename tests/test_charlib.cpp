#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "charlib/characterizer.hpp"
#include "core/error.hpp"
#include "core/flow.hpp"
#include "device/modelcard.hpp"
#include "liberty/liberty.hpp"
#include "obs/metrics.hpp"

namespace cryo::charlib {
namespace {

// Shared fast characterization (3x3 grid, a handful of cells) so the suite
// stays quick while still running the full stimuli/measure pipeline.
class CharFixture : public ::testing::Test {
 protected:
  static CharOptions fast_options(double temperature) {
    CharOptions opt;
    opt.temperature = temperature;
    opt.slews = {2e-12, 8e-12, 32e-12};
    opt.loads = {0.5e-15, 2e-15, 8e-15};
    opt.characterize_setup_hold = true;
    return opt;
  }

  static const CellChar& inv300() {
    static const CellChar cc = [] {
      Characterizer ch(device::golden_nmos(), device::golden_pmos(),
                       fast_options(300.0));
      return ch.characterize(cells::make_cell("INV", 1, cells::VtFlavor::kLvt));
    }();
    return cc;
  }
  static const CellChar& inv10() {
    static const CellChar cc = [] {
      Characterizer ch(device::golden_nmos(), device::golden_pmos(),
                       fast_options(10.0));
      return ch.characterize(cells::make_cell("INV", 1, cells::VtFlavor::kLvt));
    }();
    return cc;
  }
  static const CellChar& dff300() {
    static const CellChar cc = [] {
      Characterizer ch(device::golden_nmos(), device::golden_pmos(),
                       fast_options(300.0));
      return ch.characterize(cells::make_cell("DFF", 1, cells::VtFlavor::kLvt));
    }();
    return cc;
  }
};

TEST_F(CharFixture, InverterDelayTablesAreSane) {
  const auto& cc = inv300();
  ASSERT_EQ(cc.arcs.size(), 2u);
  for (const auto& arc : cc.arcs) {
    EXPECT_EQ(arc.input, "A");
    EXPECT_EQ(arc.output, "Y");
    // Delay grows monotonically with load at fixed slew.
    for (std::size_t i = 0; i < arc.delay.rows(); ++i)
      for (std::size_t j = 1; j < arc.delay.cols(); ++j)
        EXPECT_GT(arc.delay.at(i, j), arc.delay.at(i, j - 1));
    // Output slew grows with load too.
    for (std::size_t i = 0; i < arc.output_slew.rows(); ++i)
      for (std::size_t j = 1; j < arc.output_slew.cols(); ++j)
        EXPECT_GT(arc.output_slew.at(i, j), arc.output_slew.at(i, j - 1));
    EXPECT_GT(arc.delay.min_value(), 0.0);
    EXPECT_LT(arc.delay.max_value(), 200e-12);
  }
}

TEST_F(CharFixture, RisingOutputEnergyCarriesLoadCharge) {
  const auto& cc = inv300();
  for (const auto& arc : cc.arcs) {
    if (!arc.output_rise) continue;
    // At 8 fF load the supply must deliver at least C*Vdd^2 ~ 3.9 fJ.
    const double e = arc.energy.at(1, 2);
    EXPECT_GT(e, 3e-15);
    EXPECT_LT(e, 30e-15);
  }
}

TEST_F(CharFixture, PinCapsPositiveAndOrdered) {
  const auto& cc = inv300();
  ASSERT_EQ(cc.pin_caps.size(), 1u);
  EXPECT_GT(cc.pin_caps[0].second, 1e-17);
  EXPECT_LT(cc.pin_caps[0].second, 2e-15);
  EXPECT_THROW(cc.pin_cap("Z"), std::out_of_range);
}

TEST_F(CharFixture, LeakageStatesCoverAllPatterns) {
  const auto& cc = inv300();
  ASSERT_EQ(cc.leakage.size(), 2u);
  for (const auto& s : cc.leakage) EXPECT_GT(s.watts, 0.0);
  EXPECT_GT(cc.leakage_avg, 0.0);
}

TEST_F(CharFixture, CryoKillsLeakageKeepsSpeed) {
  // The paper's central result at cell level: leakage drops by orders of
  // magnitude while delay moves only slightly.
  const auto& hot = inv300();
  const auto& cold = inv10();
  EXPECT_GT(hot.leakage_avg / cold.leakage_avg, 30.0);
  const double d_hot = hot.arcs[0].delay.at(1, 1);
  const double d_cold = cold.arcs[0].delay.at(1, 1);
  EXPECT_NEAR(d_cold / d_hot, 1.0, 0.35);
}

TEST_F(CharFixture, DffClockToQ) {
  const auto& cc = dff300();
  ASSERT_EQ(cc.arcs.size(), 2u);
  for (const auto& arc : cc.arcs) {
    EXPECT_GT(arc.delay.min_value(), 1e-12);
    EXPECT_LT(arc.delay.max_value(), 300e-12);
  }
  // Setup/hold from bisection: small positive-ish windows.
  EXPECT_GE(cc.setup_time, 0.0);
  EXPECT_LT(cc.setup_time, 60e-12);
  EXPECT_GT(cc.hold_time, -20e-12);
  EXPECT_LT(cc.hold_time, 60e-12);
}

TEST_F(CharFixture, WorstDelayHelper) {
  const auto& cc = inv300();
  const double w = cc.worst_delay(8e-12, 2e-15);
  for (const auto& arc : cc.arcs)
    EXPECT_GE(w, arc.delay.lookup(8e-12, 2e-15));
}

TEST(Characterizer, RejectsEmptyGrid) {
  CharOptions opt;
  opt.slews.clear();
  EXPECT_THROW(
      Characterizer(device::golden_nmos(), device::golden_pmos(), opt),
      std::invalid_argument);
}

TEST(Characterizer, LibraryMetadata) {
  CharOptions opt;
  opt.temperature = 300.0;
  opt.slews = {2e-12, 8e-12};
  opt.loads = {1e-15, 4e-15};
  opt.characterize_setup_hold = false;
  Characterizer ch(device::golden_nmos(), device::golden_pmos(), opt);
  cells::CatalogOptions copt;
  copt.only_bases = {"INV", "NAND2"};
  copt.drives = {1, 2};
  copt.extra_drives_common = {};
  copt.include_slvt = true;
  const auto defs = cells::standard_cells(copt);
  const auto lib = ch.characterize_all(defs, "mini");
  EXPECT_EQ(lib.cells.size(), 8u);
  EXPECT_EQ(lib.name, "mini");
  EXPECT_DOUBLE_EQ(lib.temperature, 300.0);
  EXPECT_NE(lib.find("NAND2_X2_SLVT"), nullptr);
  EXPECT_EQ(lib.find("NOPE"), nullptr);
  EXPECT_THROW(lib.at("NOPE"), std::out_of_range);
  // The index resolves every name to the same cell the scan finds.
  const CellIndex index(lib);
  for (const auto& cell : lib.cells)
    EXPECT_EQ(&index.at(cell.def.name), &lib.at(cell.def.name));
  EXPECT_THROW(index.at("NOPE"), std::out_of_range);
  // SLVT leaks more than LVT (lower threshold).
  EXPECT_GT(lib.at("INV_X1_SLVT").leakage_avg,
            lib.at("INV_X1").leakage_avg);
}

TEST(Characterizer, HostileArcIsQuarantinedNotFatal) {
  // A cell whose arc measures a floating node can never settle: the arc
  // must be retried relaxed, then quarantined — recorded in failed_arcs
  // and the library quarantine list — without killing the run or the
  // healthy cells characterized alongside it.
  CharOptions opt;
  opt.temperature = 300.0;
  opt.slews = {8e-12};
  opt.loads = {2e-15};
  opt.characterize_setup_hold = false;

  cells::CellDef broken = cells::make_cell("INV", 1, cells::VtFlavor::kLvt);
  broken.name = "INV_BROKEN";
  broken.arcs.resize(1);
  broken.arcs[0].output = "Z";  // only the load cap touches Z: never settles
  broken.arcs[0].input_rise = true;
  broken.arcs[0].output_rise = false;

  auto& retries = obs::registry().counter("charlib.arc_retries");
  auto& failed = obs::registry().counter("charlib.failed_arcs");
  const auto retries0 = retries.value();
  const auto failed0 = failed.value();

  const std::vector<cells::CellDef> defs = {
      cells::make_cell("INV", 1, cells::VtFlavor::kLvt), broken};
  Characterizer ch(device::golden_nmos(), device::golden_pmos(), opt);
  const Library lib = ch.characterize_all(defs, "hostile");

  // The run completed; exactly the broken arc is quarantined.
  ASSERT_EQ(lib.cells.size(), 2u);
  EXPECT_EQ(lib.cells[0].failed_arcs.size(), 0u);
  EXPECT_EQ(lib.cells[0].arcs.size(), 2u);
  ASSERT_EQ(lib.cells[1].failed_arcs.size(), 1u);
  EXPECT_EQ(lib.cells[1].failed_arcs[0], "INV_BROKEN:A_rise->Z_fall");
  EXPECT_TRUE(lib.cells[1].arcs.empty());
  ASSERT_EQ(lib.quarantined_arcs.size(), 1u);
  EXPECT_EQ(lib.quarantined_arcs[0], lib.cells[1].failed_arcs[0]);
  EXPECT_EQ(failed.value() - failed0, 1u);
  EXPECT_GE(retries.value() - retries0, 1u);
}

TEST(Characterizer, WidePatternSpaceIsStructuredError) {
  // 2^pins leakage patterns are enumerated in a 32-bit word; a cell with
  // >= 32 static pins used to shift past it (undefined behavior). It must
  // now fail structurally, before any solve runs.
  CharOptions opt;
  opt.slews = {8e-12};
  opt.loads = {2e-15};
  opt.characterize_setup_hold = false;
  Characterizer ch(device::golden_nmos(), device::golden_pmos(), opt);

  cells::CellDef wide = cells::make_cell("INV", 1, cells::VtFlavor::kLvt);
  wide.name = "WIDE32";
  wide.inputs.clear();
  for (int i = 0; i < 32; ++i) wide.inputs.push_back("I" + std::to_string(i));
  wide.arcs.clear();
  try {
    ch.characterize(wide);
    FAIL() << "expected core::FlowError";
  } catch (const core::FlowError& e) {
    EXPECT_EQ(e.stage(), "characterize");
    EXPECT_NE(e.detail().find("WIDE32"), std::string::npos);
    EXPECT_NE(e.detail().find("32 static pins"), std::string::npos);
  }

  // The clock/enable pin counts against the same budget: 31 data inputs
  // plus a clock is 32 static pins too.
  cells::CellDef seq = wide;
  seq.name = "WIDE_SEQ";
  seq.inputs.pop_back();
  seq.sequential = true;
  seq.clock = "CK";
  EXPECT_EQ(leakage_pattern_pins(seq).size(), 32u);
  EXPECT_THROW(ch.characterize(seq), core::FlowError);
}

TEST(Characterizer, LatchTransparentArcUsesUnifiedLeakagePatterns) {
  // A combinational arc through a sequential cell (transparent-high
  // latch, EN held high, D -> Q) exercises the unified pattern order:
  // stimuli must index leakage states over inputs + clock — the exact
  // shape the old per-inputs-only indexing mis-addressed — and the
  // enable pin must actually be driven at its side value.
  CharOptions opt;
  opt.temperature = 300.0;
  opt.slews = {8e-12};
  opt.loads = {2e-15};
  opt.characterize_setup_hold = false;

  cells::CellDef latch = cells::make_cell("LATCH", 1, cells::VtFlavor::kLvt);
  EXPECT_EQ(leakage_pattern_pins(latch),
            (std::vector<std::string>{"D", "EN"}));
  latch.arcs.clear();
  latch.arcs.push_back({"D", "Q", true, true, {{"EN", true}}});
  latch.arcs.push_back({"D", "Q", false, false, {{"EN", true}}});

  Characterizer ch(device::golden_nmos(), device::golden_pmos(), opt);
  const CellChar cc = ch.characterize(latch);
  ASSERT_EQ(cc.leakage.size(), 4u);  // 2^{D, EN}
  EXPECT_TRUE(cc.failed_arcs.empty());
  ASSERT_EQ(cc.arcs.size(), 2u);
  for (const auto& arc : cc.arcs) {
    EXPECT_GT(arc.delay.at(0, 0), 0.0);
    EXPECT_LT(arc.delay.at(0, 0), 300e-12);
    EXPECT_GE(arc.energy.at(0, 0), 0.0);
  }
}

TEST(Characterizer, SettleRetryRecoversAndIsCounted) {
  // An inverter with a ten-deep series pull-up stack drives its output
  // far slower than the settle-window heuristic (80 ps + 25 ps/fF)
  // assumes: the first attempt fails the settled check, the widened
  // window recovers, and — because the batched path replays every
  // attempt through one engine — the recovered table must still be sane.
  // The retry is observable via charlib.settle_retries.
  cells::CellDef weak;
  weak.name = "WEAKPU";
  weak.base = "WEAKPU";
  weak.inputs = {"A"};
  weak.outputs.push_back({"Y", 0b01});  // Y = !A
  std::string prev = "vdd";
  for (int k = 0; k < 10; ++k) {
    const std::string next = k == 9 ? "Y" : "p" + std::to_string(k);
    weak.transistors.push_back({device::Polarity::kPmos,
                                "mp" + std::to_string(k), next, "A", prev,
                                1});
    prev = next;
  }
  weak.transistors.push_back(
      {device::Polarity::kNmos, "mn0", "Y", "A", "0", 1});
  weak.arcs.push_back({"A", "Y", false, true, {}});

  CharOptions opt;
  opt.temperature = 300.0;
  opt.slews = {8e-12};
  opt.loads = {8e-15};
  opt.characterize_setup_hold = false;

  auto& retries = obs::registry().counter("charlib.settle_retries");
  const auto before = retries.value();
  Characterizer ch(device::golden_nmos(), device::golden_pmos(), opt);
  const CellChar cc = ch.characterize(weak);
  EXPECT_GT(retries.value(), before) << "expected a widened settle window";
  EXPECT_TRUE(cc.failed_arcs.empty());
  ASSERT_EQ(cc.arcs.size(), 1u);
  EXPECT_GT(cc.arcs[0].delay.at(0, 0), 50e-12);
  EXPECT_LT(cc.arcs[0].delay.at(0, 0), 500e-12);
}

TEST(Characterizer, ParallelLibraryIsByteIdenticalToSerial) {
  // The tentpole guarantee of the exec refactor: characterize_all merges
  // per-cell results in input order, so the rendered Liberty text must not
  // depend on the thread count.
  CharOptions opt;
  opt.temperature = 300.0;
  opt.slews = {2e-12, 8e-12};
  opt.loads = {1e-15, 4e-15};
  opt.characterize_setup_hold = false;
  cells::CatalogOptions copt;
  copt.only_bases = {"INV", "NAND2", "NOR2"};
  copt.drives = {1, 2};
  copt.extra_drives_common = {};
  const auto defs = cells::standard_cells(copt);

  const auto render = [&](int threads) {
    CharOptions o = opt;
    o.threads = threads;
    Characterizer ch(device::golden_nmos(), device::golden_pmos(), o);
    return liberty::write(ch.characterize_all(defs, "mini"));
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(4));
}

// Exact (bit-level) equality of two characterized cells.
void expect_same_cell(const CellChar& a, const CellChar& b) {
  SCOPED_TRACE(a.def.name);
  EXPECT_EQ(a.def.name, b.def.name);
  EXPECT_EQ(a.pin_caps, b.pin_caps);
  ASSERT_EQ(a.leakage.size(), b.leakage.size());
  for (std::size_t i = 0; i < a.leakage.size(); ++i) {
    EXPECT_EQ(a.leakage[i].pattern, b.leakage[i].pattern);
    EXPECT_EQ(a.leakage[i].watts, b.leakage[i].watts);
  }
  EXPECT_EQ(a.leakage_avg, b.leakage_avg);
  EXPECT_EQ(a.setup_time, b.setup_time);
  EXPECT_EQ(a.hold_time, b.hold_time);
  EXPECT_EQ(a.failed_arcs, b.failed_arcs);
  ASSERT_EQ(a.arcs.size(), b.arcs.size());
  for (std::size_t k = 0; k < a.arcs.size(); ++k) {
    const NldmArc& x = a.arcs[k];
    const NldmArc& y = b.arcs[k];
    EXPECT_EQ(x.input + x.output, y.input + y.output);
    EXPECT_EQ(x.input_rise, y.input_rise);
    EXPECT_EQ(x.output_rise, y.output_rise);
    for (const auto& [p, q] : {std::pair{&x.delay, &y.delay},
                               std::pair{&x.output_slew, &y.output_slew},
                               std::pair{&x.energy, &y.energy}}) {
      ASSERT_EQ(p->rows(), q->rows());
      ASSERT_EQ(p->cols(), q->cols());
      for (std::size_t i = 0; i < p->rows(); ++i)
        for (std::size_t j = 0; j < p->cols(); ++j)
          EXPECT_EQ(p->at(i, j), q->at(i, j));
    }
  }
}

TEST(Characterizer, PriorityBandPublishesItsCellsAndKeepsTheLibrary) {
  // A priority set reorders wave two and hands its cells over early; the
  // library, the unit list and the counters must not notice.
  CharOptions opt;
  opt.temperature = 300.0;
  opt.slews = {2e-12, 8e-12};
  opt.loads = {1e-15, 4e-15};
  cells::CatalogOptions copt;
  copt.only_bases = {"INV", "NAND2", "DFF"};
  copt.drives = {1, 2};
  copt.extra_drives_common = {};
  copt.include_slvt = false;
  const auto defs = cells::standard_cells(copt);
  const std::vector<std::string> priority = {"DFF_X1", "NAND2_X2", "NOPE"};
  auto& runs = obs::registry().counter("charlib.runs");
  auto& tasks = obs::registry().counter("charlib.tasks");

  std::string reference;
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    CharOptions o = opt;
    o.threads = threads;
    Characterizer ch(device::golden_nmos(), device::golden_pmos(), o);

    const auto runs0 = runs.value();
    const auto tasks0 = tasks.value();
    const Library plain = ch.characterize_all(defs, "mini");
    const auto plain_tasks = tasks.value() - tasks0;
    EXPECT_EQ(runs.value() - runs0, 1u);

    std::vector<Library> published;
    const auto runs1 = runs.value();
    const auto tasks1 = tasks.value();
    const Library lib = ch.characterize_all(
        defs, "mini", priority,
        [&](Library band) { published.push_back(std::move(band)); });
    EXPECT_EQ(runs.value() - runs1, 1u);
    EXPECT_EQ(tasks.value() - tasks1, plain_tasks);

    const std::string text = liberty::write(lib);
    EXPECT_EQ(text, liberty::write(plain));
    if (reference.empty()) reference = text;
    EXPECT_EQ(text, reference);

    ASSERT_EQ(published.size(), 1u);
    const Library& band = published.front();
    EXPECT_EQ(band.name, lib.name);
    EXPECT_EQ(band.temperature, lib.temperature);
    EXPECT_EQ(band.vdd, lib.vdd);
    EXPECT_EQ(band.slew_grid, lib.slew_grid);
    EXPECT_EQ(band.load_grid, lib.load_grid);
    EXPECT_TRUE(band.quarantined_arcs.empty());
    // The set's cells in catalog order; names the catalog lacks are skipped.
    ASSERT_EQ(band.cells.size(), 2u);
    EXPECT_EQ(band.cells[0].def.name, "NAND2_X2");
    EXPECT_EQ(band.cells[1].def.name, "DFF_X1");
    EXPECT_GT(band.cells[1].setup_time, 0.0);
    for (const CellChar& cell : band.cells)
      expect_same_cell(cell, lib.at(cell.def.name));
  }
}

TEST(Characterizer, QuarantineOrderingIsThreadCountInvariant) {
  // Byte-identity under the arc-parallel path must also hold for the
  // failure side: broken cells interleaved between healthy ones yield the
  // same Liberty text AND the same quarantined_arcs list (content and
  // order) at 1, 2, and 8 threads — a relaxed-retry failure on one worker
  // must not reorder the merged catalog.
  CharOptions opt;
  opt.temperature = 300.0;
  opt.slews = {2e-12, 8e-12};
  opt.loads = {1e-15, 4e-15};
  opt.characterize_setup_hold = false;

  const auto broken = [](const std::string& name) {
    cells::CellDef b = cells::make_cell("INV", 1, cells::VtFlavor::kLvt);
    b.name = name;
    b.arcs.resize(1);
    b.arcs[0].output = "Z";  // floating: fails default AND relaxed retry
    b.arcs[0].input_rise = true;
    b.arcs[0].output_rise = false;
    return b;
  };
  const std::vector<cells::CellDef> defs = {
      cells::make_cell("INV", 1, cells::VtFlavor::kLvt),
      broken("INV_BROKEN_A"),
      cells::make_cell("NAND2", 1, cells::VtFlavor::kLvt),
      broken("INV_BROKEN_B"),
  };

  std::vector<std::string> first_quarantine;
  const auto render = [&](int threads) {
    CharOptions o = opt;
    o.threads = threads;
    Characterizer ch(device::golden_nmos(), device::golden_pmos(), o);
    const Library lib = ch.characterize_all(defs, "mixed");
    if (first_quarantine.empty()) first_quarantine = lib.quarantined_arcs;
    std::string text = liberty::write(lib);
    for (const auto& q : lib.quarantined_arcs) text += "\nquarantined " + q;
    return text;
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(2));
  EXPECT_EQ(serial, render(8));
  ASSERT_EQ(first_quarantine.size(), 2u);
  EXPECT_EQ(first_quarantine[0], "INV_BROKEN_A:A_rise->Z_fall");
  EXPECT_EQ(first_quarantine[1], "INV_BROKEN_B:A_rise->Z_fall");
}

TEST(Characterizer, CommittedLibrariesReproduceByteForByte) {
  // Anchors the committed artifacts: a fresh characterization of a
  // combinational, a SLVT, a flip-flop and a latch cell with the golden
  // modelcards and default options must render the same Liberty text as
  // those cells' slice of lib/cryo5_{300k,10k}.lib. Artifact manifests
  // only match input fingerprints, so this is the check that a solver
  // change left the committed numbers where they are.
  const std::vector<std::string> names = {"INV_X1", "NAND2_X2_SLVT", "DFF_X1",
                                          "LATCH_X1"};
  std::vector<cells::CellDef> defs;
  for (const cells::CellDef& def : cells::standard_cells())
    if (std::find(names.begin(), names.end(), def.name) != names.end())
      defs.push_back(def);
  ASSERT_EQ(defs.size(), names.size());

  for (const auto& [temperature, file] :
       {std::pair{300.0, "cryo5_300k.lib"}, std::pair{10.0, "cryo5_10k.lib"}}) {
    Library committed =
        liberty::read_file(core::default_lib_dir() + "/" + file);
    std::vector<CellChar> slice;
    for (const cells::CellDef& def : defs)
      slice.push_back(committed.at(def.name));
    committed.cells = std::move(slice);

    CharOptions opt;
    opt.temperature = temperature;
    Characterizer ch(device::golden_nmos(), device::golden_pmos(), opt);
    EXPECT_EQ(liberty::write(ch.characterize_all(defs, committed.name)),
              liberty::write(committed))
        << file;
  }
}

}  // namespace
}  // namespace cryo::charlib
