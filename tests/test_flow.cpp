// End-to-end integration tests of the cryosoc flow. These load the
// committed Liberty artifacts (lib/cryo5_*.lib); when absent they fall
// back to characterizing the full catalog, which is slow but correct.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>

#include "classify/kernels.hpp"
#include "common/units.hpp"
#include "core/artifacts.hpp"
#include "core/flow.hpp"
#include "liberty/liberty.hpp"
#include "obs/metrics.hpp"

namespace cryo::core {
namespace {

CryoSocFlow& flow() {
  static CryoSocFlow f = [] {
    FlowConfig config;
    config.calibrate_devices = false;  // golden cards; calibration has its
                                       // own test suite
    return CryoSocFlow(config);
  }();
  return f;
}

TEST(Flow, LibrariesLoadWithFullCatalog) {
  const auto lib300 = flow().library(flow().corner(300.0));
  const auto lib10 = flow().library(flow().corner(10.0));
  EXPECT_GE(lib300->cells.size(), 180u);
  EXPECT_EQ(lib300->cells.size(), lib10->cells.size());
  EXPECT_DOUBLE_EQ(lib300->temperature, 300.0);
  EXPECT_DOUBLE_EQ(lib10->temperature, 10.0);
}

TEST(Flow, LibraryWideDelayOverlap) {
  // Paper Fig. 5: the 300 K and 10 K delay histograms overlap to a large
  // degree. Compare mean delays across all cells/arcs/conditions.
  double sum300 = 0.0, sum10 = 0.0;
  std::size_t n = 0;
  const auto& lib300 = *flow().library(flow().corner(300.0));
  const auto& lib10 = *flow().library(flow().corner(10.0));
  for (std::size_t c = 0; c < lib300.cells.size(); ++c) {
    for (std::size_t a = 0; a < lib300.cells[c].arcs.size(); ++a) {
      const auto& t300 = lib300.cells[c].arcs[a].delay;
      const auto& t10 = lib10.cells[c].arcs[a].delay;
      for (std::size_t i = 0; i < t300.rows(); ++i) {
        for (std::size_t j = 0; j < t300.cols(); ++j) {
          sum300 += t300.at(i, j);
          sum10 += t10.at(i, j);
          ++n;
        }
      }
    }
  }
  ASSERT_GT(n, 1000u);
  const double ratio = sum10 / sum300;
  EXPECT_GT(ratio, 0.9);
  EXPECT_LT(ratio, 1.25);
}

TEST(Flow, LibraryWideLeakageCollapse) {
  const auto& lib300 = *flow().library(flow().corner(300.0));
  const auto& lib10 = *flow().library(flow().corner(10.0));
  double leak300 = 0.0, leak10 = 0.0;
  for (std::size_t c = 0; c < lib300.cells.size(); ++c) {
    leak300 += lib300.cells[c].leakage_avg;
    leak10 += lib10.cells[c].leakage_avg;
  }
  EXPECT_GT(leak300 / leak10, 50.0);
}

TEST(Flow, SocTimingMatchesTable1Shape) {
  const auto t300 = flow().timing(flow().corner(300.0));
  const auto t10 = flow().timing(flow().corner(10.0));
  // Table 1: a small slowdown (<10 %) at 10 K, same critical structure.
  EXPECT_GT(t10.critical_delay, t300.critical_delay * 0.98);
  EXPECT_LT(t10.critical_delay, t300.critical_delay * 1.10);
  EXPECT_GT(t300.fmax, 300e6);
  EXPECT_LT(t300.fmax, 6e9);
  EXPECT_FALSE(t300.critical_path.empty());
}

TEST(Flow, WorkloadPowerMatchesFig6Shape) {
  qubit::ReadoutModel model(27, 5);
  classify::KnnClassifier knn(model.calibration());
  const auto ms = model.sample_all(50);
  riscv::Cpu cpu(flow().config().cpu);
  const auto stats = classify::run_knn_kernel(cpu, knn, ms);
  ASSERT_TRUE(stats.matches_host);

  const double f = flow().timing(flow().corner(300.0)).fmax;
  const auto profile = flow().activity_from_perf(stats.perf, f);
  const auto p300 = flow().workload_power(flow().corner(300.0), profile);
  const auto p10 = flow().workload_power(flow().corner(10.0), profile);

  // Fig. 6 shape: dynamic power similar at both temperatures; leakage
  // dominated by SRAM at 300 K and nearly gone at 10 K.
  EXPECT_NEAR(p10.dynamic() / p300.dynamic(), 1.0, 0.25);
  EXPECT_GT(p300.leakage_sram, 100e-3);
  EXPECT_LT(p10.leakage(), 5e-3);
  EXPECT_GT(p300.total(), kCoolingBudget10K);  // infeasible at 300 K
  EXPECT_LT(p10.total(), kCoolingBudget10K);   // feasible at 10 K
  // >99 % leakage reduction (paper: 99.76 %).
  EXPECT_GT(1.0 - p10.leakage() / p300.leakage(), 0.99);
}

// FNV-1a over the bits of each report's five doubles.
std::uint64_t power_hash(const std::vector<power::PowerReport>& reports) {
  std::string bytes;
  for (const power::PowerReport& r : reports)
    for (const double v : {r.dynamic_logic, r.dynamic_sram, r.dynamic_glitch,
                           r.leakage_logic, r.leakage_sram})
      bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  return fnv1a64(bytes);
}

// Recorded with the analyzer that looked up every gate's switching energy
// per call: the uniform path at both committed corners, bit for bit.
TEST(Flow, WorkloadPowerGolden) {
  std::vector<power::PowerReport> uniform;
  for (const double t : {300.0, 10.0}) {
    const Corner c = flow().corner(t);
    const double fmax = flow().timing(c).fmax;
    for (const double activity : {0.05, 0.3}) {
      for (const double f : {fmax, 1e9}) {
        power::ActivityProfile profile;
        profile.clock_frequency = f;
        profile.default_activity = activity;
        uniform.push_back(flow().workload_power(c, profile));
      }
    }
  }
  EXPECT_EQ(power_hash(uniform), 0x59a8bb4b2d198ba3ull);

  // Unit prefixes (longest match) and SRAM rates (first match).
  riscv::Perf perf;
  perf.cycles = 12000;
  perf.instructions = 9000;
  perf.alu_ops = 4100;
  perf.mul_ops = 300;
  perf.fpu_ops = 120;
  perf.loads = 1800;
  perf.stores = 700;
  perf.l1i_misses = 40;
  perf.l1d_misses = 95;
  std::vector<power::PowerReport> from_perf;
  for (const double t : {300.0, 10.0})
    from_perf.push_back(flow().workload_power(
        flow().corner(t), flow().activity_from_perf(perf, 1.5e9)));
  EXPECT_EQ(power_hash(from_perf), 0x520d79d59f5b76f3ull);
}

TEST(Flow, ActivityProfileSane) {
  riscv::Perf perf;
  perf.cycles = 1000;
  perf.instructions = 700;
  perf.alu_ops = 300;
  perf.loads = 150;
  perf.stores = 50;
  perf.l1d_misses = 10;
  const auto profile = flow().activity_from_perf(perf, 1e9);
  EXPECT_DOUBLE_EQ(profile.clock_frequency, 1e9);
  for (const auto& [unit, act] : profile.unit_activity) {
    EXPECT_GE(act, 0.0) << unit;
    EXPECT_LE(act, 1.0) << unit;
  }
  EXPECT_GT(profile.sram_reads_per_cycle.at("l1i_tags"), 0.0);
}

TEST(Flow, DerivedCornerNamesKeepExactTemperature) {
  // corner(T) derives a label from the exact temperature — nothing snaps
  // (the old scalar-temperature shims that snapped to 300 K / 10 K are
  // gone; every call sites a Corner now).
  Corner c77 = flow().corner(77.0);
  EXPECT_DOUBLE_EQ(c77.temperature, 77.0);
  EXPECT_EQ(c77.label(), "77k");
  EXPECT_DOUBLE_EQ(flow().sram_model(c77).temperature(), 77.0);
}

TEST(Flow, ConfigValidationRejectsZeroCacheCapacity) {
  FlowConfig config;
  config.corner_cache_capacity = 0;
  try {
    CryoSocFlow f(config);
    FAIL() << "expected FlowError{config}";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "config");
    EXPECT_NE(std::string(e.what()).find("corner_cache_capacity"),
              std::string::npos);
  }
}

TEST(Flow, ConfigValidationRejectsNegativeCharacterizeThreads) {
  FlowConfig config;
  config.characterize_threads = -1;
  try {
    CryoSocFlow f(config);
    FAIL() << "expected FlowError{config}";
  } catch (const FlowError& e) {
    EXPECT_EQ(e.stage(), "config");
    EXPECT_NE(std::string(e.what()).find("characterize_threads"),
              std::string::npos);
  }
}

TEST(Flow, ConfigValidationRejectsNonPhysicalAnchors) {
  for (const std::vector<double>& anchors :
       {std::vector<double>{std::nan(""), 10.0}, std::vector<double>{-5.0, 10.0},
        std::vector<double>{0.0, 300.0},
        std::vector<double>{10.0, std::numeric_limits<double>::infinity()}}) {
    FlowConfig config;
    config.interp_anchor_temps = anchors;
    try {
      CryoSocFlow f(config);
      FAIL() << "expected FlowError{config} for anchor " << anchors[0];
    } catch (const FlowError& e) {
      EXPECT_EQ(e.stage(), "config");
      EXPECT_NE(std::string(e.what()).find("interp_anchor_temps"),
                std::string::npos);
    }
  }
}

TEST(Flow, ConfigValidationAcceptsDefaults) {
  // The defaults (capacity 8, threads 0) and explicit valid values pass.
  FlowConfig config;
  config.corner_cache_capacity = 1;
  config.characterize_threads = 2;
  config.calibrate_devices = false;
  EXPECT_NO_THROW(CryoSocFlow{config});
}

TEST(Flow, DefaultLibDirFindsArtifacts) {
  // In-tree test runs should locate lib/ via the marker file.
  const std::string dir = default_lib_dir();
  EXPECT_FALSE(dir.empty());
}

TEST(Flow, RejectsSingleModelcardOverride) {
  FlowConfig config;
  config.nmos_override = device::golden_nmos();
  CryoSocFlow f(config);
  EXPECT_THROW(f.nmos(), std::invalid_argument);
}

TEST(ArtifactStore, FingerprintTracksEveryInput) {
  const auto n = device::golden_nmos();
  const auto p = device::golden_pmos();
  const cells::CatalogOptions cat;
  const auto base = library_artifact_key(n, p, cat, 0.7, 300.0);
  // Deterministic for identical inputs.
  EXPECT_EQ(base.fingerprint,
            library_artifact_key(n, p, cat, 0.7, 300.0).fingerprint);
  EXPECT_FALSE(base.fields.empty());
  EXPECT_EQ(base.manifest().fingerprint, base.fingerprint);

  // Any single input moving must move the fingerprint.
  auto n2 = n;
  n2.VTH0 += 1e-6;
  EXPECT_NE(library_artifact_key(n2, p, cat, 0.7, 300.0).fingerprint,
            base.fingerprint);
  auto p2 = p;
  p2.U0 *= 1.0001;
  EXPECT_NE(library_artifact_key(n, p2, cat, 0.7, 300.0).fingerprint,
            base.fingerprint);
  cells::CatalogOptions cat2 = cat;
  cat2.drives = {1};
  EXPECT_NE(library_artifact_key(n, p, cat2, 0.7, 300.0).fingerprint,
            base.fingerprint);
  cells::CatalogOptions cat3 = cat;
  cat3.include_slvt = false;
  EXPECT_NE(library_artifact_key(n, p, cat3, 0.7, 300.0).fingerprint,
            base.fingerprint);
  EXPECT_NE(library_artifact_key(n, p, cat, 0.8, 300.0).fingerprint,
            base.fingerprint);
  EXPECT_NE(library_artifact_key(n, p, cat, 0.7, 10.0).fingerprint,
            base.fingerprint);
  EXPECT_NE(
      library_artifact_key(n, p, cat, 0.7, 300.0, "charlib-v999").fingerprint,
      base.fingerprint);
}

TEST(ArtifactStore, FreshnessRequiresFileAndMatchingManifest) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_manifest";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string lib_path = (dir / "x.lib").string();
  const auto key = library_artifact_key(device::golden_nmos(),
                                        device::golden_pmos(), {}, 0.7, 300.0);

  EXPECT_FALSE(artifact_fresh(lib_path, key));  // no file
  std::ofstream(lib_path) << "placeholder";
  EXPECT_FALSE(artifact_fresh(lib_path, key));  // no manifest
  liberty::write_manifest(lib_path, key.manifest());
  EXPECT_TRUE(artifact_fresh(lib_path, key));
  const auto round = liberty::read_manifest(lib_path);
  ASSERT_TRUE(round.has_value());
  EXPECT_EQ(round->fingerprint, key.fingerprint);
  EXPECT_EQ(round->fields, key.manifest().fields);

  auto other = key;
  other.fingerprint ^= 1;
  EXPECT_FALSE(artifact_fresh(lib_path, other));  // mismatched fingerprint
  std::ofstream(liberty::manifest_path(lib_path)) << "garbage\n";
  EXPECT_FALSE(artifact_fresh(lib_path, key));  // malformed manifest
  fs::remove_all(dir);
}

TEST(ArtifactStore, ReusesFreshAndRegeneratesStale) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_store";
  fs::remove_all(dir);

  FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = dir.string();
  config.catalog.only_bases = {"INV"};
  config.catalog.drives = {1};
  config.catalog.extra_drives_common = {};
  config.catalog.include_slvt = false;

  // Cold store: characterizes and writes the artifact plus its manifest.
  CryoSocFlow first(config);
  EXPECT_EQ(first.library(first.corner(300.0))->name, "cryo5_300k");
  const fs::path lib_path = dir / "cryo5_300k.lib";
  ASSERT_TRUE(fs::exists(lib_path));
  const auto manifest = liberty::read_manifest(lib_path.string());
  ASSERT_TRUE(manifest.has_value());

  // Poke the artifact (rename the library inside the file). A fresh flow
  // with an unchanged config must load the edited file as-is — proof the
  // store was trusted and no SPICE re-characterization ran.
  auto poked = liberty::read_file(lib_path.string());
  poked.name = "poked";
  liberty::write_file(poked, lib_path.string());
  CryoSocFlow second(config);
  EXPECT_EQ(second.library(second.corner(300.0))->name, "poked");

  // Perturb a fingerprint input (NMOS threshold): the manifest no longer
  // matches, so the library is re-characterized and the artifact rewritten
  // under its canonical name with an updated manifest.
  FlowConfig shifted = config;
  auto n = device::golden_nmos();
  n.VTH0 += 5e-3;
  shifted.nmos_override = n;
  shifted.pmos_override = device::golden_pmos();
  CryoSocFlow third(shifted);
  EXPECT_EQ(third.library(third.corner(300.0))->name, "cryo5_300k");
  const auto manifest2 = liberty::read_manifest(lib_path.string());
  ASSERT_TRUE(manifest2.has_value());
  EXPECT_NE(manifest2->fingerprint, manifest->fingerprint);

  // A missing manifest also invalidates: the poke is overwritten again.
  auto poked2 = liberty::read_file(lib_path.string());
  poked2.name = "poked2";
  liberty::write_file(poked2, lib_path.string());
  fs::remove(liberty::manifest_path(lib_path.string()));
  CryoSocFlow fourth(shifted);
  EXPECT_EQ(fourth.library(fourth.corner(300.0))->name, "cryo5_300k");
  fs::remove_all(dir);
}

TEST(ArtifactStore, QuarantinedLibraryIsNeverReused) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "cryosoc_quarantine";
  fs::remove_all(dir);

  // One healthy INV plus a hostile cell whose only arc measures a node
  // that nothing drives: that arc cannot converge and must be quarantined.
  cells::CellDef broken = cells::make_cell("INV", 1, cells::VtFlavor::kLvt);
  broken.name = "INV_BROKEN";
  broken.arcs.resize(1);
  broken.arcs[0].output = "Z";
  broken.arcs[0].input_rise = true;
  broken.arcs[0].output_rise = false;

  FlowConfig config;
  config.calibrate_devices = false;
  config.lib_dir = dir.string();
  config.cells_override = {
      {cells::make_cell("INV", 1, cells::VtFlavor::kLvt), broken}};

  // The run completes despite the hostile arc: exactly that arc is
  // quarantined, the rest of the library is intact.
  CryoSocFlow first(config);
  const auto lib = first.library(first.corner(300.0));
  ASSERT_EQ(lib->cells.size(), 2u);
  ASSERT_EQ(lib->quarantined_arcs.size(), 1u);
  EXPECT_EQ(lib->quarantined_arcs[0], "INV_BROKEN:A_rise->Z_fall");
  EXPECT_EQ(lib->cells[0].arcs.size(), 2u);

  // The written manifest records the quarantine ...
  const fs::path lib_path = dir / "cryo5_300k.lib";
  ASSERT_TRUE(fs::exists(lib_path));
  const auto manifest = liberty::read_manifest(lib_path.string());
  ASSERT_TRUE(manifest.has_value());
  ASSERT_EQ(manifest->quarantined.size(), 1u);
  EXPECT_EQ(manifest->quarantined[0], "INV_BROKEN:A_rise->Z_fall");

  // ... which makes the artifact permanently stale under its own key.
  const auto key = library_artifact_key(
      device::golden_nmos(), device::golden_pmos(), config.catalog, 0.7,
      300.0, kCharacterizerVersion, &*config.cells_override);
  EXPECT_FALSE(artifact_fresh(lib_path.string(), key));

  // A second flow must re-characterize instead of trusting the degraded
  // artifact (a library loaded from disk never carries a quarantine list,
  // so its presence proves a fresh characterization ran).
  auto& regenerated = obs::registry().counter("artifacts.regenerated");
  const auto regen0 = regenerated.value();
  CryoSocFlow second(config);
  const auto lib2 = second.library(second.corner(300.0));
  EXPECT_EQ(regenerated.value() - regen0, 1u);
  ASSERT_EQ(lib2->quarantined_arcs.size(), 1u);

  // Overriding the cell list perturbs the artifact key, so hostile runs
  // can never collide with catalog artifacts.
  EXPECT_NE(key.fingerprint,
            library_artifact_key(device::golden_nmos(), device::golden_pmos(),
                                 config.catalog, 0.7, 300.0,
                                 kCharacterizerVersion)
                .fingerprint);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cryo::core
