#include <gtest/gtest.h>

#include "classify/kernels.hpp"
#include "common/units.hpp"

namespace cryo::classify {
namespace {

qubit::ReadoutModel& falcon27() {
  static qubit::ReadoutModel model(27, 4242);
  return model;
}

// --- Readout model -----------------------------------------------------------

TEST(Readout, DeterministicCalibration) {
  qubit::ReadoutModel a(8, 7), b(8, 7);
  for (int q = 0; q < 8; ++q) {
    EXPECT_DOUBLE_EQ(a.calibration()[q].i0, b.calibration()[q].i0);
    EXPECT_DOUBLE_EQ(a.calibration()[q].q1, b.calibration()[q].q1);
  }
}

TEST(Readout, BlobsAreSeparated) {
  for (const auto& c : falcon27().calibration()) {
    const double dx = c.i1 - c.i0, dy = c.q1 - c.q0;
    const double separation = std::sqrt(dx * dx + dy * dy);
    EXPECT_GT(separation, 2.0 * c.sigma);  // classifiable
  }
}

TEST(Readout, FidelityDecay) {
  // Paper Fig. 2b: exponential decay with ~110 us decoherence time.
  EXPECT_DOUBLE_EQ(qubit::ReadoutModel::fidelity_after(0.0), 1.0);
  EXPECT_NEAR(qubit::ReadoutModel::fidelity_after(110e-6), std::exp(-1.0),
              1e-12);
  EXPECT_LT(qubit::ReadoutModel::fidelity_after(125e-6), 0.33);
}

TEST(Readout, SampleAllRoundRobin) {
  qubit::ReadoutModel model(5, 3);
  const auto ms = model.sample_all(4);
  ASSERT_EQ(ms.size(), 20u);
  EXPECT_EQ(ms[0].qubit, 0);
  EXPECT_EQ(ms[4].qubit, 4);
  EXPECT_EQ(ms[5].qubit, 0);
}

// --- Host classifiers ----------------------------------------------------------

TEST(Knn, HighAccuracyOnCalibrationLikeData) {
  KnnClassifier knn(falcon27().calibration());
  const auto ms = falcon27().sample_all(50);
  EXPECT_GT(accuracy(knn, ms), 0.95);
}

TEST(Knn, SqrtVariantGivesIdenticalLabels) {
  // The paper's point: sqrt is monotone, so removing it cannot change a
  // single label.
  KnnClassifier plain(falcon27().calibration(), false);
  KnnClassifier with_sqrt(falcon27().calibration(), true);
  const auto ms = falcon27().sample_all(30);
  for (const auto& m : ms)
    EXPECT_EQ(plain.classify(m.qubit, m.i, m.q),
              with_sqrt.classify(m.qubit, m.i, m.q));
}

TEST(Hdc, QuantizationBounds) {
  HdcClassifier hdc(falcon27().calibration());
  EXPECT_EQ(hdc.quantize_i(-1e9), 0);
  EXPECT_EQ(hdc.quantize_i(1e9), hdc.levels() - 1);
  for (double v = -3.0; v < 3.0; v += 0.37) {
    const int level = hdc.quantize_i(v);
    EXPECT_GE(level, 0);
    EXPECT_LT(level, hdc.levels());
  }
}

TEST(Hdc, AdjacentLevelsSimilarDistantDissimilar) {
  HdcClassifier hdc(falcon27().calibration());
  const auto& items = hdc.items_i();
  const int near = hv_popcount(hv_xor(items[10], items[11]));
  const int far = hv_popcount(hv_xor(items[0], items[31]));
  EXPECT_LT(near, 10);
  EXPECT_GT(far, 30);
}

TEST(Hdc, PrecomputedTablesConsistent) {
  HdcClassifier hdc(falcon27().calibration());
  const auto& pre = hdc.precomputed();
  const auto& cls = hdc.class_vectors();
  const auto& items = hdc.items_i();
  const std::size_t levels = static_cast<std::size_t>(hdc.levels());
  for (std::size_t c = 0; c < cls.size(); c += 7) {
    for (std::size_t l = 0; l < levels; l += 5) {
      const Hypervector expect = hv_xor(cls[c], items[l]);
      EXPECT_EQ(pre[c * levels + l][0], expect[0]);
      EXPECT_EQ(pre[c * levels + l][1], expect[1]);
    }
  }
}

TEST(Hdc, AccuracyReasonable) {
  HdcClassifier hdc(falcon27().calibration());
  const auto ms = falcon27().sample_all(50);
  EXPECT_GT(accuracy(hdc, ms), 0.90);
}

// --- Kernels ------------------------------------------------------------------

struct KernelCase {
  const char* name;
  bool hdc;
  bool sqrt_or_precompute;
  bool cpop;
};

class KernelMatch : public ::testing::TestWithParam<KernelCase> {};

TEST_P(KernelMatch, LabelsMatchHostReference) {
  const auto& p = GetParam();
  const auto ms = falcon27().sample_all(20);
  riscv::CpuConfig cfg;
  cfg.has_zbb = p.cpop;
  riscv::Cpu cpu(cfg);
  KernelStats stats;
  if (p.hdc) {
    HdcClassifier hdc(falcon27().calibration());
    stats = run_hdc_kernel(cpu, hdc, ms,
                           {.precompute = p.sqrt_or_precompute,
                            .use_cpop = p.cpop});
  } else {
    KnnClassifier knn(falcon27().calibration(), p.sqrt_or_precompute);
    stats = run_knn_kernel(cpu, knn, ms, {.use_sqrt = p.sqrt_or_precompute});
  }
  EXPECT_TRUE(stats.matches_host) << p.name;
  EXPECT_GT(stats.cycles_per_classification, 5.0);
  EXPECT_LT(stats.cycles_per_classification, 2000.0);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, KernelMatch,
    ::testing::Values(KernelCase{"knn", false, false, false},
                      KernelCase{"knn_sqrt", false, true, false},
                      KernelCase{"hdc_pre", true, true, false},
                      KernelCase{"hdc_naive", true, false, false},
                      KernelCase{"hdc_pre_cpop", true, true, true},
                      KernelCase{"hdc_naive_cpop", true, false, true}),
    [](const auto& info) { return info.param.name; });

TEST(Kernels, HdcSlowerThanKnn) {
  // Paper Table 2: HDC ~3.3x slower due to popcount emulation.
  const auto ms = falcon27().sample_all(40);
  riscv::Cpu cpu_a, cpu_b;
  KnnClassifier knn(falcon27().calibration());
  HdcClassifier hdc(falcon27().calibration());
  const auto k = run_knn_kernel(cpu_a, knn, ms);
  const auto h = run_hdc_kernel(cpu_b, hdc, ms);
  const double ratio =
      h.cycles_per_classification / k.cycles_per_classification;
  EXPECT_GT(ratio, 2.0);
  EXPECT_LT(ratio, 6.0);
}

TEST(Kernels, CpopSpeedsUpHdc) {
  // Paper Sec. VI-C: "hardware support would reduce the computation time
  // significantly".
  const auto ms = falcon27().sample_all(40);
  HdcClassifier hdc(falcon27().calibration());
  riscv::Cpu soft;
  riscv::CpuConfig cfg;
  cfg.has_zbb = true;
  riscv::Cpu hard(cfg);
  const auto s = run_hdc_kernel(soft, hdc, ms);
  const auto h = run_hdc_kernel(hard, hdc, ms, {.use_cpop = true});
  EXPECT_LT(h.cycles_per_classification,
            0.85 * s.cycles_per_classification);
}

TEST(Kernels, MoreQubitsMoreCyclesPerClassification) {
  // Paper Table 2: growth from 20 to 400 qubits via cache misses.
  auto cycles_for = [](int qubits) {
    qubit::ReadoutModel model(qubits, 777);
    KnnClassifier knn(model.calibration());
    const auto ms = model.sample_all(std::max(2000 / qubits, 3));
    riscv::Cpu cpu;
    return run_knn_kernel(cpu, knn, ms).cycles_per_classification;
  };
  EXPECT_GT(cycles_for(400), cycles_for(20));
}

TEST(Kernels, SqrtAblationCostsCycles) {
  const auto ms = falcon27().sample_all(30);
  KnnClassifier knn(falcon27().calibration());
  riscv::Cpu a, b;
  const auto plain = run_knn_kernel(a, knn, ms, {.use_sqrt = false});
  KnnClassifier knn_sqrt(falcon27().calibration(), true);
  const auto with_sqrt = run_knn_kernel(b, knn_sqrt, ms, {.use_sqrt = true});
  EXPECT_GT(with_sqrt.cycles_per_classification,
            plain.cycles_per_classification + 2.0);
  // Labels must nevertheless agree (monotone transform).
  EXPECT_EQ(plain.labels, with_sqrt.labels);
}

TEST(Kernels, SourcesAreWellFormed) {
  // The generated assembly must assemble cleanly in all variants.
  for (const bool sqrt_opt : {false, true})
    EXPECT_NO_THROW(riscv::assemble(knn_kernel_source({sqrt_opt})));
  for (const bool pre : {false, true})
    for (const bool cpop : {false, true})
      EXPECT_NO_THROW(riscv::assemble(hdc_kernel_source({pre, cpop})));
}

TEST(Kernels, EmptyMeasurementsRejected) {
  riscv::Cpu cpu;
  KnnClassifier knn(falcon27().calibration());
  EXPECT_THROW(run_knn_kernel(cpu, knn, {}), std::invalid_argument);
}

// --- Golden counts -------------------------------------------------------------

// Exact ISS counters of both kernels on a fixed small input, recorded
// with the straightforward simulator (byte-wise memory, a decode per
// fetch, division-indexed caches). The fast paths must reproduce every
// count bit for bit: Table 2's cycles per classification are these
// numbers.
struct GoldenPerf {
  std::uint64_t instructions, cycles, stall_cycles, l1i_misses, l1d_misses,
      l2_misses, label_hash;
};

void expect_golden(const KernelStats& s, const GoldenPerf& g) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const int label : s.labels)
    hash = (hash ^ static_cast<std::uint64_t>(label)) * 1099511628211ull;
  EXPECT_TRUE(s.matches_host);
  EXPECT_EQ(s.perf.instructions, g.instructions);
  EXPECT_EQ(s.perf.cycles, g.cycles);
  EXPECT_EQ(s.perf.stall_cycles, g.stall_cycles);
  EXPECT_EQ(s.perf.l1i_misses, g.l1i_misses);
  EXPECT_EQ(s.perf.l1d_misses, g.l1d_misses);
  EXPECT_EQ(s.perf.l2_misses, g.l2_misses);
  EXPECT_EQ(hash, g.label_hash);
}

TEST(Kernels, GoldenPerfCounts) {
  qubit::ReadoutModel model(27, 2022);
  const auto ms = model.sample_all(12);
  const KnnClassifier knn(model.calibration());
  const HdcClassifier hdc(model.calibration());
  riscv::Cpu knn_cpu, hdc_cpu;
  expect_golden(run_knn_kernel(knn_cpu, knn, ms),
                {8101, 10367, 1620, 0, 0, 0, 7425938689941070484ull});
  expect_golden(run_hdc_kernel(hdc_cpu, hdc, ms),
                {29841, 44383, 11304, 0, 240, 0, 17703733402779256857ull});

  // Caches small enough that the measured pass misses at every level.
  riscv::CpuConfig tiny;
  tiny.l1i = {256, 1, 64};
  tiny.l1d = {1024, 2, 32};
  tiny.l2 = {4096, 4, 64};
  riscv::Cpu knn_tiny(tiny), hdc_tiny(tiny);
  expect_golden(run_knn_kernel(knn_tiny, knn, ms),
                {8101, 25551, 16804, 0, 540, 128, 7425938689941070484ull});
  expect_golden(run_hdc_kernel(hdc_tiny, hdc, ms),
                {29841, 124039, 90960, 1301, 1126, 795,
                 17703733402779256857ull});
}

}  // namespace
}  // namespace cryo::classify
