/**
 * @file
 * Tests for the synthetic workload substrate: kernels, genomes,
 * trace generation, and the corpora.
 */

#include <gtest/gtest.h>

#include <map>

#include "trace/corpus.hh"
#include "trace/generator.hh"
#include "test_util.hh"

using namespace psca;

namespace {

Workload
kernelWorkload(KernelParams kp, uint64_t len = 20000)
{
    return test::kernelWorkload(kp, len, "test", 99);
}

} // namespace

class AllKernels : public ::testing::TestWithParam<KernelKind>
{};

TEST_P(AllKernels, EmitsExactCount)
{
    KernelParams kp;
    kp.kind = GetParam();
    TraceGenerator gen(kernelWorkload(kp));
    std::vector<MicroOp> ops;
    gen.fill(ops, 5000);
    EXPECT_EQ(ops.size(), 5000u);
    EXPECT_EQ(gen.produced(), 5000u);
}

TEST_P(AllKernels, DeterministicAcrossReset)
{
    KernelParams kp;
    kp.kind = GetParam();
    TraceGenerator gen(kernelWorkload(kp));
    std::vector<MicroOp> a, b;
    gen.fill(a, 3000);
    gen.reset();
    gen.fill(b, 3000);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << i;
        EXPECT_EQ(a[i].dst, b[i].dst) << i;
        EXPECT_EQ(a[i].branchTaken, b[i].branchTaken) << i;
    }
}

TEST_P(AllKernels, ChunkingInvariant)
{
    KernelParams kp;
    kp.kind = GetParam();
    TraceGenerator g1(kernelWorkload(kp));
    TraceGenerator g2(kernelWorkload(kp));
    std::vector<MicroOp> a, b;
    g1.fill(a, 2000);
    for (int i = 0; i < 20; ++i)
        g2.fill(b, 100);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].pc, b[i].pc) << i;
}

TEST_P(AllKernels, MemOpsCarryAddresses)
{
    KernelParams kp;
    kp.kind = GetParam();
    TraceGenerator gen(kernelWorkload(kp));
    std::vector<MicroOp> ops;
    gen.fill(ops, 5000);
    for (const auto &op : ops) {
        if (op.isMem()) {
            EXPECT_GT(op.addr, 0u);
            EXPECT_GT(op.memSize, 0);
        }
        if (op.dst != kNoReg) {
            EXPECT_GE(op.dst, 0);
            EXPECT_LT(op.dst, kNumArchRegs);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllKernels,
    ::testing::Values(KernelKind::Stream, KernelKind::PointerChase,
                      KernelKind::Ilp, KernelKind::Branchy,
                      KernelKind::MlpRich, KernelKind::Stencil,
                      KernelKind::FpSerial));

TEST(Kernels, BranchDensityIndependentOfIlpDegree)
{
    // The saturation blindspot requires that chain count not leak
    // through branch density.
    double density[2];
    int idx = 0;
    for (uint8_t chains : {3, 14}) {
        KernelParams kp;
        kp.kind = KernelKind::Ilp;
        kp.chains = chains;
        TraceGenerator gen(kernelWorkload(kp));
        std::vector<MicroOp> ops;
        gen.fill(ops, 20000);
        int branches = 0;
        for (const auto &op : ops)
            branches += op.isBranch() ? 1 : 0;
        density[idx++] = branches / 20000.0;
    }
    EXPECT_NEAR(density[0], density[1], 0.005);
}

TEST(Kernels, PointerChaseIsDependent)
{
    KernelParams kp;
    kp.kind = KernelKind::PointerChase;
    kp.chains = 1;
    TraceGenerator gen(kernelWorkload(kp));
    std::vector<MicroOp> ops;
    gen.fill(ops, 1000);
    // Every load's address register must be written by the preceding
    // addr-calc, which reads the previous load's destination.
    for (size_t i = 1; i < ops.size(); ++i) {
        if (ops[i].isLoad()) {
            EXPECT_EQ(ops[i - 1].dst, ops[i].src0);
        }
    }
}

TEST(Genome, SamplingIsDeterministic)
{
    const AppGenome a = sampleGenome(AppCategory::HpcPerf, 123);
    const AppGenome b = sampleGenome(AppCategory::HpcPerf, 123);
    ASSERT_EQ(a.phases.size(), b.phases.size());
    for (size_t i = 0; i < a.phases.size(); ++i) {
        EXPECT_EQ(a.phases[i].kernel.kind, b.phases[i].kernel.kind);
        EXPECT_DOUBLE_EQ(a.phases[i].weight, b.phases[i].weight);
    }
}

TEST(Genome, DifferentSeedsDiffer)
{
    const AppGenome a = sampleGenome(AppCategory::Multimedia, 1);
    const AppGenome b = sampleGenome(AppCategory::Multimedia, 2);
    EXPECT_NE(a.name, b.name);
}

TEST(Generator, InputSeedChangesTraceButNotIdentity)
{
    const AppGenome g = sampleGenome(AppCategory::CloudSecurity, 5);
    Workload w1, w2;
    w1.genome = w2.genome = g;
    w1.inputSeed = 1;
    w2.inputSeed = 2;
    w1.lengthInstr = w2.lengthInstr = 5000;
    TraceGenerator g1(w1), g2(w2);
    std::vector<MicroOp> a, b;
    g1.fill(a, 5000);
    g2.fill(b, 5000);
    int diff = 0;
    for (size_t i = 0; i < a.size(); ++i)
        diff += a[i].pc != b[i].pc ? 1 : 0;
    EXPECT_GT(diff, 0);
}

TEST(Corpus, HdtrMatchesTable1)
{
    HdtrCategorySizes sizes;
    EXPECT_EQ(sizes.total(), 593);
    const auto apps = buildHdtrApps(593);
    EXPECT_EQ(apps.size(), 593u);
    std::map<AppCategory, int> per_cat;
    for (const auto &a : apps)
        ++per_cat[a.category];
    EXPECT_EQ(per_cat[AppCategory::HpcPerf], 176);
    EXPECT_EQ(per_cat[AppCategory::CloudSecurity], 75);
    EXPECT_EQ(per_cat[AppCategory::AiAnalytics], 34);
    EXPECT_EQ(per_cat[AppCategory::WebProductivity], 171);
    EXPECT_EQ(per_cat[AppCategory::Multimedia], 80);
    EXPECT_EQ(per_cat[AppCategory::GamesRendering], 57);
}

TEST(Corpus, HdtrPrefixStaysDiverse)
{
    const auto apps = buildHdtrApps(60);
    std::map<AppCategory, int> per_cat;
    for (const auto &a : apps)
        ++per_cat[a.category];
    EXPECT_GE(per_cat.size(), 5u);
}

TEST(Corpus, HdtrTraceCountAveragesPaperRatio)
{
    const auto apps = buildHdtrApps(593);
    int total = 0;
    for (const auto &a : apps)
        total += hdtrTraceCount(a);
    // Paper: 2,648 traces over 593 apps.
    EXPECT_NEAR(total, 2648, 150);
}

TEST(Corpus, SpecMatchesTable2)
{
    const auto suite = buildSpecApps();
    ASSERT_EQ(suite.size(), 20u);
    int workloads = 0, fp = 0;
    for (const auto &app : suite) {
        workloads += app.numInputs;
        fp += app.isFp ? 1 : 0;
    }
    // Table 2's per-app counts sum to 117 (the paper's prose says
    // "118 workloads"; the table itself adds to 117).
    EXPECT_EQ(workloads, 117);
    EXPECT_EQ(fp, 10);
}

TEST(Corpus, SpecWorkloadExpansion)
{
    const auto suite = buildSpecApps();
    const auto traces = allSpecWorkloads(suite, 100000, 2);
    EXPECT_EQ(traces.size(), 117u * 2u);
    for (const auto &t : traces)
        EXPECT_EQ(t.lengthInstr, 100000u);
}
