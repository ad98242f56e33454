/**
 * @file
 * Microarchitectural property sweeps of the timing model: varying one
 * structural parameter must move IPC in the architecturally expected
 * direction for the kernel that stresses it. These pin down the
 * causal structure the gating labels depend on.
 */

#include <gtest/gtest.h>

#include "core/builder.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "test_util.hh"

using namespace psca;

namespace {

Workload
kernelWorkload(KernelParams kp)
{
    return test::kernelWorkload(kp, 300000, "prop", 77);
}

double
ipcWith(const CoreConfig &core, const Workload &w, CoreMode mode)
{
    BuildConfig cfg;
    cfg.warmupInstr = 60000;
    cfg.intervalInstr = 150000;
    cfg.core = core;
    return IntervalReplay(w, cfg, mode).step().ipc();
}

} // namespace

TEST(SimProperty, MoreMshrsHelpMlpRichOnly)
{
    const Workload mlp_rich = kernelWorkload(
        {.kind = KernelKind::MlpRich, .workingSetBytes = 64 << 20,
         .computePerElem = 1, .mlpDegree = 14});
    const Workload chase = kernelWorkload(
        {.kind = KernelKind::PointerChase,
         .workingSetBytes = 64 << 20});

    CoreConfig few, many;
    few.mshrsPerCluster = 4;
    many.mshrsPerCluster = 20;
    // MLP-rich throughput scales with MSHRs...
    EXPECT_GT(ipcWith(many, mlp_rich, CoreMode::LowPower),
              1.5 * ipcWith(few, mlp_rich, CoreMode::LowPower));
    // ...while a serial chase cannot use them.
    EXPECT_NEAR(ipcWith(many, chase, CoreMode::LowPower),
                ipcWith(few, chase, CoreMode::LowPower), 0.005);
}

TEST(SimProperty, MemoryLatencyHurtsChase)
{
    const Workload chase = kernelWorkload(
        {.kind = KernelKind::PointerChase,
         .workingSetBytes = 64 << 20});
    CoreConfig fast, slow;
    fast.memLatency = 100;
    slow.memLatency = 400;
    EXPECT_GT(ipcWith(fast, chase, CoreMode::HighPerf),
              2.0 * ipcWith(slow, chase, CoreMode::HighPerf));
}

TEST(SimProperty, MispredictPenaltyHurtsBranchy)
{
    const Workload branchy = kernelWorkload(
        {.kind = KernelKind::Branchy, .workingSetBytes = 256 << 10,
         .predictability = 0.7});
    CoreConfig cheap, dear;
    cheap.mispredictPenalty = 4;
    dear.mispredictPenalty = 40;
    EXPECT_GT(ipcWith(cheap, branchy, CoreMode::HighPerf),
              1.3 * ipcWith(dear, branchy, CoreMode::HighPerf));
}

TEST(SimProperty, DramBandwidthCapsStreams)
{
    const Workload stream = kernelWorkload(
        {.kind = KernelKind::Stream, .workingSetBytes = 128 << 20,
         .computePerElem = 2, .fp = true});
    CoreConfig wide, narrow;
    wide.dramSlotCycles = 2;
    narrow.dramSlotCycles = 32;
    EXPECT_GT(ipcWith(wide, stream, CoreMode::HighPerf),
              1.5 * ipcWith(narrow, stream, CoreMode::HighPerf));
}

TEST(SimProperty, RobSizeBoundsMemoryParallelism)
{
    const Workload mlp_rich = kernelWorkload(
        {.kind = KernelKind::MlpRich, .workingSetBytes = 64 << 20,
         .computePerElem = 2, .mlpDegree = 10});
    CoreConfig small, large;
    small.robSize = 32;
    large.robSize = 448;
    EXPECT_GT(ipcWith(large, mlp_rich, CoreMode::HighPerf),
              1.3 * ipcWith(small, mlp_rich, CoreMode::HighPerf));
}

TEST(SimProperty, IssueWidthBoundsIlp)
{
    const Workload ilp =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 14});
    CoreConfig narrow, wide;
    narrow.issueWidthPerCluster = 2;
    wide.issueWidthPerCluster = 6;
    EXPECT_GT(ipcWith(wide, ilp, CoreMode::HighPerf),
              1.5 * ipcWith(narrow, ilp, CoreMode::HighPerf));
    // A serial chain cannot exploit width.
    const Workload serial =
        kernelWorkload({.kind = KernelKind::FpSerial, .fp = true});
    EXPECT_NEAR(ipcWith(wide, serial, CoreMode::HighPerf),
                ipcWith(narrow, serial, CoreMode::HighPerf), 0.02);
}

TEST(SimProperty, InterClusterPenaltySlowsCrossTraffic)
{
    // High penalty must not make anything faster, and should cost
    // visibly on mixed dependency traffic.
    const Workload stencil = kernelWorkload(
        {.kind = KernelKind::Stencil, .workingSetBytes = 2 << 20,
         .strideBytes = 16});
    CoreConfig cheap, dear;
    cheap.interClusterFwdDelay = 0;
    dear.interClusterFwdDelay = 12;
    EXPECT_GE(ipcWith(cheap, stencil, CoreMode::HighPerf),
              ipcWith(dear, stencil, CoreMode::HighPerf) - 0.01);
}

TEST(SimProperty, LargerCachesNeverHurt)
{
    const Workload stencil = kernelWorkload(
        {.kind = KernelKind::Stencil, .workingSetBytes = 2 << 20,
         .strideBytes = 64});
    CoreConfig small, big;
    small.l2 = {256 * 1024, 8, 64, 14};
    big.l2 = {4 * 1024 * 1024, 16, 64, 14};
    EXPECT_GE(ipcWith(big, stencil, CoreMode::HighPerf),
              ipcWith(small, stencil, CoreMode::HighPerf) - 0.02);
}

class GatingOverheadSweep : public ::testing::TestWithParam<int>
{};

TEST_P(GatingOverheadSweep, ToggleCostScalesWithConfig)
{
    // The configured microcode overhead must be visible but bounded:
    // 20 toggles over 200k instructions cost well under 1% per the
    // paper's transition budget (Sec. 3).
    CoreConfig cfg;
    cfg.gateOverheadCycles = GetParam();
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 4});

    ClusteredCore steady(cfg);
    steady.reset();
    steady.setMode(CoreMode::LowPower);
    TraceGenerator g1(w);
    steady.run(g1, 200000);

    ClusteredCore toggling(cfg);
    toggling.reset();
    toggling.setMode(CoreMode::LowPower);
    TraceGenerator g2(w);
    for (int i = 0; i < 20; ++i) {
        toggling.setMode(i % 2 ? CoreMode::HighPerf
                               : CoreMode::LowPower);
        toggling.run(g2, 10000);
    }
    EXPECT_LT(toggling.currentCycle(),
              1.06 * static_cast<double>(steady.currentCycle()));
}

INSTANTIATE_TEST_SUITE_P(Overheads, GatingOverheadSweep,
                         ::testing::Values(4, 12, 24, 48));
