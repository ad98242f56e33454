/**
 * @file
 * Tests and property sweeps for the clustered core timing model:
 * per-kernel IPC-ratio invariants (the labels everything else is
 * built on), counter consistency, mode-switch costs, determinism.
 */

#include <gtest/gtest.h>

#include "core/builder.hh"
#include "sim/core.hh"
#include "trace/generator.hh"
#include "test_util.hh"

using namespace psca;

namespace {

Workload
kernelWorkload(KernelParams kp, uint64_t seed = 42)
{
    return test::kernelWorkload(kp, 400000, "sim_test", seed);
}

/** IPC of a 150k-instruction interval after a 60k warmup. */
double
ipcOf(const Workload &w, CoreMode mode)
{
    BuildConfig cfg;
    cfg.warmupInstr = 60000;
    cfg.intervalInstr = 150000;
    return IntervalReplay(w, cfg, mode).step().ipc();
}

struct RatioCase
{
    const char *name;
    KernelParams kernel;
    double minRatio;
    double maxRatio;
};

} // namespace

class KernelRatio : public ::testing::TestWithParam<RatioCase>
{};

TEST_P(KernelRatio, LowOverHighIpcInExpectedBand)
{
    const RatioCase &c = GetParam();
    const Workload w = kernelWorkload(c.kernel);
    const double high = ipcOf(w, CoreMode::HighPerf);
    const double low = ipcOf(w, CoreMode::LowPower);
    const double ratio = low / high;
    EXPECT_GE(ratio, c.minRatio) << c.name;
    EXPECT_LE(ratio, c.maxRatio) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    Bands, KernelRatio,
    ::testing::Values(
        // Width-hungry kernels lose badly when gated.
        RatioCase{"ilp14", {.kind = KernelKind::Ilp, .chains = 14},
                  0.40, 0.75},
        RatioCase{"ilp10fp",
                  {.kind = KernelKind::Ilp, .chains = 10, .fp = true},
                  0.40, 0.75},
        RatioCase{"stream_hot",
                  {.kind = KernelKind::Stream,
                   .workingSetBytes = 64 << 10, .computePerElem = 5},
                  0.35, 0.75},
        RatioCase{"mlp_rich",
                  {.kind = KernelKind::MlpRich,
                   .workingSetBytes = 64 << 20, .computePerElem = 1,
                   .mlpDegree = 12},
                  0.45, 0.85},
        // Gating-friendly kernels barely notice.
        RatioCase{"ilp3", {.kind = KernelKind::Ilp, .chains = 3},
                  0.92, 1.05},
        RatioCase{"fp_serial", {.kind = KernelKind::FpSerial,
                                .fp = true},
                  0.92, 1.05},
        RatioCase{"chase_dram",
                  {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 64 << 20},
                  0.95, 1.05},
        RatioCase{"chase_multi",
                  {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 64 << 20, .chains = 8},
                  0.92, 1.05},
        RatioCase{"stream_dram",
                  {.kind = KernelKind::Stream,
                   .workingSetBytes = 128 << 20, .computePerElem = 2,
                   .fp = true},
                  0.92, 1.05},
        RatioCase{"branchy",
                  {.kind = KernelKind::Branchy,
                   .workingSetBytes = 512 << 10,
                   .predictability = 0.85},
                  0.92, 1.05}));

TEST(CoreSim, InstructionCountsExact)
{
    ClusteredCore core;
    core.reset();
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 4});
    TraceGenerator gen(w);
    core.run(gen, 50000);
    EXPECT_EQ(core.counters().value(Ctr::InstRetired), 50000u);
    EXPECT_EQ(core.counters().value(Ctr::UopsRetired), 50000u);
    EXPECT_EQ(core.counters().value(Ctr::UopsIssuedTotal), 50000u);
}

TEST(CoreSim, CycleCounterMatchesHorizon)
{
    ClusteredCore core;
    core.reset();
    const Workload w =
        kernelWorkload({.kind = KernelKind::Branchy,
                        .workingSetBytes = 1 << 20});
    TraceGenerator gen(w);
    core.run(gen, 20000);
    core.run(gen, 20000);
    EXPECT_EQ(core.counters().value(Ctr::Cycles), core.currentCycle());
}

TEST(CoreSim, LowPowerModeUsesOnlyCluster0)
{
    ClusteredCore core;
    core.reset();
    core.setMode(CoreMode::LowPower);
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 12});
    TraceGenerator gen(w);
    core.run(gen, 30000);
    const auto &reg = CounterRegistry::instance();
    EXPECT_EQ(core.counters().value(
                  reg.index(ClusterCtr::UopsIssued, 1)),
              0u);
    EXPECT_GT(core.counters().value(Ctr::GatedCycles), 0u);
}

TEST(CoreSim, HighPerfModeUsesBothClusters)
{
    ClusteredCore core;
    core.reset();
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 12});
    TraceGenerator gen(w);
    core.run(gen, 30000);
    const auto &reg = CounterRegistry::instance();
    EXPECT_GT(core.counters().value(
                  reg.index(ClusterCtr::UopsIssued, 0)),
              5000u);
    EXPECT_GT(core.counters().value(
                  reg.index(ClusterCtr::UopsIssued, 1)),
              5000u);
}

TEST(CoreSim, ModeSwitchCountsAndCosts)
{
    ClusteredCore core;
    core.reset();
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 6});
    TraceGenerator gen(w);
    core.run(gen, 10000);
    core.setMode(CoreMode::LowPower);
    core.run(gen, 10000);
    core.setMode(CoreMode::HighPerf);
    core.run(gen, 10000);
    EXPECT_EQ(core.counters().value(Ctr::ModeSwitches), 2u);
}

TEST(CoreSim, SwitchOverheadIsSmall)
{
    // Gating transitions must cost tens of cycles, not thousands
    // (Sec. 3: ~0.1% worst case at 10k-instruction granularity).
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 4});

    ClusteredCore steady;
    steady.reset();
    steady.setMode(CoreMode::LowPower);
    TraceGenerator g1(w);
    steady.run(g1, 200000);
    const uint64_t steady_cycles = steady.currentCycle();

    ClusteredCore toggling;
    toggling.reset();
    toggling.setMode(CoreMode::LowPower);
    TraceGenerator g2(w);
    for (int i = 0; i < 20; ++i) {
        // Toggle to high and back every 10k instructions.
        toggling.setMode(i % 2 ? CoreMode::LowPower
                               : CoreMode::HighPerf);
        toggling.run(g2, 10000);
    }
    // Toggled run can only be faster (high mode helps) or slightly
    // slower than steady low power; it must not blow up.
    EXPECT_LT(toggling.currentCycle(),
              static_cast<uint64_t>(1.05 * steady_cycles));
}

TEST(CoreSim, DeterministicAcrossRuns)
{
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Stencil, .workingSetBytes = 4 << 20});
    uint64_t cycles[2];
    for (int r = 0; r < 2; ++r) {
        ClusteredCore core;
        core.reset();
        TraceGenerator gen(w);
        core.run(gen, 60000);
        cycles[r] = core.currentCycle();
    }
    EXPECT_EQ(cycles[0], cycles[1]);
}

TEST(CoreSim, ResetClearsState)
{
    ClusteredCore core;
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 4});
    core.reset();
    TraceGenerator g1(w);
    core.run(g1, 30000);
    const uint64_t first = core.currentCycle();
    core.reset();
    EXPECT_EQ(core.currentCycle(), 0u);
    EXPECT_EQ(core.counters().value(Ctr::InstRetired), 0u);
    TraceGenerator g2(w);
    core.run(g2, 30000);
    EXPECT_EQ(core.currentCycle(), first);
}

TEST(CoreSim, BranchCountersTrackTrace)
{
    ClusteredCore core;
    core.reset();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Branchy, .workingSetBytes = 256 << 10,
         .predictability = 0.7});
    TraceGenerator gen(w);
    core.run(gen, 50000);
    const uint64_t branches =
        core.counters().value(Ctr::BranchesRetired);
    const uint64_t misp = core.counters().value(Ctr::BranchMispred);
    EXPECT_GT(branches, 5000u);
    EXPECT_GT(misp, 0u);
    EXPECT_LT(misp, branches);
}

TEST(CoreSim, LoadStoreCountersConsistent)
{
    ClusteredCore core;
    core.reset();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Stream, .workingSetBytes = 1 << 20,
         .computePerElem = 2});
    TraceGenerator gen(w);
    core.run(gen, 40000);
    const auto &c = core.counters();
    EXPECT_GT(c.value(Ctr::LoadsRetired), 0u);
    EXPECT_GT(c.value(Ctr::StoresRetired), 0u);
    EXPECT_EQ(c.value(Ctr::L1dRead) + 0,
              c.value(Ctr::L1dHit) + c.value(Ctr::L1dMiss) -
                  c.value(Ctr::L1dWrite));
    EXPECT_GE(c.value(Ctr::LoadsRetired) + c.value(Ctr::StoresRetired),
              c.value(Ctr::L1dHit) + c.value(Ctr::L1dMiss) -
                  c.value(Ctr::StoreForwards));
}

TEST(CoreSim, IpcNeverExceedsWidth)
{
    for (CoreMode mode : {CoreMode::HighPerf, CoreMode::LowPower}) {
        const Workload w =
            kernelWorkload({.kind = KernelKind::Ilp, .chains = 16});
        const double ipc = ipcOf(w, mode);
        const double width = mode == CoreMode::HighPerf ? 8.0 : 4.0;
        EXPECT_LE(ipc, width + 0.01);
        EXPECT_GT(ipc, 0.0);
    }
}

TEST(CoreSim, IntervalStatsSumToTotals)
{
    ClusteredCore core;
    core.reset();
    const Workload w =
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 5});
    TraceGenerator gen(w);
    uint64_t cycles = 0;
    for (int i = 0; i < 10; ++i) {
        const IntervalStats s = core.run(gen, 10000);
        EXPECT_EQ(s.instructions, 10000u);
        cycles += s.cycles;
    }
    EXPECT_EQ(cycles, core.currentCycle());
}
