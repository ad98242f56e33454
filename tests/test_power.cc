/**
 * @file
 * Tests for the event-based power model and the PPW accumulator,
 * including the paper's ~35% low-power saving (Sec. 3).
 */

#include <gtest/gtest.h>

#include "core/builder.hh"
#include "power/power_model.hh"
#include "test_util.hh"

using namespace psca;

namespace {

Workload
kernelWorkload(KernelParams kp)
{
    return test::kernelWorkload(kp, 300000, "pw", 7);
}

double
powerOf(const Workload &w, CoreMode mode)
{
    BuildConfig cfg;
    cfg.warmupInstr = 60000;
    cfg.intervalInstr = 150000;
    IntervalReplay replay(w, cfg, mode);
    const IntervalStats stats = replay.step();
    return PowerModel().intervalPowerWatts(replay.delta(), stats.cycles,
                                           mode);
}

} // namespace

TEST(Power, EnergyIsPositive)
{
    Counters c;
    c.inc(Ctr::UopsIssuedTotal, 10000);
    PowerModel pm;
    EXPECT_GT(pm.intervalEnergyNj(c.raw(), 5000, CoreMode::HighPerf),
              0.0);
}

TEST(Power, StaticPowerDominatesIdle)
{
    Counters c;
    PowerModel pm;
    const double high =
        pm.intervalPowerWatts(c.raw(), 10000, CoreMode::HighPerf);
    const double low =
        pm.intervalPowerWatts(c.raw(), 10000, CoreMode::LowPower);
    PowerModelConfig cfg;
    EXPECT_NEAR(high, cfg.staticHighPerf, 1e-9);
    EXPECT_NEAR(low, cfg.staticLowPower, 1e-9);
}

TEST(Power, MoreEventsMorePower)
{
    Counters a, b;
    a.inc(Ctr::UopsIssuedTotal, 1000);
    b.inc(Ctr::UopsIssuedTotal, 50000);
    PowerModel pm;
    EXPECT_LT(pm.intervalPowerWatts(a.raw(), 10000, CoreMode::HighPerf),
              pm.intervalPowerWatts(b.raw(), 10000,
                                    CoreMode::HighPerf));
}

class PowerSavingKernels
    : public ::testing::TestWithParam<KernelParams>
{};

TEST_P(PowerSavingKernels, LowPowerSavesPower)
{
    const Workload w = kernelWorkload(GetParam());
    const double high = powerOf(w, CoreMode::HighPerf);
    const double low = powerOf(w, CoreMode::LowPower);
    EXPECT_LT(low, high);
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, PowerSavingKernels,
    ::testing::Values(
        KernelParams{.kind = KernelKind::Ilp, .chains = 12},
        KernelParams{.kind = KernelKind::Ilp, .chains = 3},
        KernelParams{.kind = KernelKind::PointerChase,
                     .workingSetBytes = 32 << 20},
        KernelParams{.kind = KernelKind::Stream,
                     .workingSetBytes = 64 << 20, .computePerElem = 2},
        KernelParams{.kind = KernelKind::Branchy,
                     .workingSetBytes = 1 << 20},
        KernelParams{.kind = KernelKind::FpSerial, .fp = true}));

TEST(Power, AverageSavingNearPaper35Percent)
{
    // Across a kernel mix, low-power mode should average roughly 35%
    // less power than high-performance mode (Sec. 3).
    const KernelParams mix[] = {
        {.kind = KernelKind::Ilp, .chains = 12},
        {.kind = KernelKind::Ilp, .chains = 3},
        {.kind = KernelKind::PointerChase, .workingSetBytes = 16 << 20},
        {.kind = KernelKind::Stream, .workingSetBytes = 64 << 20,
         .computePerElem = 2, .fp = true},
        {.kind = KernelKind::Stencil, .workingSetBytes = 8 << 20},
        {.kind = KernelKind::Branchy, .workingSetBytes = 512 << 10},
        {.kind = KernelKind::FpSerial, .fp = true},
    };
    double ratio_sum = 0.0;
    for (const auto &kp : mix) {
        const Workload w = kernelWorkload(kp);
        ratio_sum += powerOf(w, CoreMode::LowPower) /
            powerOf(w, CoreMode::HighPerf);
    }
    const double avg_saving = 1.0 - ratio_sum / std::size(mix);
    EXPECT_NEAR(avg_saving, 0.35, 0.08);
}

TEST(PpwAccumulator, Arithmetic)
{
    PpwAccumulator acc;
    acc.add(1000, 500, 2000.0);
    acc.add(1000, 500, 2000.0);
    EXPECT_EQ(acc.instructions(), 2000u);
    EXPECT_EQ(acc.cycles(), 1000u);
    EXPECT_DOUBLE_EQ(acc.ipc(), 2.0);
    // 2000 instructions / 4000 nJ = 5e8 instructions per joule.
    EXPECT_NEAR(acc.ppw(), 2000.0 / (4000e-9), 1.0);
}

TEST(PpwAccumulator, EmptyIsZero)
{
    PpwAccumulator acc;
    EXPECT_DOUBLE_EQ(acc.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(acc.ppw(), 0.0);
}
