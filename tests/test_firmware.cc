/**
 * @file
 * Tests for the deployable firmware package (save/load round trip,
 * VM-executed decisions matching native decisions in the closed
 * loop) and the fail-safe guardrail.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>

#include "core/firmware_image.hh"
#include "core/guardrail.hh"
#include "core/pipeline.hh"
#include "obs/stats.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

namespace {

BuildConfig
smallConfig()
{
    return test::smallConfig({Ctr::InstRetired, Ctr::StallCount,
                              Ctr::L1dMiss, Ctr::LoadLatSum,
                              Ctr::MshrOccSum, Ctr::UopsStalledOnDep});
}

Workload
mixedWorkload(uint64_t seed, uint64_t len)
{
    AppGenome g;
    g.name = "fw_test";
    g.seed = seed;
    PhaseSpec gate, hungry;
    gate.kernel = {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 16 << 20, .chains = 4};
    gate.weight = 0.5;
    gate.meanLenInstr = 150e3;
    hungry.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    hungry.weight = 0.5;
    hungry.meanLenInstr = 150e3;
    g.phases = {gate, hungry};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = "fw_test";
    return w;
}

TrainedDual
trainSmallRf(const std::vector<TraceRecord> &records,
             const BuildConfig &cfg)
{
    DualTrainOptions opts;
    opts.granularityInstr = 20000;
    opts.columns = {0, 1, 2, 3, 4, 5};
    opts.rsvWindow = 64;
    return trainDual(
        records, cfg, opts,
        [](const Dataset &tune, uint64_t s) -> std::unique_ptr<Model> {
            ForestConfig fc;
            fc.numTrees = 4;
            fc.maxDepth = 6;
            fc.seed = s;
            return std::make_unique<RandomForest>(tune, fc);
        });
}

} // namespace

TEST(FirmwarePackage, SaveLoadRoundTrip)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = mixedWorkload(3, 300000);
    const TraceRecord rec = recordTrace(w, cfg, 0, 0);
    TrainedDual dual = trainSmallRf({rec}, cfg);
    DualModelPredictor native(dual.high, dual.low,
                              {0, 1, 2, 3, 4, 5}, 20000, "rf");

    const FirmwarePackage pkg =
        packageFromDual(native, {0, 1, 2, 3, 4, 5});
    const std::string path = "/tmp/psca_fw_test.bin";
    pkg.save(path);
    const FirmwarePackage loaded = FirmwarePackage::load(path);

    EXPECT_EQ(loaded.name, pkg.name);
    EXPECT_EQ(loaded.granularityInstr, 20000u);
    EXPECT_EQ(loaded.columns, pkg.columns);
    EXPECT_EQ(loaded.low.program.code.size(),
              pkg.low.program.code.size());
    EXPECT_EQ(loaded.low.program.mem, pkg.low.program.mem);
    EXPECT_FLOAT_EQ(loaded.low.threshold, pkg.low.threshold);
    std::filesystem::remove(path);
}

TEST(FirmwarePackage, VmDecisionsMatchNativeClosedLoop)
{
    const BuildConfig cfg = smallConfig();
    const Workload train_w = mixedWorkload(3, 300000);
    const TraceRecord train_rec = recordTrace(train_w, cfg, 0, 0);
    TrainedDual dual = trainSmallRf({train_rec}, cfg);
    const std::vector<size_t> cols{0, 1, 2, 3, 4, 5};
    DualModelPredictor native(dual.high, dual.low, cols, 20000, "rf");
    VmPredictor vm(packageFromDual(native, cols));

    const Workload eval_w = mixedWorkload(9, 300000);
    const TraceRecord eval_rec = recordTrace(eval_w, cfg, 1, 1);
    const ClosedLoopResult a =
        runClosedLoop(eval_w, eval_rec, native, cfg, SlaSpec{});
    const ClosedLoopResult b =
        runClosedLoop(eval_w, eval_rec, vm, cfg, SlaSpec{});

    // The flashed firmware must reproduce the native decisions, so
    // the runs are identical.
    EXPECT_EQ(a.confusion.truePositive, b.confusion.truePositive);
    EXPECT_EQ(a.confusion.falsePositive, b.confusion.falsePositive);
    EXPECT_DOUBLE_EQ(a.lowResidency, b.lowResidency);
    EXPECT_NEAR(a.ppwGainPct, b.ppwGainPct, 1e-9);
    EXPECT_GT(vm.vmOpsExecuted(), 0u);
}

TEST(FirmwarePackage, VmAndNativeSanitizeAlike)
{
    const BuildConfig cfg = smallConfig();
    const TraceRecord rec =
        recordTrace(mixedWorkload(3, 300000), cfg, 0, 0);
    TrainedDual dual = trainSmallRf({rec}, cfg);
    const std::vector<size_t> cols{0, 1, 2, 3, 4, 5};
    DualModelPredictor native(dual.high, dual.low, cols, 20000, "rf");
    VmPredictor vm(packageFromDual(native, cols));

    // A recorded block with a NaN counter (must veto) or a 1e30
    // outlier (must clamp, not veto) in its first interval.
    const std::vector<float> cycles{rec.cyclesLow[0], rec.cyclesLow[1]};
    for (const float bad : {std::nanf(""), 1e30f}) {
        std::vector<float> row(rec.rowLow(0),
                               rec.rowLow(0) + rec.numCounters);
        row[2] = bad;
        const std::vector<const float *> block{row.data(), rec.rowLow(1)};
        for (const CoreMode mode : {CoreMode::HighPerf, CoreMode::LowPower}) {
            bool decision[2];
            uint64_t vetoes[2], clamped[2];
            GatePredictor *predictors[2] = {&native, &vm};
            for (int p = 0; p < 2; ++p) {
                const uint64_t v0 = counterValue("controller.sanitize_vetoes");
                const uint64_t c0 =
                    counterValue("controller.sanitized_inputs");
                decision[p] = predictors[p]->decide(block, cycles, mode);
                vetoes[p] = counterValue("controller.sanitize_vetoes") - v0;
                clamped[p] =
                    counterValue("controller.sanitized_inputs") - c0;
            }
            EXPECT_EQ(decision[0], decision[1]);
            EXPECT_EQ(vetoes[0], vetoes[1]);
            EXPECT_EQ(clamped[0], clamped[1]);
            EXPECT_EQ(vetoes[0], std::isnan(bad) ? 1u : 0u);
            EXPECT_GE(clamped[0], std::isnan(bad) ? 0u : 1u);
        }
    }
}

TEST(FirmwarePackage, LoadRejectsGarbage)
{
    // Re-exec instead of fork: the closed-loop tests above started
    // the thread pool, and forking a threaded process can deadlock
    // the death-test child (seen under UBSan's shifted timing).
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string path = "/tmp/psca_fw_garbage.bin";
    {
        std::ofstream out(path, std::ios::binary);
        out << "not a firmware image";
    }
    EXPECT_DEATH(FirmwarePackage::load(path), "not a psca firmware");
    std::filesystem::remove(path);
}

namespace {

/** Always-gate predictor (a worst-case blindspot). */
class AlwaysGate : public GatePredictor
{
  public:
    uint64_t granularity() const override { return 20000; }
    bool decide(const std::vector<const float *> &,
                const std::vector<float> &, CoreMode) override
    {
        return true;
    }
    uint32_t opsPerInference() const override { return 1; }
    std::string name() const override { return "always_gate"; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<AlwaysGate>(*this);
    }
};

} // namespace

TEST(Guardrail, CapsDamageFromPathologicalModel)
{
    const BuildConfig cfg = smallConfig();
    // Width-hungry only: gating everything is maximally harmful.
    AppGenome g;
    g.name = "hungry";
    g.seed = 4;
    PhaseSpec p;
    p.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    p.meanLenInstr = 1e9;
    g.phases = {p};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = 400000;
    w.name = "hungry";
    const TraceRecord rec = recordTrace(w, cfg, 0, 0);

    AlwaysGate bad;
    const ClosedLoopResult unguarded =
        runClosedLoop(w, rec, bad, cfg, SlaSpec{});

    AlwaysGate bad2;
    GuardrailedPredictor guarded(bad2);
    const ClosedLoopResult safe =
        runClosedLoop(w, rec, guarded, cfg, SlaSpec{});

    EXPECT_GT(guarded.trips(), 0u);
    EXPECT_GT(safe.perfRelativePct, unguarded.perfRelativePct);
    EXPECT_LT(safe.rsv, unguarded.rsv);
}

TEST(Guardrail, DoesNotDisturbGoodGating)
{
    const BuildConfig cfg = smallConfig();
    // Gate-friendly only: always-gate is the right answer, and the
    // guardrail should not fight it.
    AppGenome g;
    g.name = "friendly";
    g.seed = 5;
    PhaseSpec p;
    p.kernel = {.kind = KernelKind::PointerChase,
                .workingSetBytes = 16 << 20};
    p.meanLenInstr = 1e9;
    g.phases = {p};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = 400000;
    w.name = "friendly";
    const TraceRecord rec = recordTrace(w, cfg, 0, 0);

    AlwaysGate inner;
    GuardrailedPredictor guarded(inner);
    const ClosedLoopResult r =
        runClosedLoop(w, rec, guarded, cfg, SlaSpec{});
    EXPECT_GT(r.lowResidency, 0.7);
}

TEST(Guardrail, OpsOverheadSmall)
{
    AlwaysGate inner;
    GuardrailedPredictor guarded(inner);
    EXPECT_LE(guarded.opsPerInference(),
              inner.opsPerInference() + 10);
    EXPECT_EQ(guarded.granularity(), inner.granularity());
}
