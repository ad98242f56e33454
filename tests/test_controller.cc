/**
 * @file
 * Tests for the closed adaptation loop using oracle and constant
 * predictors: residency, PPW sign, prediction/label alignment.
 */

#include <gtest/gtest.h>

#include "core/controller.hh"

using namespace psca;

namespace {

BuildConfig
smallConfig()
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::L1dMiss),
    };
    return cfg;
}

Workload
twoPhaseWorkload(uint64_t len)
{
    AppGenome g;
    g.name = "ctrl";
    g.seed = 51;
    PhaseSpec gate, hungry;
    gate.kernel = {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 16 << 20};
    gate.weight = 0.5;
    gate.meanLenInstr = 120e3;
    hungry.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    hungry.weight = 0.5;
    hungry.meanLenInstr = 120e3;
    g.phases = {gate, hungry};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = "ctrl";
    return w;
}

/** Always answers the same configuration. */
class ConstantPredictor : public GatePredictor
{
  public:
    explicit ConstantPredictor(bool gate) : gate_(gate) {}
    uint64_t granularity() const override { return 20000; }
    bool decide(const std::vector<const float *> &,
                const std::vector<float> &, CoreMode) override
    {
        return gate_;
    }
    uint32_t opsPerInference() const override { return 1; }
    std::string name() const override { return "constant"; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<ConstantPredictor>(*this);
    }

  private:
    bool gate_;
};

/** Cheats: answers the ground-truth label for block b+2. */
class OraclePredictor : public GatePredictor
{
  public:
    OraclePredictor(std::vector<uint8_t> labels, uint64_t granularity)
        : labels_(std::move(labels)), granularity_(granularity)
    {}
    uint64_t granularity() const override { return granularity_; }
    bool decide(const std::vector<const float *> &,
                const std::vector<float> &, CoreMode) override
    {
        const size_t target = block_ + 2;
        ++block_;
        return target < labels_.size() && labels_[target];
    }
    uint32_t opsPerInference() const override { return 1; }
    std::string name() const override { return "oracle"; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<OraclePredictor>(labels_, granularity_);
    }

  private:
    std::vector<uint8_t> labels_;
    uint64_t granularity_;
    size_t block_ = 0;
};

} // namespace

TEST(ClosedLoop, AlwaysHighMatchesReference)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = twoPhaseWorkload(300000);
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);
    ConstantPredictor never_gate(false);
    const ClosedLoopResult r =
        runClosedLoop(w, ref, never_gate, cfg, SlaSpec{});
    EXPECT_DOUBLE_EQ(r.lowResidency, 0.0);
    EXPECT_NEAR(r.ppwGainPct, 0.0, 1.5);
    EXPECT_NEAR(r.perfRelativePct, 100.0, 1.5);
    EXPECT_EQ(r.modeSwitches, 0u);
}

TEST(ClosedLoop, AlwaysLowGatesEverythingAfterPipelineFill)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = twoPhaseWorkload(300000);
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);
    ConstantPredictor always_gate(true);
    const ClosedLoopResult r =
        runClosedLoop(w, ref, always_gate, cfg, SlaSpec{});
    // First two blocks default to high (pipeline fill, Fig. 3).
    const size_t blocks = ref.numIntervals() / 2;
    EXPECT_NEAR(r.lowResidency,
                1.0 - 2.0 / static_cast<double>(blocks), 1e-9);
}

TEST(ClosedLoop, OracleDeliversPpwWithoutViolations)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = twoPhaseWorkload(400000);
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);
    const auto labels = blockLabels(ref, 2, 0.90);
    OraclePredictor oracle(labels, 20000);
    const ClosedLoopResult r =
        runClosedLoop(w, ref, oracle, cfg, SlaSpec{});
    EXPECT_GT(r.ppwGainPct, 0.0);
    // Oracle predictions can still mismatch after transitions the
    // reference didn't see, but must be largely correct.
    EXPECT_GT(r.confusion.accuracy(), 0.8);
}

TEST(ClosedLoop, PredictionsAlignWithLabels)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = twoPhaseWorkload(300000);
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);
    ConstantPredictor always_gate(true);
    const ClosedLoopResult r =
        runClosedLoop(w, ref, always_gate, cfg, SlaSpec{});
    // Always-gate: every ground-truth no-gate block after warm-in
    // counts as a false positive.
    const auto labels = blockLabels(ref, 2, 0.90);
    size_t no_gate = 0;
    for (size_t b = 2; b < labels.size(); ++b)
        no_gate += labels[b] ? 0 : 1;
    EXPECT_EQ(r.confusion.falsePositive, no_gate);
}

TEST(ClosedLoop, PpwBetweenConstantBounds)
{
    // An oracle must beat never-gate and respect perf better than
    // always-gate.
    const BuildConfig cfg = smallConfig();
    const Workload w = twoPhaseWorkload(400000);
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);

    ConstantPredictor always(true);
    const auto r_always = runClosedLoop(w, ref, always, cfg, SlaSpec{});
    const auto labels = blockLabels(ref, 2, 0.90);
    OraclePredictor oracle(labels, 20000);
    const auto r_oracle = runClosedLoop(w, ref, oracle, cfg, SlaSpec{});

    EXPECT_GE(r_oracle.perfRelativePct,
              r_always.perfRelativePct - 1e-9);
    EXPECT_LE(r_oracle.rsv, r_always.rsv);
    EXPECT_GE(r_oracle.ppwGainPct, 0.0);
}

TEST(ClosedLoop, UcOpsAccumulate)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = twoPhaseWorkload(200000);
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);
    ConstantPredictor p(false);
    const ClosedLoopResult r = runClosedLoop(w, ref, p, cfg, SlaSpec{});
    EXPECT_EQ(r.ucOps, r.numPredictions * p.opsPerInference());
    EXPECT_EQ(r.numPredictions, ref.numIntervals() / 2);
}
