/**
 * @file
 * Unit tests for the fail-safe guardrail's mechanics (trip threshold,
 * patience, hold-off, reference decay) driven by synthetic IPC
 * streams, plus a closed-loop check that a deliberately wrong
 * predictor gets vetoed and its RSV damage bounded on a mixed trace.
 * (test_firmware.cc covers the pathological always-gate end to end;
 * here the mechanics are exercised block by block.)
 */

#include <gtest/gtest.h>

#include "core/guardrail.hh"
#include "core/pipeline.hh"
#include "obs/stats.hh"

using namespace psca;

namespace {

/** Inner predictor with a scriptable answer and a call tally. */
class ScriptedInner : public GatePredictor
{
  public:
    explicit ScriptedInner(bool gate = true) : gate_(gate) {}

    uint64_t granularity() const override { return 20000; }
    bool
    decide(const std::vector<const float *> &,
           const std::vector<float> &, CoreMode) override
    {
        ++calls_;
        return gate_;
    }
    uint32_t opsPerInference() const override { return 1; }
    std::string name() const override { return "scripted"; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<ScriptedInner>(gate_);
    }

    bool gate_;
    int calls_ = 0;
};

/**
 * Feed the guardrail one block whose IPC is @p ipc. The guardrail
 * derives block IPC from sub-interval cycles at 10k instructions per
 * sub-interval, so a single sub-interval of 10000/ipc cycles lands
 * exactly on the requested value.
 */
bool
step(GuardrailedPredictor &g, double ipc, CoreMode mode)
{
    const std::vector<float> cycles{
        static_cast<float>(10000.0 / ipc)};
    const std::vector<const float *> rows{nullptr};
    return g.decide(rows, cycles, mode);
}

} // namespace

TEST(GuardrailMechanics, PassesThroughInnerWhenHealthy)
{
    ScriptedInner inner(true);
    GuardrailConfig cfg;
    cfg.tripRatio = 0.88;
    cfg.referenceDecay = 1.0;
    GuardrailedPredictor g(inner, cfg);

    EXPECT_TRUE(step(g, 2.0, CoreMode::HighPerf));
    // Gated IPC above tripRatio * reference: never a violation.
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(step(g, 1.9, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 0u);
    EXPECT_EQ(inner.calls_, 21);
}

TEST(GuardrailMechanics, TripsOnlyAfterPatienceConsecutiveViolations)
{
    ScriptedInner inner(true);
    GuardrailConfig cfg;
    cfg.patience = 2;
    cfg.referenceDecay = 1.0;
    GuardrailedPredictor g(inner, cfg);

    ASSERT_TRUE(step(g, 2.0, CoreMode::HighPerf)); // reference = 2.0
    // First violating block: streak 1 < patience, inner passes.
    EXPECT_TRUE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 0u);
    // A healthy gated block resets the streak.
    EXPECT_TRUE(step(g, 1.9, CoreMode::LowPower));
    EXPECT_TRUE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 0u);
    // Second consecutive violation: trip and veto.
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 1u);
}

TEST(GuardrailMechanics, HoldoffVetoesThenReleases)
{
    ScriptedInner inner(true);
    GuardrailConfig cfg;
    cfg.patience = 1;
    cfg.holdoffBlocks = 3;
    cfg.referenceDecay = 1.0;
    GuardrailedPredictor g(inner, cfg);

    ASSERT_TRUE(step(g, 2.0, CoreMode::HighPerf));
    // Trip consumes the first hold-off block.
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 1u);
    // The veto forces high-performance mode, so the next blocks are
    // observed wide; the guardrail keeps vetoing until hold-off ends.
    EXPECT_FALSE(step(g, 2.0, CoreMode::HighPerf));
    EXPECT_FALSE(step(g, 2.0, CoreMode::HighPerf));
    // Hold-off exhausted: the inner decision flows through again.
    EXPECT_TRUE(step(g, 2.0, CoreMode::HighPerf));
    EXPECT_EQ(g.trips(), 1u);
}

TEST(GuardrailMechanics, NoRetripDuringHoldoff)
{
    ScriptedInner inner(true);
    GuardrailConfig cfg;
    cfg.patience = 1;
    cfg.holdoffBlocks = 4;
    cfg.referenceDecay = 1.0;
    GuardrailedPredictor g(inner, cfg);

    ASSERT_TRUE(step(g, 2.0, CoreMode::HighPerf));
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower)); // trip
    // Keep violating while held off: vetoed, but no second trip.
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 1u);
    // First block after hold-off can trip again.
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 2u);
}

TEST(GuardrailMechanics, ReferenceDecayForgivesStaleReference)
{
    // After a burst of IPC 3.0 the workload settles at 2.0 while
    // gated. With no decay the stale 3.0 reference keeps flagging
    // violations forever; with decay the reference relaxes toward
    // the observed level and the streak never reaches patience.
    GuardrailConfig stale;
    stale.patience = 3;
    stale.referenceDecay = 1.0;
    ScriptedInner inner_a(true);
    GuardrailedPredictor no_decay(inner_a, stale);

    ASSERT_TRUE(step(no_decay, 3.0, CoreMode::HighPerf));
    int vetoes_no_decay = 0;
    for (int i = 0; i < 10; ++i)
        if (!step(no_decay, 2.0, CoreMode::LowPower))
            ++vetoes_no_decay;
    EXPECT_GT(no_decay.trips(), 0u);
    EXPECT_GT(vetoes_no_decay, 0);

    GuardrailConfig decayed = stale;
    decayed.referenceDecay = 0.7;
    ScriptedInner inner_b(true);
    GuardrailedPredictor with_decay(inner_b, decayed);

    ASSERT_TRUE(step(with_decay, 3.0, CoreMode::HighPerf));
    for (int i = 0; i < 10; ++i)
        step(with_decay, 2.0, CoreMode::LowPower);
    EXPECT_EQ(with_decay.trips(), 0u);
}

TEST(GuardrailMechanics, HighModeBlockRefreshesReferenceAndStreak)
{
    ScriptedInner inner(true);
    GuardrailConfig cfg;
    cfg.patience = 2;
    cfg.referenceDecay = 1.0;
    GuardrailedPredictor g(inner, cfg);

    ASSERT_TRUE(step(g, 2.0, CoreMode::HighPerf));
    EXPECT_TRUE(step(g, 1.0, CoreMode::LowPower)); // streak 1
    // An interleaved high-mode block clears the streak...
    EXPECT_TRUE(step(g, 2.0, CoreMode::HighPerf));
    EXPECT_TRUE(step(g, 1.0, CoreMode::LowPower)); // streak 1 again
    EXPECT_EQ(g.trips(), 0u);
    // ...and refreshes the reference downward when the machine
    // itself slowed: IPC 1.0 wide makes gated 0.95 acceptable.
    EXPECT_TRUE(step(g, 1.0, CoreMode::HighPerf));
    EXPECT_TRUE(step(g, 0.95, CoreMode::LowPower));
    EXPECT_TRUE(step(g, 0.95, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 0u);
}

TEST(GuardrailMechanics, TripsAreCountedInObsRegistry)
{
    const auto &reg = obs::StatRegistry::instance();
    const auto *ctr = reg.findCounter("controller.guardrail_trips");
    const uint64_t before = ctr ? ctr->value() : 0;

    ScriptedInner inner(true);
    GuardrailConfig cfg;
    cfg.patience = 1;
    cfg.holdoffBlocks = 1;
    cfg.referenceDecay = 1.0;
    GuardrailedPredictor g(inner, cfg);
    ASSERT_TRUE(step(g, 2.0, CoreMode::HighPerf));
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_FALSE(step(g, 1.0, CoreMode::LowPower));
    EXPECT_EQ(g.trips(), 2u);

    ctr = reg.findCounter("controller.guardrail_trips");
    ASSERT_NE(ctr, nullptr);
    EXPECT_EQ(ctr->value(), before + 2);
}

namespace {

/** A deliberately wrong predictor: gates every block. */
class WrongWay : public GatePredictor
{
  public:
    uint64_t granularity() const override { return 20000; }
    bool
    decide(const std::vector<const float *> &,
           const std::vector<float> &, CoreMode) override
    {
        return true;
    }
    uint32_t opsPerInference() const override { return 1; }
    std::string name() const override { return "wrong_way"; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<WrongWay>(*this);
    }
};

} // namespace

TEST(GuardrailClosedLoop, VetoesWrongPredictorAndBoundsRsv)
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
    };

    // Mostly width-hungry ILP with gate-friendly pointer-chase
    // stretches mixed in: always-gate is wrong most of the time, and
    // the run starts on a hungry stretch so the guardrail's high-mode
    // reference reflects the wide configuration.
    AppGenome g;
    g.name = "guardrail_mix";
    g.seed = 5;
    PhaseSpec gate, hungry;
    gate.kernel = {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 16 << 20, .chains = 4};
    gate.weight = 0.2;
    gate.meanLenInstr = 120e3;
    hungry.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    hungry.weight = 0.8;
    hungry.meanLenInstr = 120e3;
    g.phases = {gate, hungry};
    Workload w;
    w.genome = g;
    w.inputSeed = 2;
    w.lengthInstr = 400000;
    w.name = "guardrail_mix";
    const TraceRecord rec = recordTrace(w, cfg, 0, 0);

    WrongWay bad;
    const ClosedLoopResult unguarded =
        runClosedLoop(w, rec, bad, cfg, SlaSpec{});

    WrongWay bad2;
    GuardrailedPredictor guarded(bad2);
    const ClosedLoopResult safe =
        runClosedLoop(w, rec, guarded, cfg, SlaSpec{});

    EXPECT_GT(guarded.trips(), 0u);
    // The guardrail must not make things worse, and must claw back
    // performance on the width-hungry stretches it vetoes.
    EXPECT_LE(safe.rsv, unguarded.rsv);
    EXPECT_GE(safe.perfRelativePct, unguarded.perfRelativePct);
    EXPECT_LT(safe.lowResidency, 1.0);
}
