/**
 * @file
 * Tests for the deterministic fault-injection framework: spec
 * parsing, per-site Bernoulli/draw substreams (pure functions of
 * seed, site, and key), telemetry fault application, and a
 * reference fault mix driven through the closed adaptation loop —
 * the run completes, every degradation is counted, and the
 * guardrailed RSV stays within 2x of the fault-free run.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/fault.hh"
#include "core/guardrail.hh"
#include "core/pipeline.hh"
#include "obs/stats.hh"
#include "telemetry/counters.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

namespace {

/** Disarm every site (and restore the seed) after each test. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        seed_ = FaultRegistry::instance().seed();
        FaultRegistry::instance().configure("", seed_);
    }
    void TearDown() override
    {
        FaultRegistry::instance().configure("", seed_);
    }
    uint64_t seed_ = 0;
};

} // namespace

TEST_F(FaultTest, SpecParsingArmsAndDisarmsSites)
{
    auto &reg = FaultRegistry::instance();
    reg.configure("telemetry.noise:0.5,uc.vm_trap:0.25:7", seed_);
    EXPECT_TRUE(reg.anyEnabled());

    const FaultSite &noise = reg.site("telemetry.noise");
    EXPECT_TRUE(noise.enabled());
    EXPECT_DOUBLE_EQ(noise.rate(), 0.5);
    EXPECT_DOUBLE_EQ(noise.param(0.05), 0.05); // no param given

    const FaultSite &trap = reg.site("uc.vm_trap");
    EXPECT_TRUE(trap.enabled());
    EXPECT_DOUBLE_EQ(trap.rate(), 0.25);
    EXPECT_DOUBLE_EQ(trap.param(0.0), 7.0);

    // Sites not named in the spec stay disabled.
    EXPECT_FALSE(reg.site("persist.memo_corrupt").enabled());

    reg.configure("", seed_);
    EXPECT_FALSE(reg.anyEnabled());
    EXPECT_FALSE(noise.enabled());
    EXPECT_FALSE(trap.enabled());
}

TEST_F(FaultTest, RateZeroArmsNothing)
{
    auto &reg = FaultRegistry::instance();
    reg.configure("telemetry.noise:0", seed_);
    EXPECT_FALSE(reg.anyEnabled());
    EXPECT_FALSE(reg.site("telemetry.noise").enabled());
    const FaultSite &s = reg.site("telemetry.noise");
    for (uint64_t k = 0; k < 100; ++k)
        EXPECT_FALSE(s.fires(k));
}

TEST_F(FaultTest, MalformedSpecsAreFatal)
{
    // Re-exec instead of fork: forking while the pool's threads are
    // live can deadlock the death-test child.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    auto &reg = FaultRegistry::instance();
    EXPECT_DEATH(reg.configure("telemetry.noise", seed_),
                 "expected site:rate");
    EXPECT_DEATH(reg.configure("uc.vm_trap:1.5", seed_),
                 "not a probability");
    EXPECT_DEATH(reg.configure("uc.vm_trap:0.5x", seed_),
                 "not a probability");
    EXPECT_DEATH(reg.configure("uc.vm_trap:0.5:abc", seed_),
                 "not a number");
    EXPECT_DEATH(
        reg.configure("uc.vm_trap:0.1,uc.vm_trap:0.2", seed_),
        "twice");
}

TEST_F(FaultTest, FireSequenceIsPureFunctionOfSeedSiteAndKey)
{
    auto &reg = FaultRegistry::instance();
    reg.configure("telemetry.dropped_snapshot:0.3", 1234);
    const FaultSite &s = reg.site("telemetry.dropped_snapshot");

    std::vector<bool> first;
    for (uint64_t k = 0; k < 2000; ++k)
        first.push_back(s.fires(k));

    // Re-arming with the same seed reproduces the sequence exactly,
    // and call order is irrelevant (each key is its own substream).
    reg.configure("telemetry.dropped_snapshot:0.3", 1234);
    for (uint64_t k = 2000; k-- > 0;)
        EXPECT_EQ(s.fires(k), first[k]) << "key " << k;

    // The empirical rate tracks the configured one.
    size_t fired = 0;
    for (bool b : first)
        fired += b;
    EXPECT_GT(fired, 2000 * 0.3 / 2);
    EXPECT_LT(fired, 2000 * 0.3 * 2);

    // A different seed produces a different sequence.
    reg.configure("telemetry.dropped_snapshot:0.3", 99);
    std::vector<bool> reseeded;
    for (uint64_t k = 0; k < 2000; ++k)
        reseeded.push_back(s.fires(k));
    EXPECT_NE(first, reseeded);

    // Different sites at the same seed diverge too.
    reg.configure(
        "telemetry.dropped_snapshot:0.3,telemetry.noise:0.3", 1234);
    const FaultSite &other = reg.site("telemetry.noise");
    std::vector<bool> other_seq;
    for (uint64_t k = 0; k < 2000; ++k)
        other_seq.push_back(other.fires(k));
    EXPECT_NE(first, other_seq);
}

TEST_F(FaultTest, DrawAndGaussianAreDeterministicPerKeyAndLane)
{
    auto &reg = FaultRegistry::instance();
    reg.configure("telemetry.noise:1", 42);
    const FaultSite &s = reg.site("telemetry.noise");

    EXPECT_EQ(s.draw(7, 3, 1000), s.draw(7, 3, 1000));
    EXPECT_DOUBLE_EQ(s.gaussian(7, 3), s.gaussian(7, 3));
    EXPECT_NE(s.gaussian(7, 3), s.gaussian(8, 3));
    EXPECT_NE(s.gaussian(7, 3), s.gaussian(7, 4));
    for (uint64_t k = 0; k < 200; ++k)
        EXPECT_LT(s.draw(k, 0, 16), 16u);
}

TEST_F(FaultTest, FireCountTalliesAndResetsOnConfigure)
{
    auto &reg = FaultRegistry::instance();
    reg.configure("uc.deadline_miss:0.5", 7);
    const FaultSite &s = reg.site("uc.deadline_miss");
    EXPECT_EQ(s.fireCount(), 0u);

    uint64_t expect = 0;
    for (uint64_t k = 0; k < 500; ++k)
        expect += s.fires(k);
    EXPECT_GT(expect, 0u);
    EXPECT_EQ(s.fireCount(), expect);

    reg.configure("uc.deadline_miss:0.5", 7);
    EXPECT_EQ(s.fireCount(), 0u);
}

TEST_F(FaultTest, TelemetryStuckCounterZeroesTheVictimIndex)
{
    FaultRegistry::instance().configure(
        "telemetry.stuck_counter:1:2", seed_);
    std::vector<uint64_t> deltas{5, 6, 7, 8};
    EXPECT_FALSE(applyTelemetryFaults(deltas, 31));
    EXPECT_EQ(deltas, (std::vector<uint64_t>{5, 6, 0, 8}));
}

TEST_F(FaultTest, TelemetrySaturationWrapsOneCounter)
{
    FaultRegistry::instance().configure(
        "telemetry.saturation:1:4", seed_);
    std::vector<uint64_t> deltas(6, 1000);
    EXPECT_FALSE(applyTelemetryFaults(deltas, 5));
    size_t wrapped = 0;
    for (uint64_t d : deltas) {
        if (d == 1000)
            continue;
        ++wrapped;
        EXPECT_EQ(d, 1000u & 0xF); // wrapped at 2^4
    }
    EXPECT_EQ(wrapped, 1u);
}

TEST_F(FaultTest, TelemetryDropSignalsLostSnapshot)
{
    FaultRegistry::instance().configure(
        "telemetry.dropped_snapshot:1", seed_);
    std::vector<uint64_t> deltas{1, 2, 3};
    EXPECT_TRUE(applyTelemetryFaults(deltas, 0));
    // A drop leaves the (discarded) deltas untouched.
    EXPECT_EQ(deltas, (std::vector<uint64_t>{1, 2, 3}));
}

TEST_F(FaultTest, TelemetryNoiseIsDeterministicPerKey)
{
    FaultRegistry::instance().configure("telemetry.noise:1:0.1",
                                        seed_);
    std::vector<uint64_t> a{1000, 2000, 3000, 4000};
    std::vector<uint64_t> b = a;
    const std::vector<uint64_t> orig = a;
    applyTelemetryFaults(a, 17);
    applyTelemetryFaults(b, 17);
    EXPECT_EQ(a, b);       // same key: bit-identical corruption
    EXPECT_NE(a, orig);    // and it did corrupt something

    std::vector<uint64_t> c = orig;
    applyTelemetryFaults(c, 18);
    EXPECT_NE(a, c); // different key: different noise
}

TEST_F(FaultTest, DisabledRegistryLeavesTelemetryUntouched)
{
    ASSERT_FALSE(FaultRegistry::instance().anyEnabled());
    std::vector<uint64_t> deltas{9, 8, 7};
    EXPECT_FALSE(applyTelemetryFaults(deltas, 3));
    EXPECT_EQ(deltas, (std::vector<uint64_t>{9, 8, 7}));
}

namespace {

/** Gate-everything predictor for closed-loop fault runs. */
class AlwaysGate : public GatePredictor
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
    std::string name() const override { return "always_gate"; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<AlwaysGate>(*this);
    }
};

Workload
faultMixWorkload()
{
    AppGenome g;
    g.name = "fault_mix";
    g.seed = 21;
    PhaseSpec gate, hungry;
    gate.kernel = {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 16 << 20, .chains = 4};
    gate.weight = 0.5;
    gate.meanLenInstr = 120e3;
    hungry.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    hungry.weight = 0.5;
    hungry.meanLenInstr = 120e3;
    g.phases = {gate, hungry};
    Workload w;
    w.genome = g;
    w.inputSeed = 3;
    w.lengthInstr = 400000;
    w.name = "fault_mix";
    return w;
}

/** The reference mix from DESIGN.md §10 (telemetry + firmware). */
constexpr const char *kReferenceMix =
    "telemetry.dropped_snapshot:0.2,telemetry.noise:0.1:0.05,"
    "telemetry.stuck_counter:0.1,uc.deadline_miss:0.2";

} // namespace

TEST_F(FaultTest, ClosedLoopSurvivesReferenceMixAndCountsDegradations)
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
    const Workload w = faultMixWorkload();
    const TraceRecord rec = recordTrace(w, cfg, 0, 0);

    // Fault-free guardrailed baseline.
    AlwaysGate clean_inner;
    GuardrailedPredictor clean(clean_inner);
    const ClosedLoopResult baseline =
        runClosedLoop(w, rec, clean, cfg, SlaSpec{});

    const uint64_t carry0 =
        counterValue("controller.snapshot_carryforwards");
    const uint64_t miss0 = counterValue("controller.deadline_misses");

    FaultRegistry::instance().configure(kReferenceMix, seed_);
    AlwaysGate faulted_inner;
    GuardrailedPredictor faulted(faulted_inner);
    const ClosedLoopResult degraded =
        runClosedLoop(w, rec, faulted, cfg, SlaSpec{});

    // The loop completed and the degradations were counted.
    EXPECT_GT(degraded.numPredictions, 0u);
    const uint64_t carried =
        counterValue("controller.snapshot_carryforwards") - carry0;
    const uint64_t missed =
        counterValue("controller.deadline_misses") - miss0;
    EXPECT_GT(carried, 0u);
    EXPECT_GT(missed, 0u);

    // Injections were tallied per site.
    const FaultSite &drop =
        FaultRegistry::instance().site("telemetry.dropped_snapshot");
    EXPECT_GT(drop.fireCount(), 0u);

    // Degraded-mode quality bound: the guardrailed loop under the
    // reference mix keeps RSV within 2x of the fault-free run.
    EXPECT_LE(degraded.rsv, 2.0 * baseline.rsv + 1e-9);

    // And the whole degraded run is deterministic: re-arming the
    // same mix at the same seed reproduces it bit for bit.
    FaultRegistry::instance().configure(kReferenceMix, seed_);
    AlwaysGate again_inner;
    GuardrailedPredictor again(again_inner);
    const ClosedLoopResult rerun =
        runClosedLoop(w, rec, again, cfg, SlaSpec{});
    EXPECT_EQ(degraded.numPredictions, rerun.numPredictions);
    EXPECT_EQ(degraded.modeSwitches, rerun.modeSwitches);
    EXPECT_DOUBLE_EQ(degraded.rsv, rerun.rsv);
    EXPECT_DOUBLE_EQ(degraded.ppwGainPct, rerun.ppwGainPct);
    EXPECT_DOUBLE_EQ(degraded.lowResidency, rerun.lowResidency);
}
