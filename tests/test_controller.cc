/**
 * @file
 * Tests for the closed adaptation loop using oracle and constant
 * predictors: residency, PPW sign, prediction/label alignment; and
 * golden tables pinning every result field bit for bit across gate
 * schedules, so the replay walker's spine (served from the reference
 * record, settled from the memo) cannot drift from a full replay; and
 * the walker's schedule trie (PassReplayer), whose served, settled,
 * caught-up and live blocks must equal a fresh replay's.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <type_traits>

#include "common/fault.hh"
#include "core/controller.hh"
#include "core/pipeline.hh"
#include "obs/stats.hh"
#include "sim/memo.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

namespace {

BuildConfig
smallConfig()
{
    return test::smallConfig({Ctr::InstRetired, Ctr::L1dMiss});
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
    // Not exactly 0: the baseline sums the record's float energies.
    EXPECT_EQ(r.ppwGainPct, 0x1.3eb367p-24);
    EXPECT_EQ(r.perfRelativePct, 100.0);
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

// ---------------------------------------------------------------------
// Exactness of the deferred high-performance prefix. Until a loop's
// first gate takes effect the predictor reads the reference record,
// and a loop that never gates settles its accounting from the memo;
// the tables below were recorded with a full replay of every block,
// and every variant (memo on, memo off, memo file corrupt, fault site
// armed) must reproduce them bit for bit.

namespace {

/** Gate schedules of the exactness table, by decision index. */
enum class Schedule
{
    Never,         //!< never gates: the loop settles from the memo
    Always,        //!< gates from decision 0 (first LowPower block 2)
    FirstAt0,      //!< first gate at decision 0, then on/on/off
    FirstAt1,      //!< first gate at decision 1, then on/on/off
    FirstAtMid,    //!< first gate at decision blocks/2, then on/on/off
    FirstAtLast,   //!< one gate at blocks-3, applied at the last block
    OnlyUnapplied, //!< one gate at blocks-2, decided but never applied
    Random,        //!< seeded draw on the telemetry digest
};

constexpr Schedule kSchedules[] = {
    Schedule::Never,      Schedule::Always,      Schedule::FirstAt0,
    Schedule::FirstAt1,   Schedule::FirstAtMid,  Schedule::FirstAtLast,
    Schedule::OnlyUnapplied, Schedule::Random,
};

constexpr AppCategory kCategories[] = {
    AppCategory::HpcPerf,         AppCategory::CloudSecurity,
    AppCategory::AiAnalytics,     AppCategory::WebProductivity,
    AppCategory::Multimedia,      AppCategory::GamesRendering,
};

/**
 * Answers a fixed gate schedule and folds every telemetry view it is
 * handed (rows, cycles, mode) into a digest, so a view that differs
 * in one bit shows in the table even where the decisions do not.
 */
class ScheduledPredictor : public GatePredictor
{
  public:
    ScheduledPredictor(uint64_t granularity, size_t blocks,
                       size_t columns, Schedule schedule, uint64_t seed)
        : granularity_(granularity), blocks_(blocks), columns_(columns),
          schedule_(schedule), digest_(seed)
    {}
    uint64_t granularity() const override { return granularity_; }
    bool decide(const std::vector<const float *> &rows,
                const std::vector<float> &cycles, CoreMode mode) override
    {
        for (size_t t = 0; t < rows.size(); ++t) {
            for (size_t j = 0; j < columns_; ++j)
                digest_ = mixSeeds(digest_,
                                   std::bit_cast<uint32_t>(rows[t][j]));
            digest_ = mixSeeds(digest_, std::bit_cast<uint32_t>(cycles[t]));
        }
        digest_ = mixSeeds(digest_, static_cast<uint64_t>(mode));
        const size_t b = calls_++;
        auto from = [b](size_t first) {
            return b >= first && (b - first) % 3 != 2;
        };
        switch (schedule_) {
          case Schedule::Never: return false;
          case Schedule::Always: return true;
          case Schedule::FirstAt0: return from(0);
          case Schedule::FirstAt1: return from(1);
          case Schedule::FirstAtMid: return from(blocks_ / 2);
          case Schedule::FirstAtLast: return b == blocks_ - 3;
          case Schedule::OnlyUnapplied: return b == blocks_ - 2;
          case Schedule::Random: return (digest_ >> 17) & 1;
        }
        return false;
    }
    uint32_t opsPerInference() const override { return 3; }
    std::string name() const override { return "scheduled"; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<ScheduledPredictor>(*this);
    }
    uint64_t digest() const { return digest_; }

  private:
    uint64_t granularity_;
    size_t blocks_;
    size_t columns_;
    Schedule schedule_;
    uint64_t digest_;
    size_t calls_ = 0;
};

/** Every ClosedLoopResult field, plus what the registry and predictor saw. */
struct LoopRow
{
    double ppwGainPct, perfRelativePct, lowResidency, pgos, rsv;
    uint64_t tp, fp, tn, fn;
    uint64_t numPredictions, modeSwitches, ucOps;
    uint64_t gates, stays; //!< controller.{gate,nogate}_decisions deltas
    uint64_t views;        //!< ScheduledPredictor::digest()

    bool
    operator==(const LoopRow &o) const
    {
        auto bits = [](double d) { return std::bit_cast<uint64_t>(d); };
        return bits(ppwGainPct) == bits(o.ppwGainPct) &&
            bits(perfRelativePct) == bits(o.perfRelativePct) &&
            bits(lowResidency) == bits(o.lowResidency) &&
            bits(pgos) == bits(o.pgos) && bits(rsv) == bits(o.rsv) &&
            tp == o.tp && fp == o.fp && tn == o.tn && fn == o.fn &&
            numPredictions == o.numPredictions &&
            modeSwitches == o.modeSwitches && ucOps == o.ucOps &&
            gates == o.gates && stays == o.stays && views == o.views;
    }
};

/** A row as the C++ initializer kGoldenLoops holds. */
std::string
formatRow(const LoopRow &r)
{
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{%a, %a, %a, %a, %a, %llu, %llu, %llu, %llu, %llu, %llu, "
        "%llu, %llu, %llu, 0x%016llxULL}",
        r.ppwGainPct, r.perfRelativePct, r.lowResidency, r.pgos, r.rsv,
        static_cast<unsigned long long>(r.tp),
        static_cast<unsigned long long>(r.fp),
        static_cast<unsigned long long>(r.tn),
        static_cast<unsigned long long>(r.fn),
        static_cast<unsigned long long>(r.numPredictions),
        static_cast<unsigned long long>(r.modeSwitches),
        static_cast<unsigned long long>(r.ucOps),
        static_cast<unsigned long long>(r.gates),
        static_cast<unsigned long long>(r.stays),
        static_cast<unsigned long long>(r.views));
    return buf;
}

/**
 * Recorded with every block replayed, one row per (category, schedule)
 * in kCategories x kSchedules order.
 */
const LoopRow kGoldenLoops[] = {
    // HpcPerf, granularity 10k
    {-0x1.054f596p-21, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 25, 25, 0, 75, 0, 25, 0x261c62294b94cfd0ULL},
    {0x1.24f5ace1953cp+5, 0x1.8d3c57a79a853p+6,
     0x1.d70a3d70a3d71p-1, 0x1.d70a3d70a3d71p-1, 0x0p+0,
     23, 0, 0, 2, 25, 1, 75, 25, 0, 0xf01590966831cc48ULL},
    {0x1.67ae4f6b94de1p+4, 0x1.8d1f5edd879ep+6,
     0x1.47ae147ae147bp-1, 0x1.47ae147ae147bp-1, 0x0p+0,
     16, 0, 0, 9, 25, 15, 75, 17, 8, 0x8e13c47de1b546c8ULL},
    {0x1.474ae9a9824dcp+4, 0x1.8c2fc7bb1e705p+6,
     0x1.3333333333333p-1, 0x1.3333333333333p-1, 0x0p+0,
     15, 0, 0, 10, 25, 15, 75, 16, 9, 0x407facd904c19ac3ULL},
    {0x1.4bdf522b560ebp+3, 0x1.8f83444075335p+6,
     0x1.47ae147ae147bp-2, 0x1.47ae147ae147bp-2, 0x0p+0,
     8, 0, 0, 17, 25, 7, 75, 9, 16, 0xc75357bd35b2cd3cULL},
    {0x1.4a406724c54bp+0, 0x1.90a1df3d4356ep+6,
     0x1.47ae147ae147bp-5, 0x1.47ae147ae147bp-5, 0x0p+0,
     1, 0, 0, 24, 25, 1, 75, 1, 24, 0x6778c6f5aa19116cULL},
    {-0x1.054f596p-21, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 25, 25, 0, 75, 1, 24, 0x261c62294b94cfd0ULL},
    {0x1.f65f4d6078854p+3, 0x1.8d1821540a771p+6,
     0x1.eb851eb851eb8p-2, 0x1.eb851eb851eb8p-2, 0x0p+0,
     12, 0, 0, 13, 25, 11, 75, 13, 12, 0xd094b6ebf1214332ULL},
    // CloudSecurity, granularity 20k
    {-0x1.9616aea8p-22, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 12, 12, 0, 36, 0, 12, 0xd77c73a0880dfa11ULL},
    {0x1.6ec77fbd149d6p+5, 0x1.8fb7f0da4d171p+6,
     0x1.aaaaaaaaaaaabp-1, 0x1.aaaaaaaaaaaabp-1, 0x0p+0,
     10, 0, 0, 2, 12, 1, 36, 12, 0, 0x515c9b65d5f12bc7ULL},
    {0x1.c11f2922696b3p+4, 0x1.8fb63f1d661bap+6,
     0x1.2aaaaaaaaaaabp-1, 0x1.2aaaaaaaaaaabp-1, 0x0p+0,
     7, 0, 0, 5, 12, 7, 36, 8, 4, 0xca6b5184ceedc9c7ULL},
    {0x1.87ccc1e8cbf39p+4, 0x1.8ff4f8fd26056p+6,
     0x1p-1, 0x1p-1, 0x0p+0,
     6, 0, 0, 6, 12, 6, 36, 8, 4, 0x3681b00cb3dd56deULL},
    {0x1.dd6b2e137e2a3p+2, 0x1.8fc8e30598211p+6,
     0x1p-2, 0x1p-2, 0x0p+0,
     3, 0, 0, 9, 12, 3, 36, 4, 8, 0x51a642cf28bc6ce9ULL},
    {0x1.322987cad7e5cp+0, 0x1.8fcb6ddf03b3dp+6,
     0x1.5555555555555p-4, 0x1.5555555555555p-4, 0x0p+0,
     1, 0, 0, 11, 12, 1, 36, 1, 11, 0x1a8c0eae50b6871eULL},
    {-0x1.9616aea8p-22, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 12, 12, 0, 36, 1, 11, 0xd77c73a0880dfa11ULL},
    {0x1.9a0fbe00cbe8ap+3, 0x1.8fc3cd6b9600ap+6,
     0x1.5555555555555p-2, 0x1.5555555555555p-2, 0x0p+0,
     4, 0, 0, 8, 12, 5, 36, 5, 7, 0x954306b8f4db8a68ULL},
    // AiAnalytics, granularity 30k
    {0x1.10b6de4p-21, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 8, 8, 0, 24, 0, 8, 0xa9721e3c221b4de1ULL},
    {0x1.bf743e9edc64ap+4, 0x1.8b17002befdcbp+6,
     0x1.8p-1, 0x1.8p-1, 0x0p+0,
     6, 0, 0, 2, 8, 1, 24, 8, 0, 0x6d1a5ca7a1817641ULL},
    {0x1.0edfa5d423bd4p+4, 0x1.8c009261994b3p+6,
     0x1p-1, 0x1p-1, 0x0p+0,
     4, 0, 0, 4, 8, 4, 24, 6, 2, 0xc66645b4319c0c93ULL},
    {0x1.0ecd512dc7681p+4, 0x1.8c77af90072e2p+6,
     0x1p-1, 0x1p-1, 0x0p+0,
     4, 0, 0, 4, 8, 3, 24, 5, 3, 0x3f848387bad265a7ULL},
    {0x1.f8bc67745353dp+2, 0x1.8ee2f2072698dp+6,
     0x1p-2, 0x1p-2, 0x0p+0,
     2, 0, 0, 6, 8, 1, 24, 3, 5, 0x44aa1c8d91f63805ULL},
    {0x1.d836279fb5712p+1, 0x1.8f11b1d53a24ap+6,
     0x1p-3, 0x1p-3, 0x0p+0,
     1, 0, 0, 7, 8, 1, 24, 1, 7, 0x9073f447bd3f953eULL},
    {0x1.10b6de4p-21, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 8, 8, 0, 24, 1, 7, 0xa9721e3c221b4de1ULL},
    {0x1.10233eca1a46ap+4, 0x1.8c3654a0bdfa4p+6,
     0x1p-1, 0x1p-1, 0x0p+0,
     4, 0, 0, 4, 8, 4, 24, 5, 3, 0x18de14c896cc2e78ULL},
    // WebProductivity, granularity 10k
    {0x1.60c158cp-24, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 25, 25, 0, 75, 0, 25, 0xf29dea5432aa0a49ULL},
    {0x1.96da8b1f55bc7p+5, 0x1.8f1d0136e6f47p+6,
     0x1.d70a3d70a3d71p-1, 0x1.d70a3d70a3d71p-1, 0x0p+0,
     23, 0, 0, 2, 25, 1, 75, 25, 0, 0x0e672b38beb60c6dULL},
    {0x1.e43171e0ab99ep+4, 0x1.8e9a968a940f6p+6,
     0x1.47ae147ae147bp-1, 0x1.47ae147ae147bp-1, 0x0p+0,
     16, 0, 0, 9, 25, 15, 75, 17, 8, 0x76011a1e5b147b45ULL},
    {0x1.bbacdc14846eap+4, 0x1.8f47d00d58263p+6,
     0x1.3333333333333p-1, 0x1.3333333333333p-1, 0x0p+0,
     15, 0, 0, 10, 25, 15, 75, 16, 9, 0x80af257c175b2ceaULL},
    {0x1.a0b913b98176dp+3, 0x1.8f9f03fd135e8p+6,
     0x1.47ae147ae147bp-2, 0x1.47ae147ae147bp-2, 0x0p+0,
     8, 0, 0, 17, 25, 7, 75, 9, 16, 0xa329bc2d6cec7eafULL},
    {0x1.7a91655d883b8p+0, 0x1.8ff4250c39cb6p+6,
     0x1.47ae147ae147bp-5, 0x1.47ae147ae147bp-5, 0x0p+0,
     1, 0, 0, 24, 25, 1, 75, 1, 24, 0x2e30f1e7dc52a0e8ULL},
    {0x1.60c158cp-24, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 25, 25, 0, 75, 1, 24, 0xf29dea5432aa0a49ULL},
    {0x1.2cfc81aac2e14p+4, 0x1.8e7399fa2a2cfp+6,
     0x1.c28f5c28f5c29p-2, 0x1.c28f5c28f5c29p-2, 0x0p+0,
     11, 0, 0, 14, 25, 15, 75, 11, 14, 0xb39dd1e00b21c61bULL},
    // Multimedia, granularity 20k
    {0x1.055f8c4p-22, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 4, 8, 12, 0, 36, 0, 12, 0x9b6e4c0b60f506b1ULL},
    {0x1.08da2b724c67cp+6, 0x1.8b2559077ffc6p+6,
     0x1.aaaaaaaaaaaabp-1, 0x1p+0, 0x0p+0,
     8, 2, 2, 0, 12, 1, 36, 12, 0, 0x07ce8625ea9964c4ULL},
    {0x1.285d7205a8b4p+5, 0x1.8c1bfe269c108p+6,
     0x1.2aaaaaaaaaaabp-1, 0x1.4p-1, 0x0p+0,
     5, 2, 2, 3, 12, 7, 36, 8, 4, 0x271095a51039b278ULL},
    {0x1.ed269122c6078p+4, 0x1.8d197bef419p+6,
     0x1p-1, 0x1.4p-1, 0x0p+0,
     5, 1, 3, 3, 12, 6, 36, 8, 4, 0xe58ad67f626cce01ULL},
    {0x1.375623d67ab58p+4, 0x1.8ff067c863889p+6,
     0x1p-2, 0x1.8p-2, 0x0p+0,
     3, 0, 4, 5, 12, 3, 36, 4, 8, 0x4e4473277c2b9328ULL},
    {0x1.6e71a7d12ad82p+2, 0x1.8ffd9147d387fp+6,
     0x1.5555555555555p-4, 0x1p-3, 0x0p+0,
     1, 0, 4, 7, 12, 1, 36, 1, 11, 0x8a2309f4e7e051edULL},
    {0x1.055f8c4p-22, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 4, 8, 12, 0, 36, 1, 11, 0x9b6e4c0b60f506b1ULL},
    {0x1.287cae6199486p+5, 0x1.8e6d12715d133p+6,
     0x1.aaaaaaaaaaaabp-2, 0x1.4p-1, 0x0p+0,
     5, 0, 4, 3, 12, 4, 36, 6, 6, 0x74ab57283794a78bULL},
    // GamesRendering, granularity 30k
    {-0x1.2e6a11p-25, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 8, 8, 0, 24, 0, 8, 0x44ffe68955220553ULL},
    {0x1.4ef41a8e5db7cp+5, 0x1.8f3b8cd90ecaep+6,
     0x1.8p-1, 0x1.8p-1, 0x0p+0,
     6, 0, 0, 2, 8, 1, 24, 8, 0, 0x6397bac95803636aULL},
    {0x1.775ee88302f8ep+4, 0x1.8f4e596c299acp+6,
     0x1p-1, 0x1p-1, 0x0p+0,
     4, 0, 0, 4, 8, 4, 24, 6, 2, 0x3984defd4fb4a4f9ULL},
    {0x1.ac5d906834521p+4, 0x1.8fa3e317fb892p+6,
     0x1p-1, 0x1p-1, 0x0p+0,
     4, 0, 0, 4, 8, 3, 24, 5, 3, 0x17168b519b4caabaULL},
    {0x1.528b5135055f5p+4, 0x1.8ff9917153845p+6,
     0x1p-2, 0x1p-2, 0x0p+0,
     2, 0, 0, 6, 8, 1, 24, 3, 5, 0x2b2246fdd59d4ce1ULL},
    {0x1.2e2b4d103052ap+3, 0x1.8ff9917153845p+6,
     0x1p-3, 0x1p-3, 0x0p+0,
     1, 0, 0, 7, 8, 1, 24, 1, 7, 0x0c1eb45cc81b3befULL},
    {-0x1.2e6a11p-25, 0x1.9p+6,
     0x0p+0, 0x0p+0, 0x0p+0,
     0, 0, 0, 8, 8, 0, 24, 1, 7, 0x44ffe68955220553ULL},
    {0x1.e4dedfa992ee8p+0, 0x1.8f8b7e863f481p+6,
     0x1p-3, 0x1p-3, 0x0p+0,
     1, 0, 0, 7, 8, 2, 24, 2, 6, 0x9956d18755044c59ULL},
};

BuildConfig
exactConfig()
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::LlcMiss),
        CounterRegistry::index(Ctr::BranchMispred),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::IssueSlotsUnused),
    };
    return cfg;
}

/** 25 intervals: granularity k = 1, 2, 3 leaves a partial tail block. */
std::vector<Workload>
exactWorkloads()
{
    std::vector<Workload> ws;
    for (size_t i = 0; i < std::size(kCategories); ++i) {
        Workload w;
        w.genome = sampleGenome(kCategories[i], 900 + i);
        w.inputSeed = 1;
        w.lengthInstr = 250000;
        w.name = w.genome.name;
        ws.push_back(std::move(w));
    }
    return ws;
}

uint64_t
exactGranularity(size_t category)
{
    return 10000 * (1 + category % 3);
}

std::vector<TraceRecord>
recordReferences(const std::vector<Workload> &ws, const BuildConfig &cfg)
{
    std::vector<TraceRecord> refs;
    for (size_t i = 0; i < ws.size(); ++i)
        refs.push_back(
            recordTrace(ws[i], cfg, 0, static_cast<uint32_t>(i)));
    return refs;
}

std::vector<LoopRow>
runTable(const std::vector<Workload> &ws,
         const std::vector<TraceRecord> &refs, const BuildConfig &cfg)
{
    auto &reg = obs::StatRegistry::instance();
    const obs::Counter &gates = reg.counter("controller.gate_decisions");
    const obs::Counter &stays = reg.counter("controller.nogate_decisions");
    std::vector<LoopRow> rows;
    for (size_t i = 0; i < ws.size(); ++i) {
        const uint64_t gran = exactGranularity(i);
        const size_t blocks =
            refs[i].numIntervals() / (gran / cfg.intervalInstr);
        for (const Schedule s : kSchedules) {
            ScheduledPredictor p(gran, blocks, cfg.counterIds.size(), s,
                                 mixSeeds(77, i));
            const uint64_t g0 = gates.value(), s0 = stays.value();
            const ClosedLoopResult r =
                simulateClosedLoop(ws[i], refs[i], p, cfg, SlaSpec{});
            rows.push_back({r.ppwGainPct, r.perfRelativePct,
                            r.lowResidency, r.pgos, r.rsv,
                            r.confusion.truePositive,
                            r.confusion.falsePositive,
                            r.confusion.trueNegative,
                            r.confusion.falseNegative, r.numPredictions,
                            r.modeSwitches, r.ucOps, gates.value() - g0,
                            stays.value() - s0, p.digest()});
        }
    }
    return rows;
}

/** Rows differing from kGoldenLoops, each printed to stderr. */
size_t
goldenMismatches(const std::vector<LoopRow> &rows)
{
    size_t bad = rows.size() == std::size(kGoldenLoops)
        ? 0
        : 1 + rows.size();
    for (size_t i = 0; i < rows.size(); ++i) {
        if (i < std::size(kGoldenLoops) && rows[i] == kGoldenLoops[i])
            continue;
        ++bad;
        std::fprintf(stderr, "row %zu differs; got\n    %s,\n", i,
                     formatRow(rows[i]).c_str());
    }
    return bad;
}

/** Where the sim memo keeps @p w's HighPerf intervals under @p cfg. */
std::filesystem::path
highPerfMemoPath(const Workload &w, const BuildConfig &cfg)
{
    return SimMemo::instance().pathFor(
        {memoTraceHash(w, cfg), coreConfigHash(cfg.core),
         CoreMode::HighPerf});
}

/** Remove the quarantined copies of the memo file @p path. */
void
dropQuarantined(const std::filesystem::path &path)
{
    namespace fs = std::filesystem;
    const std::string prefix = path.filename().string() + ".quarantined";
    for (const auto &e : fs::directory_iterator(path.parent_path()))
        if (e.path().filename().string().starts_with(prefix))
            fs::remove(e.path());
}

class ClosedLoopExact : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        ws_ = exactWorkloads();
        refs_ = recordReferences(ws_, exactConfig());
    }

    void TearDown() override { FaultRegistry::instance().configure(""); }

    static std::vector<Workload> ws_;
    static std::vector<TraceRecord> refs_;
};

std::vector<Workload> ClosedLoopExact::ws_;
std::vector<TraceRecord> ClosedLoopExact::refs_;

} // namespace

TEST(ClosedLoopExactDeathTest, ForeignCoreConfigTripsPremiseCheck)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const BuildConfig cfg = exactConfig();
    BuildConfig foreign = cfg;
    foreign.core.robSize = 96;
    const Workload w = exactWorkloads().front();
    const TraceRecord ref = recordTrace(w, foreign, 0, 0);
    const uint64_t gran = exactGranularity(0);
    const size_t blocks = ref.numIntervals() / (gran / cfg.intervalInstr);
    // Never gates: the memo settle, or the end-of-loop replay on a
    // miss, finds intervals the predictor did not see.
    EXPECT_DEATH(
        {
            ScheduledPredictor p(gran, blocks, cfg.counterIds.size(),
                                 Schedule::Never, 1);
            simulateClosedLoop(w, ref, p, cfg, SlaSpec{});
        },
        "was not recorded under this BuildConfig");
    // Gates at once: the catch-up replay of blocks 0 and 1 does.
    EXPECT_DEATH(
        {
            ScheduledPredictor p(gran, blocks, cfg.counterIds.size(),
                                 Schedule::Always, 1);
            simulateClosedLoop(w, ref, p, cfg, SlaSpec{});
        },
        "was not recorded under this BuildConfig");
}

TEST_F(ClosedLoopExact, MatchesGolden)
{
    const uint64_t settles0 = counterValue("replay.memo_settles");
    const uint64_t served0 = counterValue("replay.trie_served_blocks");
    EXPECT_EQ(goldenMismatches(runTable(ws_, refs_, exactConfig())), 0u);
    // Never and OnlyUnapplied settle on every category; the random
    // schedule may add more.
    EXPECT_GE(counterValue("replay.memo_settles") - settles0,
              2 * std::size(kCategories));
    EXPECT_GT(counterValue("replay.trie_served_blocks") - served0, 0u);
}

TEST_F(ClosedLoopExact, MatchesGoldenAfterMemoCorruption)
{
    namespace fs = std::filesystem;
    const BuildConfig cfg = exactConfig();
    std::vector<fs::path> paths;
    for (const Workload &w : ws_) {
        paths.push_back(highPerfMemoPath(w, cfg));
        ASSERT_TRUE(fs::exists(paths.back())) << paths.back();
        std::ofstream(paths.back(), std::ios::binary | std::ios::trunc)
            << "not a memo file";
    }
    const uint64_t quarantined0 = counterValue("memo.quarantined");
    const uint64_t settles0 = counterValue("replay.memo_settles");
    // Every settle misses and replays in HighPerf instead.
    EXPECT_EQ(goldenMismatches(runTable(ws_, refs_, cfg)), 0u);
    EXPECT_EQ(counterValue("memo.quarantined") - quarantined0,
              std::size(kCategories));
    EXPECT_EQ(counterValue("replay.memo_settles"), settles0);
    // Drop the quarantined bytes; re-recording restores the entries.
    for (const fs::path &p : paths)
        dropQuarantined(p);
    recordReferences(ws_, cfg);
}

TEST_F(ClosedLoopExact, MatchesGoldenWithFaultSiteArmed)
{
    // An armed site (here one the closed loop never reaches) bypasses
    // the walker's trie: a plain replay from block 0, nothing served,
    // nothing settled, and the memo is not even read.
    FaultRegistry::instance().configure("persist.memo_corrupt:1", 7);
    const uint64_t quarantined0 = counterValue("memo.quarantined");
    const uint64_t settles0 = counterValue("replay.memo_settles");
    const uint64_t served0 = counterValue("replay.trie_served_blocks");
    EXPECT_EQ(goldenMismatches(runTable(ws_, refs_, exactConfig())), 0u);
    EXPECT_EQ(counterValue("memo.quarantined"), quarantined0);
    EXPECT_EQ(counterValue("replay.memo_settles"), settles0);
    EXPECT_EQ(counterValue("replay.trie_served_blocks"), served0);
}

TEST(ClosedLoopExactMemoOff, MatchesGolden)
{
    // The memo singleton latches PSCA_SIM_MEMO at first use, so the
    // table reruns in a fresh process with the memo disabled.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("PSCA_SIM_MEMO", "0", 1);
            const BuildConfig cfg = exactConfig();
            const auto ws = exactWorkloads();
            const auto refs = recordReferences(ws, cfg);
            const size_t bad = goldenMismatches(runTable(ws, refs, cfg));
            const bool walked = counterValue("replay.memo_settles") != 0 ||
                counterValue("replay.trie_served_blocks") != 0;
            std::exit(bad == 0 && !walked && !SimMemo::instance().enabled()
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0), "");
}

namespace {

/** One pass's telemetry views, flattened, and its accounting. */
struct PassRun
{
    std::vector<float> views; //!< every block's rows, then its cycles
    PpwAccumulator acc;
};

/**
 * Run @p schedule; a walker settles before block @p settle_at and at
 * the end of the pass.
 */
template <typename Replayer>
PassRun
runPass(Replayer &replayer, const std::vector<CoreMode> &schedule,
        size_t settle_at = SIZE_MAX)
{
    const size_t n_ctr = smallConfig().counterIds.size();
    constexpr bool walker = std::is_same_v<Replayer, PassReplayer>;
    PassRun run;
    for (size_t b = 0; b < schedule.size(); ++b) {
        if constexpr (walker)
            if (b == settle_at)
                replayer.settle(run.acc);
        replayer.runBlock(schedule[b], run.acc);
        for (const float *row : replayer.rowPtrs())
            run.views.insert(run.views.end(), row, row + n_ctr);
        run.views.insert(run.views.end(), replayer.subCycles().begin(),
                         replayer.subCycles().end());
    }
    if constexpr (walker)
        replayer.settle(run.acc);
    return run;
}

/** Bit-equality of every view and of the accumulator totals. */
void
expectSameRun(const PassRun &got, const PassRun &want)
{
    ASSERT_EQ(got.views.size(), want.views.size());
    EXPECT_EQ(std::memcmp(got.views.data(), want.views.data(),
                          got.views.size() * sizeof(float)),
              0);
    EXPECT_EQ(got.acc.instructions(), want.acc.instructions());
    EXPECT_EQ(got.acc.cycles(), want.acc.cycles());
    EXPECT_EQ(std::bit_cast<uint64_t>(got.acc.energyNj()),
              std::bit_cast<uint64_t>(want.acc.energyNj()));
}

/** What a fresh BlockReplayer produces on @p schedule. */
PassRun
freshRun(const Workload &w, const std::vector<CoreMode> &schedule)
{
    BlockReplayer replayer(w, smallConfig(), 2);
    return runPass(replayer, schedule);
}

/** A ten-block schedule that gates blocks [from, to). */
std::vector<CoreMode>
gatedSchedule(size_t from, size_t to)
{
    std::vector<CoreMode> s(10, CoreMode::HighPerf);
    for (size_t b = from; b < to; ++b)
        s[b] = CoreMode::LowPower;
    return s;
}

class PassTrie : public ::testing::Test
{
  protected:
    void TearDown() override { FaultRegistry::instance().configure(""); }

    /** Sim-interval, served, caught-up and memo-settle deltas of f(). */
    template <typename F>
    std::array<uint64_t, 4>
    costOf(F f)
    {
        const char *names[] = {"sim.intervals", "replay.trie_served_blocks",
                               "replay.trie_catchup_blocks",
                               "replay.memo_settles"};
        std::array<uint64_t, 4> before, after;
        for (size_t i = 0; i < 4; ++i)
            before[i] = counterValue(names[i]);
        f();
        for (size_t i = 0; i < 4; ++i)
            after[i] = counterValue(names[i]) - before[i];
        return after;
    }

    const Workload w_ = twoPhaseWorkload(200000); // 10 blocks of 2
    const TraceRecord ref_ = recordTrace(w_, smallConfig(), 0, 0);
    PassReplayer trie_{w_, smallConfig(), 2};
};

} // namespace

TEST_F(PassTrie, RepeatedPassSimulatesNothing)
{
    const std::vector<CoreMode> s = gatedSchedule(3, 7);
    trie_.startPass(ref_);
    expectSameRun(runPass(trie_, s), freshRun(w_, s));
    EXPECT_EQ(trie_.nodes(), s.size());

    const uint64_t intervals0 = counterValue("sim.intervals");
    const uint64_t served0 = counterValue("replay.trie_served_blocks");
    trie_.startPass(ref_);
    const PassRun again = runPass(trie_, s);
    EXPECT_EQ(counterValue("sim.intervals"), intervals0);
    EXPECT_EQ(counterValue("replay.trie_served_blocks") - served0,
              s.size());
    EXPECT_EQ(trie_.nodes(), s.size());
    expectSameRun(again, freshRun(w_, s));
}

TEST_F(PassTrie, DivergentPassCatchesUpAndGoesLive)
{
    const std::vector<CoreMode> first = gatedSchedule(2, 5);
    const std::vector<CoreMode> second = gatedSchedule(2, 8);
    trie_.startPass(ref_);
    runPass(trie_, first);

    // The second pass shares blocks 0-4 with the first: served, then
    // caught up at the miss on block 5, then live to the end, at the
    // cost of one full replay.
    uint64_t intervals0 = counterValue("sim.intervals");
    freshRun(w_, second);
    const uint64_t full_replay = counterValue("sim.intervals") - intervals0;
    const uint64_t served0 = counterValue("replay.trie_served_blocks");
    const uint64_t caught0 = counterValue("replay.trie_catchup_blocks");
    intervals0 = counterValue("sim.intervals");
    trie_.startPass(ref_);
    const PassRun diverged = runPass(trie_, second);
    EXPECT_EQ(counterValue("sim.intervals") - intervals0, full_replay);
    EXPECT_EQ(counterValue("replay.trie_served_blocks") - served0, 5u);
    EXPECT_EQ(counterValue("replay.trie_catchup_blocks") - caught0, 5u);
    EXPECT_EQ(trie_.nodes(), 15u);
    expectSameRun(diverged, freshRun(w_, second));

    // Both paths, and a third that leaves the second one at block 7,
    // now match fresh replays whether served, caught up or live.
    for (const auto &s : {first, second, gatedSchedule(2, 7), first}) {
        trie_.startPass(ref_);
        expectSameRun(runPass(trie_, s), freshRun(w_, s));
    }
    EXPECT_EQ(trie_.nodes(), 18u);
}

TEST_F(PassTrie, ArmedFaultSiteBypassesTrie)
{
    // A site the replay never reaches still marks views as
    // fault-dependent: no pass is stored or served.
    FaultRegistry::instance().configure("persist.memo_corrupt:1", 7);
    const std::vector<CoreMode> s = gatedSchedule(4, 6);
    const uint64_t served0 = counterValue("replay.trie_served_blocks");
    for (int pass = 0; pass < 2; ++pass) {
        const uint64_t intervals0 = counterValue("sim.intervals");
        trie_.startPass(ref_);
        runPass(trie_, s);
        EXPECT_GT(counterValue("sim.intervals"), intervals0);
    }
    EXPECT_EQ(counterValue("replay.trie_served_blocks"), served0);
    EXPECT_EQ(trie_.nodes(), 0u);
    FaultRegistry::instance().configure("");
    trie_.startPass(ref_);
    expectSameRun(runPass(trie_, s), freshRun(w_, s));
    EXPECT_EQ(trie_.nodes(), s.size());
}

TEST_F(PassTrie, HighPerfPassSettlesFromMemo)
{
    // The whole pass is the spine: served from the record and settled
    // from the memo, without a core.
    const std::vector<CoreMode> s = gatedSchedule(0, 0);
    PassRun run;
    const auto cost = costOf([&] {
        trie_.startPass(ref_);
        run = runPass(trie_, s);
    });
    EXPECT_EQ(cost, (std::array<uint64_t, 4>{0, 10, 0, 1}));
    EXPECT_EQ(trie_.nodes(), s.size());
    expectSameRun(run, freshRun(w_, s));
}

TEST_F(PassTrie, CorruptMemoSettlesByReplay)
{
    const std::filesystem::path memo = highPerfMemoPath(w_, smallConfig());
    ASSERT_TRUE(std::filesystem::exists(memo)) << memo;
    std::ofstream(memo, std::ios::binary | std::ios::trunc)
        << "not a memo file";
    const std::vector<CoreMode> high = gatedSchedule(0, 0);
    const uint64_t full = costOf([&] { freshRun(w_, high); })[0];

    // The settle misses and the catch-up pays all ten blocks.
    PassRun run;
    auto cost = costOf([&] {
        trie_.startPass(ref_);
        run = runPass(trie_, high);
    });
    EXPECT_EQ(cost, (std::array<uint64_t, 4>{full, 10, 10, 0}));
    expectSameRun(run, freshRun(w_, high));

    // A mid-pass settle that misses replays blocks 0-2; the pass goes
    // on served, and its first gate catches up blocks 0-5 again.
    const std::vector<CoreMode> gated = gatedSchedule(6, 10);
    const uint64_t first3 = costOf([&] {
        freshRun(w_, std::vector<CoreMode>(3, CoreMode::HighPerf));
    })[0];
    PassReplayer walker(w_, smallConfig(), 2);
    cost = costOf([&] {
        walker.startPass(ref_);
        run = runPass(walker, gated, 3);
    });
    EXPECT_EQ(cost, (std::array<uint64_t, 4>{first3 + full, 6, 3 + 6, 0}));
    expectSameRun(run, freshRun(w_, gated));

    dropQuarantined(memo);
    recordTrace(w_, smallConfig(), 0, 0); // restores the memo entry
}

TEST_F(PassTrie, FirstGateCatchesUpItsServedPrefix)
{
    for (const size_t d : {0, 1, 4, 9}) {
        const std::vector<CoreMode> s = gatedSchedule(d, 10);
        const uint64_t full = costOf([&] { freshRun(w_, s); })[0];
        PassReplayer walker(w_, smallConfig(), 2);
        PassRun run;
        const auto cost = costOf([&] {
            walker.startPass(ref_);
            run = runPass(walker, s);
        });
        EXPECT_EQ(cost, (std::array<uint64_t, 4>{full, d, d, 0})) << d;
        expectSameRun(run, freshRun(w_, s));
    }
}

TEST_F(PassTrie, SecondPassServesSpineAndLowPowerChild)
{
    const std::vector<CoreMode> gated = gatedSchedule(4, 10);
    const std::vector<CoreMode> high = gatedSchedule(0, 0);
    const std::vector<CoreMode> late = gatedSchedule(7, 10);
    const uint64_t full = costOf([&] { freshRun(w_, gated); })[0];
    // The first pass catches up the spine's blocks 0-3, the all-HighPerf
    // one settles blocks 4-9 from the memo, and both are then served:
    // the spine and its LowPower child at block 4.
    const std::array<uint64_t, 4> costs[] = {
        {full, 4, 4, 0}, {0, 10, 0, 1}, {0, 10, 0, 0}, {0, 10, 0, 0}};
    const std::vector<CoreMode> passes[] = {gated, high, gated, high};
    for (size_t p = 0; p < std::size(passes); ++p) {
        PassRun run;
        const auto cost = costOf([&] {
            trie_.startPass(ref_);
            run = runPass(trie_, passes[p]);
        });
        EXPECT_EQ(cost, costs[p]) << p;
        expectSameRun(run, freshRun(w_, passes[p]));
    }
    // Leaving the spine at block 7 checks the memo's adds of blocks
    // 4-6 against their replay.
    PassRun run;
    const auto cost = costOf([&] {
        trie_.startPass(ref_);
        run = runPass(trie_, late);
    });
    EXPECT_EQ(cost, (std::array<uint64_t, 4>{full, 7, 7, 0}));
    expectSameRun(run, freshRun(w_, late));
    EXPECT_EQ(trie_.nodes(), 10u + 6u + 3u);
}

TEST_F(PassTrie, SettleMidPassKeepsTheSums)
{
    // Service::run() can stop mid-pass, settle, and be called again.
    const std::vector<CoreMode> high = gatedSchedule(0, 0);
    PassRun run;
    auto cost = costOf([&] {
        trie_.startPass(ref_);
        run = runPass(trie_, high, 4);
    });
    EXPECT_EQ(cost, (std::array<uint64_t, 4>{0, 10, 0, 2}));
    expectSameRun(run, freshRun(w_, high));

    // Settled blocks 0-2 replay into scratch at the gate, owed 3-5
    // into the sums.
    const std::vector<CoreMode> gated = gatedSchedule(6, 10);
    const uint64_t full = costOf([&] { freshRun(w_, gated); })[0];
    PassReplayer walker(w_, smallConfig(), 2);
    cost = costOf([&] {
        walker.startPass(ref_);
        run = runPass(walker, gated, 3);
    });
    EXPECT_EQ(cost, (std::array<uint64_t, 4>{full, 6, 6, 1}));
    expectSameRun(run, freshRun(w_, gated));
}

TEST(PassTrieCap, BlocksPastTheCapRunLiveUnrecorded)
{
    // 50-instruction intervals make one pass longer than the cap.
    BuildConfig cfg = smallConfig();
    cfg.intervalInstr = 50;
    constexpr size_t kBlocks = PassReplayer::kMaxNodes + 800;
    const Workload w = twoPhaseWorkload(kBlocks * 2 * cfg.intervalInstr);
    // An all-LowPower pass never reads the spine, so a record with no
    // intervals stands in for the reference; a real one's memo entries
    // would hold 18k full-width intervals per mode.
    TraceRecord ref;
    ref.numCounters = static_cast<uint16_t>(cfg.counterIds.size());
    const std::vector<CoreMode> s(kBlocks, CoreMode::LowPower);
    uint64_t intervals0 = counterValue("sim.intervals");
    BlockReplayer fresh(w, cfg, 2);
    const PassRun want = runPass(fresh, s);
    const uint64_t full = counterValue("sim.intervals") - intervals0;

    // The first pass records kMaxNodes blocks and runs the rest live;
    // the second serves the recorded ones, then catches them up and
    // runs the rest live again.
    PassReplayer walker(w, cfg, 2);
    for (const uint64_t served : {size_t{0}, PassReplayer::kMaxNodes}) {
        intervals0 = counterValue("sim.intervals");
        const uint64_t added0 = counterValue("replay.trie_nodes_added");
        const uint64_t served0 = counterValue("replay.trie_served_blocks");
        walker.startPass(ref);
        const PassRun got = runPass(walker, s);
        EXPECT_EQ(counterValue("sim.intervals") - intervals0, full);
        EXPECT_EQ(counterValue("replay.trie_nodes_added") - added0,
                  PassReplayer::kMaxNodes - served);
        EXPECT_EQ(counterValue("replay.trie_served_blocks") - served0,
                  served);
        EXPECT_EQ(walker.nodes(), PassReplayer::kMaxNodes);
        expectSameRun(got, want);
    }
}

TEST(PassTrieDeathTest, CatchUpThatDiffersFromItsNodeStops)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            const Workload w = twoPhaseWorkload(200000);
            const TraceRecord ref = recordTrace(w, smallConfig(), 0, 0);
            PassReplayer trie(w, smallConfig(), 2);
            trie.startPass(ref);
            runPass(trie, gatedSchedule(0, 0));
            trie.startPass(ref);
            // Arming a site mid-pass, which callers must not do,
            // builds the catch-up replayer with noisy telemetry: the
            // blocks served before the miss no longer match.
            FaultRegistry::instance().configure("telemetry.noise:1", 3);
            runPass(trie, gatedSchedule(5, 10));
        },
        "differs from its schedule-trie node");
}

TEST(ClosedLoop, OverBudgetSuiteWarnsOnceAndCountsPerTrace)
{
    ExperimentContext ctx;
    ctx.build = smallConfig();
    for (uint32_t i = 0; i < 3; ++i) {
        Workload w = twoPhaseWorkload(120000);
        w.inputSeed = i + 1;
        w.traceIndex = i;
        ctx.spec.push_back(recordTrace(w, ctx.build, 0, i));
        ctx.specWorkloadsList.push_back(std::move(w));
    }
    // A constant predictor no microcontroller budget affords.
    struct Hungry : ConstantPredictor
    {
        Hungry() : ConstantPredictor(false) {}
        uint32_t opsPerInference() const override { return 1u << 30; }
        std::string name() const override { return "overbudget"; }
        std::unique_ptr<GatePredictor> clone() const override
        {
            return std::make_unique<Hungry>();
        }
    };
    obs::Counter &overruns =
        obs::StatRegistry::instance().counter("controller.budget_overruns");
    const uint64_t before = overruns.value();
    ::testing::internal::CaptureStderr();
    for (int suite = 0; suite < 2; ++suite)
        evaluateSuite(ctx, Hungry(), {0, 1, 2}, 0.9);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(overruns.value() - before, 6u);
    size_t warnings = 0;
    for (size_t at = err.find("'overbudget' needs");
         at != std::string::npos;
         at = err.find("'overbudget' needs", at + 1))
        ++warnings;
    EXPECT_EQ(warnings, 1u) << err;
}
