/**
 * @file
 * Tests for the tournament branch predictor.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "sim/bpred.hh"

using namespace psca;

TEST(Bpred, LearnsAlwaysTaken)
{
    TournamentBpred bp;
    int correct = 0;
    for (int i = 0; i < 100; ++i)
        correct += bp.predictAndUpdate(0x1000, true) ? 1 : 0;
    EXPECT_GE(correct, 97); // only warmup misses
}

TEST(Bpred, LearnsBiasPerPc)
{
    TournamentBpred bp;
    int correct = 0;
    const int n = 2000;
    for (int i = 0; i < n; ++i) {
        correct += bp.predictAndUpdate(0x1000, true) ? 1 : 0;
        correct += bp.predictAndUpdate(0x2000, false) ? 1 : 0;
    }
    EXPECT_GT(correct, 2 * n - 40);
}

TEST(Bpred, LearnsShortLoopPattern)
{
    // Period-4 loop: T T T N repeating; gshare should capture it.
    TournamentBpred bp;
    int correct = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        correct += bp.predictAndUpdate(0x3000, i % 4 != 3) ? 1 : 0;
    EXPECT_GT(static_cast<double>(correct) / n, 0.95);
}

TEST(Bpred, RandomBranchesNearChance)
{
    TournamentBpred bp;
    Rng rng(1);
    int correct = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        correct += bp.predictAndUpdate(0x4000, rng.bernoulli(0.5)) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(correct) / n, 0.5, 0.05);
}

TEST(Bpred, BiasedRandomApproachesBias)
{
    TournamentBpred bp;
    Rng rng(2);
    int correct = 0;
    const int n = 10000;
    for (int i = 0; i < n; ++i)
        correct += bp.predictAndUpdate(0x5000, rng.bernoulli(0.9)) ? 1 : 0;
    EXPECT_GT(static_cast<double>(correct) / n, 0.85);
}

TEST(Bpred, ResetForgets)
{
    TournamentBpred bp;
    for (int i = 0; i < 100; ++i)
        bp.predictAndUpdate(0x1000, false);
    bp.reset();
    // Post-reset counters are weakly-taken: the first "false"
    // outcome must once again mispredict.
    EXPECT_FALSE(bp.predictAndUpdate(0x1000, false));
}

namespace {

/** The tournament predictor with one byte per 2-bit counter. */
class BytePerCounterBpred
{
  public:
    explicit BytePerCounterBpred(uint32_t log2_entries)
        : bimodal_(1ULL << log2_entries, 2),
          gshare_(1ULL << log2_entries, 2),
          chooser_(1ULL << log2_entries, 2),
          mask_((1ULL << log2_entries) - 1)
    {}

    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        const uint64_t pc_idx = (pc >> 2) & mask_;
        const uint64_t gs_idx = ((pc >> 2) ^ history_) & mask_;
        const bool bim_pred = bimodal_[pc_idx] >= 2;
        const bool gs_pred = gshare_[gs_idx] >= 2;
        const bool predicted =
            chooser_[pc_idx] >= 2 ? gs_pred : bim_pred;
        if (gs_pred != bim_pred) {
            if (gs_pred == taken && chooser_[pc_idx] < 3)
                ++chooser_[pc_idx];
            else if (bim_pred == taken && chooser_[pc_idx] > 0)
                --chooser_[pc_idx];
        }
        train(bimodal_[pc_idx], taken);
        train(gshare_[gs_idx], taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & 0xfff;
        return predicted == taken;
    }

  private:
    static void
    train(uint8_t &ctr, bool taken)
    {
        if (taken && ctr < 3)
            ++ctr;
        else if (!taken && ctr > 0)
            --ctr;
    }

    std::vector<uint8_t> bimodal_;
    std::vector<uint8_t> gshare_;
    std::vector<uint8_t> chooser_;
    uint64_t mask_;
    uint64_t history_ = 0;
};

} // namespace

TEST(Bpred, PackedCountersMatchBytePerCounter)
{
    // Small tables alias heavily, so neighbouring counters in one
    // byte are updated back to back; the default size is the core's.
    for (uint32_t log2_entries : {4u, 14u}) {
        TournamentBpred packed(log2_entries);
        BytePerCounterBpred ref(log2_entries);
        Rng rng(0x9ac4 + log2_entries);
        for (int i = 0; i < 400000; ++i) {
            // A few hundred static branches with per-pc bias, plus
            // loop-like periodic ones.
            const uint64_t pc = 0x400000 + rng.below(512) * 4;
            const bool taken = (pc >> 2) % 5 == 0
                ? i % 7 != 0
                : rng.bernoulli(((pc >> 2) % 9 + 0.5) / 9.5);
            ASSERT_EQ(packed.predictAndUpdate(pc, taken),
                      ref.predictAndUpdate(pc, taken))
                << "log2 " << log2_entries << " op " << i;
        }
        if (log2_entries == 14) {
            packed.reset();
            BytePerCounterBpred fresh(log2_entries);
            for (int i = 0; i < 1000; ++i) {
                const uint64_t pc = 0x400000 + rng.below(64) * 4;
                const bool taken = rng.bernoulli(0.7);
                ASSERT_EQ(packed.predictAndUpdate(pc, taken),
                          fresh.predictAndUpdate(pc, taken));
            }
        }
    }
}
