/**
 * @file
 * Tournament branch direction predictor (bimodal + gshare with a
 * per-pc chooser), in the style of the Alpha 21264. The bimodal
 * component captures per-branch bias quickly; the gshare component
 * captures history-correlated patterns such as loop trip counts.
 * Direction-only: targets are assumed available from a BTB that
 * never misses (the synthetic traces use direct branches only).
 */

#ifndef PSCA_SIM_BPRED_HH
#define PSCA_SIM_BPRED_HH

#include <algorithm>
#include <cstdint>
#include <vector>

namespace psca {

/**
 * Table of 2-bit saturating counters packed four per byte (counter i
 * in bits 2*(i%4)..2*(i%4)+1 of byte i/4), initialised weakly taken.
 */
class TwoBitTable
{
  public:
    explicit TwoBitTable(uint32_t log2_entries)
        : bytes_(std::max<size_t>(1, (1ULL << log2_entries) / 4),
                 kWeaklyTaken)
    {}

    uint8_t
    get(uint64_t i) const
    {
        return (bytes_[i >> 2] >> shiftOf(i)) & 3;
    }

    /** Saturating step toward up (true) or down (false). */
    void
    step(uint64_t i, bool up)
    {
        const uint8_t v = get(i);
        if (up && v < 3)
            bytes_[i >> 2] += static_cast<uint8_t>(1u << shiftOf(i));
        else if (!up && v > 0)
            bytes_[i >> 2] -= static_cast<uint8_t>(1u << shiftOf(i));
    }

    void
    reset()
    {
        std::fill(bytes_.begin(), bytes_.end(), kWeaklyTaken);
    }

  private:
    static constexpr uint8_t kWeaklyTaken = 0xAA; //!< four 2s

    static uint32_t shiftOf(uint64_t i) { return (i & 3) * 2; }

    std::vector<uint8_t> bytes_;
};

/** Tournament predictor: predict-then-update in one call. */
class TournamentBpred
{
  public:
    /** @param log2_entries log2 of each component table's size. */
    explicit TournamentBpred(uint32_t log2_entries = 14)
        : bimodal_(log2_entries), gshare_(log2_entries),
          chooser_(log2_entries), mask_((1ULL << log2_entries) - 1)
    {}

    /**
     * Predict the branch at pc, then train on the actual outcome.
     * @return true if the prediction matched the outcome.
     */
    bool
    predictAndUpdate(uint64_t pc, bool taken)
    {
        const uint64_t pc_idx = (pc >> 2) & mask_;
        const uint64_t gs_idx = ((pc >> 2) ^ history_) & mask_;

        const bool bim_pred = bimodal_.get(pc_idx) >= 2;
        const bool gs_pred = gshare_.get(gs_idx) >= 2;
        const bool use_gshare = chooser_.get(pc_idx) >= 2;
        const bool predicted = use_gshare ? gs_pred : bim_pred;

        // Train the chooser toward the component that was right.
        if (gs_pred != bim_pred)
            chooser_.step(pc_idx, gs_pred == taken);
        bimodal_.step(pc_idx, taken);
        gshare_.step(gs_idx, taken);
        history_ = ((history_ << 1) | (taken ? 1 : 0)) & 0xfff;
        return predicted == taken;
    }

    /** Clear all predictor state. */
    void
    reset()
    {
        bimodal_.reset();
        gshare_.reset();
        chooser_.reset();
        history_ = 0;
    }

  private:
    TwoBitTable bimodal_;
    TwoBitTable gshare_;
    TwoBitTable chooser_;
    uint64_t mask_;
    uint64_t history_ = 0;
};

} // namespace psca

#endif // PSCA_SIM_BPRED_HH
