/**
 * @file
 * Per-cycle bandwidth accounting for the timestamp-propagation core
 * model. A BandwidthRing answers "what is the first cycle at or after
 * t with a free slot?" for bounded-capacity resources (issue ports,
 * load ports, DRAM fill slots) using a lazily-cleared circular usage
 * array. InOrderSlots answers the same question for resources
 * reserved in order (retire slots) with two words of state.
 */

#ifndef PSCA_SIM_BANDWIDTH_HH
#define PSCA_SIM_BANDWIDTH_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "common/logging.hh"
#include "common/page_alloc.hh"

namespace psca {

/**
 * Bump the sim.ring_clamps counter. Out of line: a clamp means a
 * reservation looked back past the window, which must never happen
 * in this model (see BandwidthRing).
 */
void noteRingClamp();

/**
 * Sliding-window per-period usage counter. The window must exceed the
 * maximum look-back of a reservation behind the furthest period
 * reserved so far (the horizon). While no reservation looks back
 * further than the window, every period read lies inside the window
 * and has seen every increment, so the ring returns exactly what an
 * unbounded one would. The default 2^15 periods is about twice the
 * largest look-back measured across the genome corpus (15,593
 * periods, issue and load-port rings in high-performance mode). A
 * request older than the window is clamped into it and counted in
 * sim.ring_clamps, which tests pin at zero.
 */
class BandwidthRing
{
  public:
    /**
     * @param capacity Slots available per period.
     * @param granularity_shift log2 cycles per period (0 = per cycle;
     *        2 = one period per 4 cycles, used for DRAM fill slots).
     * @param log2_size log2 of the window size in periods.
     */
    explicit BandwidthRing(uint8_t capacity, uint32_t granularity_shift = 0,
                           uint32_t log2_size = 15)
        : used_(1ULL << log2_size, 0),
          mask_((1ULL << log2_size) - 1),
          capacity_(capacity),
          shift_(granularity_shift)
    {}

    /** Change capacity (e.g. after a mode switch). */
    void setCapacity(uint8_t capacity) { capacity_ = capacity; }
    uint8_t capacity() const { return capacity_; }

    /**
     * Reserve one slot at the first period >= earliest_cycle with
     * free capacity.
     *
     * @return The cycle of the reserved slot (aligned to the period).
     * @param was_first Optional out-flag: set true when this is the
     *        first reservation in its period (used for busy-cycle
     *        counting).
     */
    uint64_t
    reserve(uint64_t earliest_cycle, bool *was_first = nullptr)
    {
        uint64_t period = earliest_cycle >> shift_;
        // Periods older than the window have been forgotten; clamp.
        if (horizon_ > mask_ && period < horizon_ - mask_) {
            period = horizon_ - mask_;
            noteRingClamp();
        }
        // Periods past the horizon are empty, so the walk over full
        // periods stops there and the window moves once, after it.
        while (period <= horizon_ && used_[period & mask_] >= capacity_)
            ++period;
        advanceTo(period);
        if (was_first)
            *was_first = used_[period & mask_] == 0;
        lastUsage_ = ++used_[period & mask_];
        return period << shift_;
    }

    /**
     * Usage of the period the last reserve() returned, including that
     * reservation: usageAt(slot) for its slot until the next reserve(),
     * without a second lookup.
     */
    uint8_t lastUsage() const { return lastUsage_; }

    /** Usage in the period containing cycle (within the window). */
    uint8_t
    usageAt(uint64_t cycle) const
    {
        const uint64_t period = cycle >> shift_;
        if (period > horizon_ ||
            (horizon_ > mask_ && period < horizon_ - mask_)) {
            return 0;
        }
        return used_[period & mask_];
    }

    /** Forget all reservations. */
    void
    reset()
    {
        std::memset(used_.data(), 0, used_.size());
        horizon_ = 0;
        lastUsage_ = 0;
    }

  private:
    /**
     * Clear the periods (horizon_, period] as they enter the window:
     * one memset, or two when the range wraps the array end, so the
     * cost does not grow with the number of periods skipped.
     */
    void
    advanceTo(uint64_t period)
    {
        if (period <= horizon_)
            return;
        const uint64_t n = period - horizon_;
        if (n > mask_) {
            std::memset(used_.data(), 0, used_.size());
        } else {
            const uint64_t first = (horizon_ + 1) & mask_;
            const uint64_t head = std::min(n, used_.size() - first);
            std::memset(used_.data() + first, 0, head);
            std::memset(used_.data(), 0, n - head);
        }
        horizon_ = period;
    }

    PageVector<uint8_t> used_; //!< page-backed at the default window
    uint64_t mask_;
    uint64_t horizon_ = 0;
    uint8_t capacity_;
    uint8_t lastUsage_ = 0;
    uint32_t shift_;
};

/**
 * Per-cycle slot counter for a resource reserved in order, such as
 * retire bandwidth. Precondition: every earliest_cycle is at least
 * the cycle the previous reserve() returned. A BandwidthRing fed such
 * a sequence never looks behind its horizon, and the horizon is
 * always the last cycle it returned, so only that one cycle can hold
 * reservations. A (cycle, used) pair therefore returns exactly what
 * the ring would, without the ring's window.
 */
class InOrderSlots
{
  public:
    explicit InOrderSlots(uint8_t capacity) : capacity_(capacity) {}

    /** Reserve one slot at the first cycle >= earliest_cycle with room. */
    uint64_t
    reserve(uint64_t earliest_cycle)
    {
        if (earliest_cycle > cycle_) {
            cycle_ = earliest_cycle;
            used_ = 0;
        }
        if (used_ >= capacity_) {
            ++cycle_;
            used_ = 0;
        }
        ++used_;
        return cycle_;
    }

    /** Forget all reservations. */
    void
    reset()
    {
        cycle_ = 0;
        used_ = 0;
    }

  private:
    uint64_t cycle_ = 0;
    uint8_t used_ = 0;
    uint8_t capacity_;
};

} // namespace psca

#endif // PSCA_SIM_BANDWIDTH_HH
