/**
 * @file
 * Tests for the sliding-window bandwidth accounting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.hh"
#include "obs/stats.hh"
#include "sim/bandwidth.hh"

using namespace psca;

TEST(BandwidthRing, CapacityPerCycle)
{
    BandwidthRing ring(2);
    EXPECT_EQ(ring.reserve(10), 10u);
    EXPECT_EQ(ring.reserve(10), 10u);
    EXPECT_EQ(ring.reserve(10), 11u); // third goes to the next cycle
}

TEST(BandwidthRing, OutOfOrderReservations)
{
    BandwidthRing ring(1);
    EXPECT_EQ(ring.reserve(100), 100u);
    EXPECT_EQ(ring.reserve(50), 50u); // older slot still free
    EXPECT_EQ(ring.reserve(50), 51u);
}

TEST(BandwidthRing, GranularityGroupsCycles)
{
    BandwidthRing ring(1, 2); // one slot per 4 cycles
    const uint64_t a = ring.reserve(0);
    const uint64_t b = ring.reserve(0);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 4u);
    EXPECT_EQ(ring.reserve(9), 8u); // slot of period [8,11]
}

TEST(BandwidthRing, ResetClears)
{
    BandwidthRing ring(1);
    ring.reserve(5);
    ring.reset();
    EXPECT_EQ(ring.reserve(5), 5u);
}

TEST(BandwidthRing, UsageAt)
{
    BandwidthRing ring(3);
    ring.reserve(20);
    ring.reserve(20);
    EXPECT_EQ(ring.usageAt(20), 2);
    EXPECT_EQ(ring.usageAt(21), 0);
}

TEST(BandwidthRing, SetCapacity)
{
    BandwidthRing ring(4);
    ring.setCapacity(1);
    EXPECT_EQ(ring.reserve(7), 7u);
    EXPECT_EQ(ring.reserve(7), 8u);
}

TEST(BandwidthRing, SustainedThroughputMatchesCapacity)
{
    BandwidthRing ring(4);
    uint64_t last = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i)
        last = ring.reserve(0);
    // 4000 reservations at 4/cycle starting at 0 -> last lands at 999.
    EXPECT_EQ(last, static_cast<uint64_t>(n / 4 - 1));
}

TEST(BandwidthRing, FarFutureJumpClearsWindow)
{
    BandwidthRing ring(1, 0, 4); // tiny 16-entry window
    for (int i = 0; i < 16; ++i)
        ring.reserve(0);
    // Jump far beyond the window; all slots must read free again.
    EXPECT_EQ(ring.reserve(1000), 1000u);
    EXPECT_EQ(ring.reserve(1000), 1001u);
}

TEST(BandwidthRing, TooOldClampsToWindow)
{
    obs::Counter &clamps =
        obs::StatRegistry::instance().counter("sim.ring_clamps");
    const uint64_t before = clamps.value();
    BandwidthRing ring(1, 0, 4);
    ring.reserve(100); // horizon at 100
    // A request far older than the window cannot be tracked; it is
    // clamped into the window rather than mis-read stale state, and
    // counted.
    const uint64_t got = ring.reserve(2);
    EXPECT_GE(got, 100u - 15u);
    EXPECT_EQ(clamps.value(), before + 1);
}

namespace {

/** Per-period usage with no window at all: the ring's exact answer. */
class UnboundedSlots
{
  public:
    UnboundedSlots(uint8_t capacity, uint32_t shift)
        : capacity_(capacity), shift_(shift)
    {}

    uint64_t
    reserve(uint64_t earliest_cycle, bool *was_first)
    {
        uint64_t period = earliest_cycle >> shift_;
        while (used_[period] >= capacity_)
            ++period;
        *was_first = used_[period]++ == 0;
        return period << shift_;
    }

    uint8_t usageAt(uint64_t cycle) { return used_[cycle >> shift_]; }

  private:
    std::map<uint64_t, uint8_t> used_;
    uint8_t capacity_;
    uint32_t shift_;
};

} // namespace

TEST(BandwidthRing, MatchesUnboundedWithinLookBack)
{
    // While no request looks back past the window, the ring must
    // return what an unbounded per-period table returns, for every
    // request, and never clamp. Drives the core's default window.
    obs::Counter &clamps =
        obs::StatRegistry::instance().counter("sim.ring_clamps");
    const uint64_t before = clamps.value();
    constexpr uint64_t kWindow = uint64_t{1} << 15;
    for (uint8_t capacity : {1, 2, 4, 15}) {
        for (uint32_t shift : {0u, 3u}) {
            BandwidthRing ring(capacity, shift);
            UnboundedSlots ref(capacity, shift);
            Rng rng(0xb4d + capacity * 8 + shift);
            uint64_t horizon = 0; // furthest period reserved so far
            for (int i = 0; i < 200000; ++i) {
                // Mostly near the horizon, sometimes up to a whole
                // window behind it, now and then far ahead of it.
                const uint64_t r = rng.below(100);
                uint64_t period;
                if (r < 70)
                    period = horizon + rng.below(8);
                else if (r < 98)
                    period = horizon -
                        std::min(horizon, rng.below(kWindow));
                else
                    period = horizon + rng.below(4 * kWindow);
                const uint64_t earliest =
                    (period << shift) + rng.below(uint64_t{1} << shift);
                bool first_a = false, first_b = false;
                const uint64_t a = ring.reserve(earliest, &first_a);
                const uint64_t b = ref.reserve(earliest, &first_b);
                ASSERT_EQ(a, b) << "capacity " << int(capacity)
                                << " shift " << shift << " op " << i;
                ASSERT_EQ(first_a, first_b);
                ASSERT_EQ(ring.usageAt(a), ref.usageAt(a));
                horizon = std::max(horizon, a >> shift);
            }
        }
    }
    EXPECT_EQ(clamps.value(), before);
}

TEST(BandwidthRing, AdvanceClearsExactlyTheEnteringPeriods)
{
    // The window moves by clearing the periods that enter it in at
    // most two ranges, split where they wrap the array end. Fill a
    // 16-period window to capacity with its horizon at every array
    // offset, move the horizon by 1 to 40 periods (16 and more take
    // the whole-array clear), and check every period of the new
    // window, then a reservation at each, against the unbounded
    // table: a period cleared once too often or too rarely shows up
    // as a wrong slot, was_first or usage. At capacity 1 those
    // reservations find their periods full up to the horizon, so
    // they also drive the saturated walk past it onto an array slot
    // last used a lap ago.
    obs::Counter &clamps =
        obs::StatRegistry::instance().counter("sim.ring_clamps");
    const uint64_t before = clamps.value();
    constexpr uint64_t kSpan = 15; // log2_size 4: horizon - 15 .. horizon
    uint64_t walks_past_horizon = 0;
    for (uint8_t capacity : {1, 3}) {
        for (uint64_t offset = 0; offset <= kSpan; ++offset) {
            for (uint64_t advance : {1, 2, 14, 15, 16, 17, 40}) {
                const std::string where = "capacity " +
                    std::to_string(capacity) + " offset " +
                    std::to_string(offset) + " advance " +
                    std::to_string(advance);
                BandwidthRing ring(capacity, 0, 4);
                UnboundedSlots ref(capacity, 0);
                const auto check = [&](uint64_t earliest) {
                    bool first_a = false, first_b = false;
                    const uint64_t a = ring.reserve(earliest, &first_a);
                    const uint64_t b = ref.reserve(earliest, &first_b);
                    EXPECT_EQ(a, b) << where << " earliest " << earliest;
                    EXPECT_EQ(first_a, first_b)
                        << where << " earliest " << earliest;
                    EXPECT_EQ(ring.usageAt(a), ref.usageAt(a))
                        << where << " earliest " << earliest;
                    return a;
                };
                const uint64_t base = 2 * (kSpan + 1) + offset;
                for (uint64_t p = base - kSpan; p <= base; ++p)
                    for (int c = 0; c < capacity; ++c)
                        check(p);
                const uint64_t horizon = base + advance;
                check(horizon);
                for (uint64_t p = horizon - kSpan; p <= horizon; ++p)
                    EXPECT_EQ(ring.usageAt(p), ref.usageAt(p))
                        << where << " period " << p;
                // Each reservation here lands in the window or walks
                // one past the horizon, moving the window by one, so
                // the next period stays inside it (no clamp).
                uint64_t top = horizon;
                for (uint64_t p = horizon - kSpan; p <= horizon; ++p) {
                    const uint64_t slot = check(p);
                    if (slot > top) {
                        ++walks_past_horizon;
                        top = slot;
                    }
                }
                ASSERT_FALSE(HasFailure()) << where;
            }
        }
    }
    EXPECT_GT(walks_past_horizon, 0u);
    EXPECT_EQ(clamps.value(), before);
}

TEST(BandwidthRing, LastUsageMatchesUsageAt)
{
    // The core's issue-bundle histogram reads lastUsage() instead of
    // usageAt(issue): after every reserve() the two must agree on the
    // returned slot, including far-future jumps that clear the window
    // and look-backs past it that clamp.
    for (uint8_t capacity : {1, 2, 4, 15}) {
        for (uint32_t shift : {0u, 2u}) {
            BandwidthRing ring(capacity, shift, 10);
            Rng rng(0x1a57 + capacity * 4 + shift);
            uint64_t horizon = 0;
            for (int i = 0; i < 100000; ++i) {
                const uint64_t r = rng.below(100);
                uint64_t period;
                if (r < 80)
                    period = horizon + rng.below(6);
                else if (r < 97)
                    period = horizon - std::min(horizon, rng.below(1200));
                else
                    period = horizon + rng.below(4096);
                const uint64_t slot = ring.reserve(period << shift);
                ASSERT_EQ(ring.lastUsage(), ring.usageAt(slot))
                    << "capacity " << int(capacity) << " shift " << shift
                    << " op " << i;
                ASSERT_GE(ring.lastUsage(), 1);
                ASSERT_LE(ring.lastUsage(), capacity);
                horizon = std::max(horizon, slot >> shift);
            }
        }
    }
}

TEST(InOrderSlots, MatchesRingOnMonotoneSequence)
{
    // The retire stage's pattern: each request is at least the cycle
    // the previous reservation returned, often equal to it (a burst
    // queuing behind a full cycle), sometimes jumping ahead, now and
    // then past the ring's whole window.
    for (uint8_t capacity : {1, 2, 4, 8}) {
        BandwidthRing ring(capacity);
        InOrderSlots slots(capacity);
        Rng rng(0x5107 + capacity);
        uint64_t last = 0;
        for (int i = 0; i < 200000; ++i) {
            const uint64_t r = rng.below(64);
            const uint64_t earliest = r < 40 ? last
                : r == 63               ? last + 300000
                                        : last + r;
            const uint64_t a = ring.reserve(earliest);
            const uint64_t b = slots.reserve(earliest);
            ASSERT_EQ(a, b) << "capacity " << int(capacity) << " op " << i;
            last = a;
        }
        ring.reset();
        slots.reset();
        EXPECT_EQ(ring.reserve(0), slots.reserve(0));
    }
}
