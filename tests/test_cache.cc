/**
 * @file
 * Tests for caches, TLBs, MSHR accounting, and the memory hierarchy.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "sim/cache.hh"

using namespace psca;

TEST(CacheLevel, HitAfterFill)
{
    CacheLevel cache({1024, 2, 64, 4});
    EXPECT_FALSE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1000, false).hit);
    EXPECT_TRUE(cache.access(0x1038, false).hit); // same line
    EXPECT_FALSE(cache.access(0x1040, false).hit); // next line
}

TEST(CacheLevel, LruEviction)
{
    // 2-way, 64B lines, 128B total -> 1 set of 2 ways.
    CacheLevel cache({128, 2, 64, 1});
    cache.access(0x0000, false);
    cache.access(0x1000, false);
    cache.access(0x0000, false);      // touch A; B becomes LRU
    const auto r = cache.access(0x2000, false);
    EXPECT_TRUE(r.evictedValid);
    EXPECT_TRUE(cache.contains(0x0000));
    EXPECT_FALSE(cache.contains(0x1000));
}

TEST(CacheLevel, DirtyEvictionTracked)
{
    CacheLevel cache({128, 2, 64, 1});
    cache.access(0x0000, true); // dirty
    cache.access(0x1000, false);
    cache.access(0x0000, false);
    const auto r = cache.access(0x2000, false); // evicts clean 0x1000
    EXPECT_TRUE(r.evictedValid);
    EXPECT_FALSE(r.evictedDirty);
    cache.access(0x1000, false); // evicts dirty 0x0000
    const auto r2 = cache.access(0x3000, false);
    (void)r2;
    // One of the two evictions above was the dirty line.
    EXPECT_FALSE(cache.contains(0x0000));
}

TEST(CacheLevel, ResetInvalidates)
{
    CacheLevel cache({1024, 2, 64, 4});
    cache.access(0x1000, false);
    cache.reset();
    EXPECT_FALSE(cache.access(0x1000, false).hit);
}

TEST(CacheLevel, WorkingSetLargerThanCacheMisses)
{
    CacheLevel cache({4096, 4, 64, 4});
    // Two passes over 4x the capacity: second pass must still miss.
    int second_pass_hits = 0;
    for (int pass = 0; pass < 2; ++pass) {
        for (uint64_t addr = 0; addr < 16384; addr += 64) {
            const bool hit = cache.access(addr, false).hit;
            if (pass == 1)
                second_pass_hits += hit ? 1 : 0;
        }
    }
    EXPECT_EQ(second_pass_hits, 0); // LRU thrashes a looped overflow
}

namespace {

/**
 * Timestamp true-LRU: a last-use clock per way, the victim being the
 * last empty way or else the least recently used one. The reference
 * the recency-ordered CacheLevel must match access for access.
 */
class TimestampLru
{
  public:
    explicit TimestampLru(const CacheConfig &cfg)
        : ways_(cfg.ways),
          sets_(cfg.sizeBytes / (cfg.lineBytes * cfg.ways)),
          lineBytes_(cfg.lineBytes),
          tags_(static_cast<size_t>(sets_) * ways_, kEmpty),
          lastUse_(tags_.size(), 0), dirty_(tags_.size(), false)
    {}

    CacheLevel::Result
    access(uint64_t addr, bool is_write)
    {
        const uint64_t line = addr / lineBytes_;
        const size_t base = static_cast<size_t>(line % sets_) * ways_;
        const uint64_t tag = line / sets_;
        ++clock_;
        CacheLevel::Result r;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (tags_[base + w] == tag) {
                lastUse_[base + w] = clock_;
                dirty_[base + w] = dirty_[base + w] || is_write;
                r.hit = true;
                return r;
            }
        }
        uint32_t victim = 0;
        for (uint32_t w = 0; w < ways_; ++w) {
            if (tags_[base + w] == kEmpty)
                victim = w;
            else if (tags_[base + victim] != kEmpty &&
                     lastUse_[base + w] < lastUse_[base + victim])
                victim = w;
        }
        r.evictedValid = tags_[base + victim] != kEmpty;
        r.evictedDirty = r.evictedValid && dirty_[base + victim];
        tags_[base + victim] = tag;
        lastUse_[base + victim] = clock_;
        dirty_[base + victim] = is_write;
        return r;
    }

  private:
    static constexpr uint64_t kEmpty = ~0ULL;
    uint32_t ways_;
    uint32_t sets_;
    uint32_t lineBytes_;
    std::vector<uint64_t> tags_;
    std::vector<uint64_t> lastUse_;
    std::vector<bool> dirty_;
    uint64_t clock_ = 0;
};

} // namespace

TEST(CacheLevel, MatchesTimestampLruOnRandomStreams)
{
    for (const CacheConfig cfg : {CacheConfig{8 * 64 * 16, 8, 64, 1},
                                  CacheConfig{16 * 64 * 32, 16, 64, 1},
                                  CacheConfig{4 * 4096 * 16, 4, 4096, 1}}) {
        CacheLevel cache(cfg);
        TimestampLru ref(cfg);
        const uint64_t lines = cfg.sizeBytes / cfg.lineBytes;
        Rng rng(cfg.ways * 7919 + cfg.lineBytes);
        std::vector<uint64_t> recent(64, 0);
        for (int i = 0; i < 300000; ++i) {
            // Mostly re-touch a recent line (hits, recency shuffles),
            // else a fresh line from a footprint of 3x the capacity
            // in one of two far-apart regions (tags near 2^41).
            uint64_t addr;
            const uint64_t r = rng.below(8);
            if (r < 5) {
                addr = recent[rng.below(recent.size())];
            } else {
                const uint64_t region = r == 7 ? (1ULL << 41) - (1ULL << 30)
                                               : 0;
                addr = region + rng.below(3 * lines) * cfg.lineBytes +
                    rng.below(cfg.lineBytes);
                recent[rng.below(recent.size())] = addr;
            }
            const bool write = rng.below(4) == 0;
            const CacheLevel::Result got = cache.access(addr, write);
            const CacheLevel::Result want = ref.access(addr, write);
            ASSERT_EQ(got.hit, want.hit) << cfg.ways << "-way, op " << i;
            ASSERT_EQ(got.evictedValid, want.evictedValid)
                << cfg.ways << "-way, op " << i;
            ASSERT_EQ(got.evictedDirty, want.evictedDirty)
                << cfg.ways << "-way, op " << i;
        }
    }
}

TEST(Tlb, HitAfterFill)
{
    Tlb tlb(64, 4096);
    EXPECT_FALSE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10000));
    EXPECT_TRUE(tlb.access(0x10fff)); // same page
    EXPECT_FALSE(tlb.access(0x11000)); // next page
}

TEST(MshrPool, BoundsConcurrentMisses)
{
    MshrPool pool(2);
    EXPECT_EQ(pool.allocAt(100), 100u);
    pool.fill(300);
    EXPECT_EQ(pool.allocAt(100), 100u); // one slot left
    pool.fill(350);
    // Both slots busy until 300.
    EXPECT_EQ(pool.allocAt(100), 300u);
}

TEST(MshrPool, OccupancyAt)
{
    MshrPool pool(4);
    pool.fill(100);
    pool.fill(200);
    EXPECT_EQ(pool.occupancyAt(50), 2);
    EXPECT_EQ(pool.occupancyAt(150), 1);
    EXPECT_EQ(pool.occupancyAt(250), 0);
}

class HierarchyTest : public ::testing::Test
{
  protected:
    CoreConfig cfg;
    Counters ctr;
};

TEST_F(HierarchyTest, L1HitLatency)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    mem.dataAccess(0x1000, false, 0x400000, 1000, mshrs, ctr); // warm
    const uint64_t done =
        mem.dataAccess(0x1000, false, 0x400000, 2000, mshrs, ctr);
    EXPECT_EQ(done, 2000 + cfg.l1d.hitLatency);
    EXPECT_GE(ctr.value(Ctr::L1dHit), 1u);
}

TEST_F(HierarchyTest, ColdMissPaysDramLatency)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    const uint64_t done =
        mem.dataAccess(0x5000000, false, 0x400000, 1000, mshrs, ctr);
    EXPECT_GE(done, 1000 + cfg.memLatency);
    EXPECT_EQ(ctr.value(Ctr::LlcMiss), 1u);
    EXPECT_EQ(ctr.value(Ctr::MemReads), 1u);
}

TEST_F(HierarchyTest, StridePrefetchHidesLatency)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    const uint64_t pc = 0x400100;
    uint64_t t = 10000;
    uint64_t worst_late = 0;
    // Stream through DRAM-resident lines with constant stride.
    for (int i = 0; i < 64; ++i) {
        const uint64_t addr = 0x10000000ULL + 64ULL * i;
        const uint64_t done = mem.dataAccess(addr, false, pc, t,
                                             mshrs, ctr);
        if (i > 8)
            worst_late = std::max(worst_late, done - t);
        t = done + 10;
    }
    // Once the stride locks, per-access latency must be far below a
    // full memory round trip.
    EXPECT_LT(worst_late, static_cast<uint64_t>(cfg.memLatency / 2));
}

TEST_F(HierarchyTest, RandomAccessNotPrefetched)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    Rng rng(3);
    uint64_t total = 0;
    int misses = 0;
    uint64_t t = 10000;
    for (int i = 0; i < 32; ++i) {
        const uint64_t addr =
            0x10000000ULL + ((rng.next() & 0xffffff) & ~63ULL);
        const uint64_t before = ctr.value(Ctr::LlcMiss);
        const uint64_t done =
            mem.dataAccess(addr, false, 0x400200, t, mshrs, ctr);
        if (ctr.value(Ctr::LlcMiss) > before) {
            total += done - t;
            ++misses;
        }
        t = done + 200;
    }
    ASSERT_GT(misses, 10);
    EXPECT_GT(static_cast<double>(total) / misses,
              0.9 * cfg.memLatency);
}

TEST_F(HierarchyTest, InstFetchUopCacheHitIsFree)
{
    MemoryHierarchy mem(cfg);
    mem.instAccess(0x400000, ctr);
    const uint32_t lat = mem.instAccess(0x400000, ctr);
    EXPECT_EQ(lat, 0u);
    EXPECT_GE(ctr.value(Ctr::UopCacheHit), 1u);
}

TEST_F(HierarchyTest, DtlbMissCounted)
{
    MemoryHierarchy mem(cfg);
    MshrPool mshrs(cfg.mshrsPerCluster);
    for (int i = 0; i < 200; ++i) {
        mem.dataAccess(0x20000000ULL + 4096ULL * i, false, 0x400300,
                       1000 + i * 300, mshrs, ctr);
    }
    // 200 distinct pages through a 64-entry TLB: mostly misses.
    EXPECT_GT(ctr.value(Ctr::DtlbMiss), 150u);
}
