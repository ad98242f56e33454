/**
 * @file
 * Cache hierarchy for the clustered core: set-associative LRU caches
 * (uop cache, L1I, L1D, L2, LLC), TLBs, a per-pc stride prefetcher,
 * and a shared DRAM bandwidth model. The hierarchy converts a probe
 * at a given cycle into a completion cycle and updates telemetry.
 */

#ifndef PSCA_SIM_CACHE_HH
#define PSCA_SIM_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/page_alloc.hh"
#include "sim/bandwidth.hh"
#include "sim/config.hh"
#include "telemetry/counters.hh"

namespace psca {

/**
 * One set-associative, true-LRU, write-back cache level.
 *
 * Layout (DESIGN.md §9): one uint32_t per way holding the tag, with
 * the dirty flag in bit 31, and each set kept in recency order (MRU
 * first). A hit moves its entry to the front; a miss evicts the last
 * entry and inserts the new line at the front. While a set has room
 * its last entry is an empty way, and once it is full the last entry
 * is the LRU way, so the hit / evicted-valid / evicted-dirty sequence
 * is exactly true-LRU's without any recency timestamps. The set/tag
 * split uses shifts (the set count is asserted power-of-two), never
 * division.
 */
class CacheLevel
{
  public:
    explicit CacheLevel(const CacheConfig &cfg);

    /** Outcome of a lookup-with-fill. */
    struct Result
    {
        bool hit = false;
        bool evictedValid = false;
        bool evictedDirty = false;
    };

    /**
     * Probe for the line containing addr; on miss, fill it (evicting
     * LRU). Marks the line dirty when is_write.
     */
    Result access(uint64_t addr, bool is_write);

    /** Probe without fill or LRU update (used by tests). */
    bool contains(uint64_t addr) const;

    /** Invalidate everything. */
    void reset();

    uint32_t hitLatency() const { return cfg_.hitLatency; }

  private:
    static constexpr uint32_t kDirty = 1u << 31;
    static constexpr uint32_t kTagMask = kDirty - 1;
    /**
     * Empty-way marker. Its tag bits are kTagMask, which access()
     * asserts no real tag reaches (generator addresses stay below
     * 2^41, so even the 16-set uop cache's tags stay below 2^31 - 1).
     */
    static constexpr uint32_t kInvalid = ~0u;

    /** Tag of addr's line, and (through set) the index of its set. */
    uint32_t split(uint64_t addr, uint32_t &set) const;

    CacheConfig cfg_;
    uint32_t numSets_;
    uint32_t lineShift_;
    uint32_t setShift_;          //!< log2(numSets_)
    /** numSets x ways, each set MRU first; page-backed, so an LLC's
     *  512 KiB return to the system with its core. */
    PageVector<uint32_t> ways_;
};

/**
 * Small 4-way TLB over page numbers: a CacheLevel whose "lines" are
 * pages, so caches and TLBs share one LRU implementation.
 */
class Tlb
{
  public:
    Tlb(uint32_t entries, uint32_t page_bytes);

    /** Probe-and-fill; @return true on hit. */
    bool access(uint64_t addr) { return pages_.access(addr, false).hit; }
    void reset() { pages_.reset(); }

  private:
    CacheLevel pages_;
};

/**
 * Sliding window of outstanding-miss completion times, bounding the
 * memory-level parallelism of one memory execution unit.
 */
class MshrPool
{
  public:
    explicit MshrPool(int entries)
        : completions_(static_cast<size_t>(entries), 0)
    {}

    /** Earliest cycle >= t at which a new miss can allocate. */
    uint64_t
    allocAt(uint64_t t) const
    {
        return std::max(t, completions_[oldest_]);
    }

    /** Record the new miss's completion, retiring the oldest entry. */
    void
    fill(uint64_t completion)
    {
        completions_[oldest_] = completion;
        // Branch instead of modulo: the pool size is small and
        // runtime-configured, so % compiles to a hardware divide.
        if (++oldest_ == completions_.size())
            oldest_ = 0;
    }

    /** Outstanding misses at cycle t (for occupancy telemetry). */
    int
    occupancyAt(uint64_t t) const
    {
        int n = 0;
        for (uint64_t c : completions_)
            n += c > t ? 1 : 0;
        return n;
    }

    void
    reset()
    {
        std::fill(completions_.begin(), completions_.end(), 0);
        oldest_ = 0;
    }

  private:
    std::vector<uint64_t> completions_;
    size_t oldest_ = 0;
};

/**
 * The full data/instruction memory system shared by both clusters.
 * Data accesses model TLB, L1D, L2, LLC, DRAM latency and bandwidth,
 * and a per-pc stride prefetcher that hides DRAM latency (but not
 * DRAM bandwidth) for streaming access patterns.
 */
class MemoryHierarchy
{
  public:
    explicit MemoryHierarchy(const CoreConfig &cfg);

    /**
     * Perform a data access.
     *
     * @param addr Effective address.
     * @param is_write True for stores.
     * @param pc Static pc (prefetcher training key).
     * @param t0 Cycle the access begins (post issue/ports).
     * @param mshrs The issuing cluster's MSHR pool (miss MLP bound).
     * @param ctr Telemetry to update.
     * @return Completion cycle of the access.
     */
    uint64_t dataAccess(uint64_t addr, bool is_write, uint64_t pc,
                        uint64_t t0, MshrPool &mshrs, Counters &ctr);

    /**
     * Fetch the line containing pc through uop cache then L1I/L2.
     * @return Added fetch latency in cycles (0 on uop-cache hit).
     */
    uint32_t instAccess(uint64_t pc, Counters &ctr);

    /** Invalidate all state (caches, TLBs, prefetcher, DRAM ring). */
    void reset();

  private:
    /** Fill one line from beyond L1D; returns completion cycle. */
    uint64_t fillLine(uint64_t addr, uint64_t pc, uint64_t t0,
                      Counters &ctr);

    const CoreConfig cfg_;
    // Registry indices resolved once; familyBase() behind a
    // singleton call is too slow for the per-access path.
    uint16_t strideHistBase_;
    uint16_t l1dMissRegionBase_;
    uint16_t l2MissRegionBase_;
    CacheLevel uopCache_;
    CacheLevel l1i_;
    CacheLevel l1d_;
    CacheLevel l2_;
    CacheLevel llc_;
    Tlb itlb_;
    Tlb dtlb_;
    BandwidthRing dram_;

    /** Per-pc stride prefetch training table. */
    struct StrideEntry
    {
        uint64_t pc = 0;
        uint64_t lastAddr = 0;
        int64_t stride = 0;
        uint8_t confidence = 0;
    };
    std::vector<StrideEntry> strideTable_;
};

} // namespace psca

#endif // PSCA_SIM_CACHE_HH
