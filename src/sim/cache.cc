#include "sim/cache.hh"

#include <algorithm>
#include <bit>
#include <cstring>

namespace psca {

namespace {

uint32_t
log2Floor(uint64_t x)
{
    return static_cast<uint32_t>(63 - std::countl_zero(x));
}

/** Bucket index for the load-stride histogram. */
uint16_t
strideBucket(int64_t stride)
{
    const uint64_t mag = static_cast<uint64_t>(stride < 0 ? -stride
                                                          : stride);
    if (mag == 0)
        return 0;
    return static_cast<uint16_t>(std::min<uint32_t>(15,
        1 + log2Floor(mag)));
}

} // namespace

CacheLevel::CacheLevel(const CacheConfig &cfg)
    : cfg_(cfg),
      numSets_(cfg.sizeBytes / (cfg.lineBytes * cfg.ways)),
      lineShift_(log2Floor(cfg.lineBytes)),
      setShift_(log2Floor(numSets_ == 0 ? 1 : numSets_)),
      ways_(static_cast<size_t>(numSets_) * cfg.ways, kInvalid)
{
    PSCA_ASSERT(numSets_ > 0 && (numSets_ & (numSets_ - 1)) == 0,
                "cache sets must be a power of two");
}

uint32_t
CacheLevel::split(uint64_t addr, uint32_t &set) const
{
    const uint64_t line_addr = addr >> lineShift_;
    set = static_cast<uint32_t>(line_addr) & (numSets_ - 1);
    const uint64_t tag = line_addr >> setShift_;
    PSCA_ASSERT(tag < kTagMask, "cache tag does not fit in 31 bits");
    return static_cast<uint32_t>(tag);
}

CacheLevel::Result
CacheLevel::access(uint64_t addr, bool is_write)
{
    uint32_t set;
    const uint32_t tag = split(addr, set);
    uint32_t *ways = &ways_[static_cast<size_t>(set) * cfg_.ways];
    const uint32_t dirty = is_write ? kDirty : 0;

    Result result;
    uint32_t w = 0;
    while (w < cfg_.ways && (ways[w] & kTagMask) != tag)
        ++w;
    uint32_t entry;
    if (w < cfg_.ways) {
        result.hit = true;
        entry = ways[w] | dirty;
    } else {
        // The last way is empty while the set has room, else LRU.
        w = cfg_.ways - 1;
        result.evictedValid = ways[w] != kInvalid;
        result.evictedDirty = result.evictedValid &&
            (ways[w] & kDirty) != 0;
        entry = tag | dirty;
    }
    // Move to front: ways [0, w) age by one position.
    std::memmove(ways + 1, ways, w * sizeof(*ways));
    ways[0] = entry;
    return result;
}

bool
CacheLevel::contains(uint64_t addr) const
{
    uint32_t set;
    const uint32_t tag = split(addr, set);
    const uint32_t *ways = &ways_[static_cast<size_t>(set) * cfg_.ways];
    for (uint32_t w = 0; w < cfg_.ways; ++w)
        if ((ways[w] & kTagMask) == tag)
            return true;
    return false;
}

void
CacheLevel::reset()
{
    std::fill(ways_.begin(), ways_.end(), kInvalid);
}

Tlb::Tlb(uint32_t entries, uint32_t page_bytes)
    : pages_({std::max<uint32_t>(1, entries / 4) * 4 * page_bytes, 4,
              page_bytes, 0})
{}

MemoryHierarchy::MemoryHierarchy(const CoreConfig &cfg)
    : cfg_(cfg),
      strideHistBase_(CounterRegistry::instance().familyBase(
          CtrFamily::StrideHist)),
      l1dMissRegionBase_(CounterRegistry::instance().familyBase(
          CtrFamily::L1dMissRegion)),
      l2MissRegionBase_(CounterRegistry::instance().familyBase(
          CtrFamily::L2MissRegion)),
      uopCache_({cfg.uopCacheUops * 4, 8, 64, 1}),
      l1i_(cfg.l1i),
      l1d_(cfg.l1d),
      l2_(cfg.l2),
      llc_(cfg.llc),
      itlb_(cfg.tlbEntries, cfg.pageBytes),
      dtlb_(cfg.tlbEntries, cfg.pageBytes),
      // Fill-slot look-back stays below 2,300 periods (DESIGN.md §9).
      dram_(1, log2Floor(std::max<uint32_t>(1, cfg.dramSlotCycles)), 13),
      strideTable_(256)
{}

void
MemoryHierarchy::reset()
{
    uopCache_.reset();
    l1i_.reset();
    l1d_.reset();
    l2_.reset();
    llc_.reset();
    itlb_.reset();
    dtlb_.reset();
    dram_.reset();
    std::fill(strideTable_.begin(), strideTable_.end(), StrideEntry{});
}

uint64_t
MemoryHierarchy::fillLine(uint64_t addr, uint64_t pc, uint64_t t0,
                          Counters &ctr)
{
    // L2 probe.
    const auto l2_res = l2_.access(addr, false);
    if (l2_res.hit) {
        ctr.inc(Ctr::L2Hit);
        return t0 + l2_.hitLatency();
    }
    ctr.inc(Ctr::L2Miss);
    ctr.inc(static_cast<uint16_t>(
        l2MissRegionBase_ + ((addr >> 24) & 63)));
    if (l2_res.evictedValid) {
        ctr.inc(l2_res.evictedDirty ? Ctr::L2DirtyEvict
                                    : Ctr::L2SilentEvict);
    }

    // LLC probe.
    if (llc_.access(addr, false).hit) {
        ctr.inc(Ctr::LlcHit);
        return t0 + llc_.hitLatency();
    }
    ctr.inc(Ctr::LlcMiss);

    // DRAM: latency plus a shared fill-bandwidth slot. A stride
    // prefetcher with confident history hides the latency (the
    // prefetch was launched a full memory latency ago) but still
    // consumes a fill slot, so streams are bandwidth-bound.
    StrideEntry &se = strideTable_[(pc >> 2) & 255];
    const bool prefetched = se.pc == pc && se.confidence >= 2 &&
        static_cast<int64_t>(addr - se.lastAddr) == se.stride;

    ctr.inc(Ctr::MemReads);
    ctr.inc(Ctr::MemBytesRead, 64);

    if (prefetched) {
        const uint64_t launch =
            t0 > cfg_.memLatency ? t0 - cfg_.memLatency : 0;
        const uint64_t slot = dram_.reserve(launch);
        return std::max(t0 + l2_.hitLatency(),
                        slot + cfg_.dramSlotCycles);
    }
    const uint64_t slot = dram_.reserve(t0 + llc_.hitLatency());
    return slot + cfg_.memLatency;
}

uint64_t
MemoryHierarchy::dataAccess(uint64_t addr, bool is_write, uint64_t pc,
                            uint64_t t0, MshrPool &mshrs, Counters &ctr)
{
    ctr.inc(is_write ? Ctr::L1dWrite : Ctr::L1dRead);

    // Train the stride prefetcher (all L1D traffic, reads and
    // writes) and record the stride histogram.
    StrideEntry &se = strideTable_[(pc >> 2) & 255];
    if (se.pc == pc) {
        const int64_t stride = static_cast<int64_t>(addr) -
            static_cast<int64_t>(se.lastAddr);
        ctr.inc(static_cast<uint16_t>(
            strideHistBase_ + strideBucket(stride)));
        if (stride == se.stride && stride != 0) {
            if (se.confidence < 7)
                ++se.confidence;
        } else {
            se.stride = stride;
            se.confidence = 0;
        }
    } else {
        se.pc = pc;
        se.stride = 0;
        se.confidence = 0;
    }

    // TLB.
    uint64_t t = t0;
    if (dtlb_.access(addr)) {
        ctr.inc(Ctr::DtlbHit);
    } else {
        ctr.inc(Ctr::DtlbMiss);
        t += cfg_.tlbMissPenalty;
    }

    // L1D probe.
    const auto l1_res = l1d_.access(addr, is_write);
    uint64_t completion;
    if (l1_res.hit) {
        ctr.inc(Ctr::L1dHit);
        completion = t + l1d_.hitLatency();
    } else {
        ctr.inc(Ctr::L1dMiss);
        ctr.inc(static_cast<uint16_t>(
            l1dMissRegionBase_ + ((addr >> 24) & 63)));
        // L1D writebacks propagate into L2 state.
        if (l1_res.evictedDirty)
            l2_.access(addr ^ 0x40, true);

        const uint64_t start = mshrs.allocAt(t + l1d_.hitLatency());
        if (start > t + l1d_.hitLatency())
            ctr.inc(Ctr::MshrFullStalls);
        completion = fillLine(addr, pc, start, ctr);
        mshrs.fill(completion);
    }

    se.lastAddr = addr;
    return completion;
}

uint32_t
MemoryHierarchy::instAccess(uint64_t pc, Counters &ctr)
{
    // Uop-cache first: hits bypass decode and the L1I.
    if (uopCache_.access(pc, false).hit) {
        ctr.inc(Ctr::UopCacheHit);
        return 0;
    }
    ctr.inc(Ctr::UopCacheMiss);

    if (!itlb_.access(pc)) {
        ctr.inc(Ctr::ItlbMiss);
        return cfg_.tlbMissPenalty;
    }
    ctr.inc(Ctr::ItlbHit);

    if (l1i_.access(pc, false).hit) {
        ctr.inc(Ctr::L1iHit);
        return l1i_.hitLatency();
    }
    ctr.inc(Ctr::L1iMiss);
    if (l2_.access(pc, false).hit) {
        ctr.inc(Ctr::L2Hit);
        return l1i_.hitLatency() + l2_.hitLatency();
    }
    ctr.inc(Ctr::L2Miss);
    if (llc_.access(pc, false).hit) {
        ctr.inc(Ctr::LlcHit);
        return l1i_.hitLatency() + llc_.hitLatency();
    }
    ctr.inc(Ctr::LlcMiss);
    ctr.inc(Ctr::MemReads);
    ctr.inc(Ctr::MemBytesRead, 64);
    return l1i_.hitLatency() + cfg_.memLatency;
}

} // namespace psca
