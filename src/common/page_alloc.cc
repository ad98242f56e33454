#include "common/page_alloc.hh"

#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <iterator>
#include <mutex>
#include <utility>
#include <vector>

namespace psca {

namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_live_peak{0};
std::atomic<int64_t> g_mapped{0};

std::mutex g_pool_mu;
/** Freed blocks (length, address), oldest first, reused before
 *  anything is mapped. */
std::vector<std::pair<size_t, void *>> g_pool; // guarded by g_pool_mu

size_t
wholePages(size_t bytes)
{
    static const size_t page =
        static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return (bytes + page - 1) / page * page;
}

void
unmap(void *p, size_t len) noexcept
{
    munmap(p, len);
    g_mapped.fetch_sub(static_cast<int64_t>(len), std::memory_order_relaxed);
}

} // namespace

void *
allocatePages(size_t bytes)
{
    const size_t len = wholePages(bytes);
    const auto size = static_cast<int64_t>(len);
    void *p = nullptr;
    int64_t live = 0;
    {
        std::lock_guard<std::mutex> lock(g_pool_mu);
        // Newest first: the block most likely still in this CPU's caches.
        for (auto it = g_pool.rbegin(); it != g_pool.rend(); ++it) {
            if (it->first == len) {
                p = it->second;
                g_pool.erase(std::next(it).base());
                break;
            }
        }
        live = g_live.fetch_add(size, std::memory_order_relaxed) + size;
    }
    if (p == nullptr) {
        p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED) {
            g_live.fetch_sub(size, std::memory_order_relaxed);
            throw std::bad_alloc();
        }
        g_mapped.fetch_add(size, std::memory_order_relaxed);
    }
    int64_t peak = g_live_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_live_peak.compare_exchange_weak(peak, live,
                                              std::memory_order_relaxed))
    {}
    return p;
}

void
freePages(void *p, size_t bytes) noexcept
{
    const size_t len = wholePages(bytes);
    std::lock_guard<std::mutex> lock(g_pool_mu);
    try {
        g_pool.emplace_back(len, p);
    } catch (...) {
        unmap(p, len); // no room to pool it
    }
    if (g_live.fetch_sub(static_cast<int64_t>(len),
                         std::memory_order_relaxed) !=
        static_cast<int64_t>(len))
        return;
    // Nothing is live: keep the newest blocks, up to kIdlePoolBytes, for
    // the next core, and give the rest back for other memory.
    size_t kept = 0;
    auto keep = g_pool.end();
    while (keep != g_pool.begin() &&
           kept + std::prev(keep)->first <= kIdlePoolBytes)
        kept += (--keep)->first;
    for (auto it = g_pool.begin(); it != keep; ++it)
        unmap(it->second, it->first);
    g_pool.erase(g_pool.begin(), keep);
}

int64_t
pageBackedBytes()
{
    return g_live.load(std::memory_order_relaxed);
}

int64_t
pageBackedPeakBytes()
{
    return g_live_peak.load(std::memory_order_relaxed);
}

void
resetPageBackedPeak()
{
    g_live_peak.store(g_live.load(std::memory_order_relaxed),
                      std::memory_order_relaxed);
}

int64_t
pageMappedBytes()
{
    return g_mapped.load(std::memory_order_relaxed);
}

} // namespace psca
