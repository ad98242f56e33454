/**
 * @file
 * Page-backed storage for the simulated core's large arrays (DESIGN.md
 * §9 "Memory"): the LLC and L2 way arrays and the issue and load-port
 * rings.
 *
 * PageAllocator gives an allocation of kPageBackedMinBytes or more
 * whole pages; smaller ones go through operator new. A freed block
 * goes to one process-wide pool, and the next allocation of the same
 * length, on any thread, takes one back before anything new is mapped.
 * So the pages held never exceed the most blocks of each length live
 * at once, and a core built after another costs no mmap, no page
 * faults and no munmap. When the last live block is freed, the pool
 * keeps only its newest kIdlePoolBytes and unmaps the rest, so a phase
 * that builds no cores can use those pages for other memory. The
 * allocator holds no state of its own, so vectors that use it swap,
 * move and compare like vectors that do not.
 *
 * Why not the heap: glibc gives each thread its own arena and keeps
 * freed memory in the arena it came from, and once it has freed a
 * block it had mapped (an LLC array is 512 KiB) it raises its mmap
 * threshold, so later arrays come from the arenas too. With cores
 * built on several pool threads, each arena's own peak stayed
 * resident, and that retention, more than the live cores, set the
 * process's peak RSS.
 */

#ifndef PSCA_COMMON_PAGE_ALLOC_HH
#define PSCA_COMMON_PAGE_ALLOC_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace psca {

/** Smallest allocation PageAllocator serves from pages, not the
 *  heap. */
constexpr size_t kPageBackedMinBytes = size_t{16} << 10;

/** Pooled bytes kept while no block is live: one default core's
 *  page-backed arrays (704 KiB) fit, so a thread that builds cores one
 *  after another maps pages only for the first. */
constexpr size_t kIdlePoolBytes = size_t{1} << 20;

/** @p bytes rounded up to whole pages, from the pool or newly mapped
 *  (contents unspecified); throws std::bad_alloc when the system
 *  refuses. */
void *allocatePages(size_t bytes);

/** Return what allocatePages(@p bytes) gave to the pool; the last
 *  live block trims the pool to kIdlePoolBytes. */
void freePages(void *p, size_t bytes) noexcept;

/** Bytes of page-backed allocations live now, process-wide (whole
 *  pages). Memory tests add it to their heap accounting. */
int64_t pageBackedBytes();

/** High-water mark of pageBackedBytes() since the last
 *  resetPageBackedPeak(). */
int64_t pageBackedPeakBytes();

/** Restart the high-water mark at the current pageBackedBytes(). */
void resetPageBackedPeak();

/** Bytes mapped for page-backed allocations, live or pooled. */
int64_t pageMappedBytes();

/** Stateless allocator: large allocations take pooled pages. */
template <typename T>
struct PageAllocator
{
    using value_type = T;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {}

    T *
    allocate(size_t n)
    {
        const size_t bytes = n * sizeof(T);
        if (bytes < kPageBackedMinBytes)
            return static_cast<T *>(::operator new(bytes));
        return static_cast<T *>(allocatePages(bytes));
    }

    void
    deallocate(T *p, size_t n) noexcept
    {
        const size_t bytes = n * sizeof(T);
        if (bytes < kPageBackedMinBytes)
            ::operator delete(p);
        else
            freePages(p, bytes);
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }
};

/** A vector whose large buffers are page-backed. */
template <typename T>
using PageVector = std::vector<T, PageAllocator<T>>;

} // namespace psca

#endif // PSCA_COMMON_PAGE_ALLOC_HH
