/**
 * @file
 * Span tracing (DESIGN.md §12): completed phase scopes, pool tasks,
 * journal units, and instant markers (memo hits/misses, fault fires)
 * recorded into per-thread buffers and exported as Chrome/Perfetto
 * trace-event JSON ({"traceEvents": [...]}), so any run opens as a
 * flame view in Perfetto or chrome://tracing.
 *
 * Off by default: enabled by PSCA_TRACE=<out.json> (PSCA_TRACE=0 or
 * an empty value keeps it off), or programmatically via enable().
 * When disabled, the hot path is one relaxed atomic load per scope
 * and no stat names are registered, so reports stay byte-identical
 * to an untraced build.
 *
 * Recording path: each thread appends to its own buffer (a mutex
 * uncontended except during a drain) and batches are drained into a
 * bounded central store; past kMaxCentralEvents the newest events
 * are counted as dropped rather than grown without bound.
 * finalize() — called by guardedMain on exit, or at process exit for
 * bare binaries — merges, sorts by timestamp, and writes the file.
 */

#ifndef PSCA_OBS_TRACE_HH
#define PSCA_OBS_TRACE_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace psca {
namespace obs {

class Counter;

/** Steady-clock origin shared by spans, events, and live views. */
uint64_t processBaseNs();

/** Small dense id for the calling thread (0, 1, 2, ... by arrival). */
int threadTag();

/** One integer span argument; the key must outlive the run. */
struct SpanArg
{
    const char *key = nullptr;
    long long value = 0;
};

class TraceLog
{
  public:
    /** Args retained per event (extras are dropped). */
    static constexpr int kMaxArgs = 3;

    /** Central-store capacity; later events count as dropped. */
    static constexpr size_t kMaxCentralEvents = 1u << 20;

    /** The process-wide log; reads PSCA_TRACE on first use. */
    static TraceLog &instance();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Start recording into @p path (idempotent re-arm after finalize). */
    void enable(const std::string &path);

    /** Record a completed span [start_ns, end_ns] (absolute steady). */
    void span(const char *name, uint64_t start_ns, uint64_t end_ns,
              const SpanArg *args, int nargs);

    /** Record a zero-duration instant marker. */
    void instant(const char *name, const SpanArg *args, int nargs);

    /**
     * Drain all buffers, sort, write the JSON file, and disable
     * recording. No-op when disabled. Safe to call more than once.
     */
    void finalize();

    uint64_t
    recorded() const
    {
        return recorded_.load(std::memory_order_relaxed);
    }

    uint64_t
    dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    std::string path() const;

  private:
    struct Ev
    {
        std::string name;
        char ph;        //!< 'X' complete span, 'i' instant
        int tid;
        uint64_t tsNs;  //!< relative to processBaseNs()
        uint64_t durNs; //!< spans only
        int nargs;
        SpanArg args[kMaxArgs];
    };

    /** One thread's append buffer; shared_ptr outlives the thread. */
    struct ThreadBuf
    {
        std::mutex mu;
        int tid = 0;
        std::vector<Ev> ev;
    };

    /** Buffered events per thread before a central drain. */
    static constexpr size_t kDrainBatch = 4096;

    TraceLog();

    void record(Ev &&e);
    ThreadBuf *myBuf();
    void drainInto(ThreadBuf &buf); //!< central_ under mu_
    void writeFileLocked();

    std::atomic<bool> enabled_{false};
    std::atomic<uint64_t> recorded_{0};
    std::atomic<uint64_t> dropped_{0};

    mutable std::mutex mu_; //!< path_, central_, bufs_
    std::string path_;
    std::vector<Ev> central_;
    std::vector<std::shared_ptr<ThreadBuf>> bufs_;
    Counter *recordedCounter_ = nullptr;
    Counter *droppedCounter_ = nullptr;
};

/** Record an instant marker iff tracing is on (hot-path helper). */
inline void
traceInstant(const char *name)
{
    auto &t = TraceLog::instance();
    if (t.enabled())
        t.instant(name, nullptr, 0);
}

inline void
traceInstant(const char *name, SpanArg arg)
{
    auto &t = TraceLog::instance();
    if (t.enabled())
        t.instant(name, &arg, 1);
}

} // namespace obs
} // namespace psca

#endif // PSCA_OBS_TRACE_HH
