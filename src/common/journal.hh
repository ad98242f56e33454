/**
 * @file
 * Crash-safe execution journal, transactional artifact store, and the
 * checkpoint/resume primitive underneath core/runner.hh.
 *
 * The problem (DESIGN.md §11): the figure-reproduction campaigns run
 * for hours across hundreds of units of work (trace records, crossval
 * folds, forest fits, PF-screen blocks). A crash, OOM-kill, or CI
 * timeout used to lose everything since the last whole-corpus cache
 * write. This layer makes every such fan-out resumable to the
 * granularity of a single unit, with bit-identical final outputs.
 *
 * Three pieces:
 *
 *  1. Journal — an append-only log of completed units, one
 *     checksummed frame per entry, keyed by (scope hash, config hash,
 *     unit index). Frames reuse the FNV-1a trailer scheme of
 *     serialize.hh, per frame rather than per file so a torn tail
 *     (the expected SIGKILL artifact) invalidates only itself: replay
 *     truncates back to the last good frame and continues. A corrupt
 *     header quarantines the whole journal and the run rebuilds from
 *     scratch — corruption can cost time, never correctness.
 *
 *  2. Transactional artifact writes — ArtifactTxn stages each file
 *     to a unique temp name, flushes, fsync()s, then atomically
 *     rename()s it into place; writeArtifactFile() is its one-file
 *     form. Multi-file artifacts are two-phase (stage and fsync every
 *     file, then rename them in sequence — a reader never observes a
 *     half-written file, and a crash between renames leaves a prefix
 *     of complete files, each individually valid). The memo, corpus
 *     and firmware caches and the journal's own header all publish
 *     through this path.
 *
 *  3. checkpointedMap() — the resumable counterpart of
 *     ThreadPool::parallelMap(). Each completed unit's result is
 *     serialized to its own artifact and journaled; on re-entry the
 *     journal is replayed, artifacts are verified against the
 *     recorded content hash, verified units are loaded into their
 *     slots, and parallelFor runs over only the remaining indices
 *     (with their ORIGINAL indices, so every taskSeed substream is
 *     unchanged and the merged result is bit-identical to an
 *     uninterrupted run at any PSCA_THREADS).
 *
 * Determinism contract: resume changes which units *execute*, never
 * what any unit *computes*. Unit results are pure functions of
 * (inputs, unit index); the journal only short-circuits recomputation
 * with the recorded bytes. Process-accounting stats (units executed,
 * memo hits, wall times) legitimately differ between a resumed and an
 * uninterrupted run; result artifacts and result gauges do not.
 *
 * Environment:
 *  - PSCA_JOURNAL=0   disable journaling (default on; when off this
 *                     layer touches no files and creates no stats, so
 *                     run reports stay byte-identical to a build
 *                     without it)
 *  - PSCA_RESUME=0    ignore and reset any existing journal +
 *                     checkpoints (default: resume)
 *  - PSCA_CACHE_DIR   journal and checkpoint location (shared with
 *                     the memo/corpus caches; see cacheDirectory())
 *
 * Layering: this is a common/ facility (used from ml/ and sim/ as
 * well as core/), so like common/fault.hh it self-tallies into plain
 * atomics and obs/report.cc pulls the tallies into run-report gauges
 * ("runner.*") only when the journal was actually active.
 */

#ifndef PSCA_COMMON_JOURNAL_HH
#define PSCA_COMMON_JOURNAL_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/parallel.hh"
#include "common/serialize.hh"

namespace psca {

/**
 * Thrown (from the submitting thread) when a checkpointed region was
 * cut short by requestStop() — SIGINT/SIGTERM or the deadline
 * watchdog. Everything completed before the stop is journaled;
 * runner::guardedMain() turns this into the resumable exit code.
 */
class RunInterrupted : public std::runtime_error
{
  public:
    explicit RunInterrupted(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * Cooperative stop flag. Safe to call from signal handlers (one
 * relaxed atomic store). Checkpointed regions poll it at unit
 * boundaries; in-flight units finish and are journaled first.
 */
void requestStop();
bool stopRequested();

/** Clear the stop flag (tests; a new guardedMain body). */
void clearStopRequest();

class Journal;

/**
 * Distribution hook (same function-pointer idiom as the logging
 * trace hooks: common/ cannot link the dist layer). Called by
 * runCheckpointed() for top-level scopes (none opened inside a pool
 * task) with the not-yet-journaled indices; returns true when the scope was fully handled — every
 * pending slot filled (via exec or load) and, on the coordinator,
 * journaled — or false to fall back to the local parallelFor path.
 */
using DistScopeFn = bool (*)(
    Journal &journal, const std::string &scope, uint64_t config_h,
    size_t n, const std::vector<size_t> &pending,
    const std::function<bool(size_t, BinaryReader &)> &load_unit,
    const std::function<void(size_t)> &exec_unit,
    const std::function<void(size_t, BinaryWriter &)> &save_unit);

/** Install (or clear, with nullptr) the distribution hook. */
void setDistScopeHook(DistScopeFn fn);

/**
 * The one root of all run state: $PSCA_CACHE_DIR, or "psca_cache"
 * when unset. Holds the journal and checkpoints, the memo and corpus
 * caches, and the fleet's rendezvous file. Created if missing.
 */
std::string cacheDirectory();

/**
 * Deterministic retry backoff for transient-IO paths: exponential
 * base (1 << attempt ms) plus a jitter drawn from a taskSeed
 * substream of (PSCA_FAULT_SEED, key, attempt) — never from the
 * clock — so retry schedules are bit-reproducible under
 * PSCA_FAULT_SEED at any thread count.
 */
int retryBackoffMs(uint64_t key, int attempt);

/** retryBackoffMs() followed by the actual sleep. */
void retryBackoffSleep(uint64_t key, int attempt);

/**
 * Run unit @p i of a checkpointed scope: the one retry loop that the
 * local journal path and fleet workers share. A unit that throws is
 * retried after retryBackoffSleep() keyed on (scope, config, unit)
 * until its attempt budget is spent, then the exception propagates;
 * RunInterrupted propagates at once. Each retry adds one to
 * @p retry_tally when given. With trace hooks on, the run (retries
 * included) is one @p span_name span.
 */
void runUnit(const std::string &scope, uint64_t config_h, size_t i,
             const std::function<void(size_t)> &exec_unit,
             const char *span_name,
             std::atomic<uint64_t> *retry_tally = nullptr);

/**
 * Transactionally publish one artifact file, as a one-file
 * ArtifactTxn: the callback writes the payload through a BinaryWriter
 * positioned on a unique temp file; the commit flushes, fsync()s, and
 * atomically renames it into place.
 * Readers therefore only ever see complete, checksummed files.
 *
 * @param fill        Writes the payload (header + trailer included if
 *                    the format wants them).
 * @param content_sum Out (optional): FNV-1a checksum over every byte
 *                    written.
 * @return false on any IO failure (temp removed, nothing published).
 */
bool writeArtifactFile(const std::string &path,
                       const std::function<void(BinaryWriter &)> &fill,
                       uint64_t *content_sum = nullptr);

/**
 * Two-phase commit for multi-file artifacts (e.g. a fleet of firmware
 * images that must appear as a set). Phase one stages every file to a
 * temp sibling and fsync()s it; phase two renames them all. abort()
 * (or destruction without commit) removes the temps and publishes
 * nothing.
 */
class ArtifactTxn
{
  public:
    ArtifactTxn() = default;
    ~ArtifactTxn();

    ArtifactTxn(const ArtifactTxn &) = delete;
    ArtifactTxn &operator=(const ArtifactTxn &) = delete;

    /**
     * Stage a file destined for @p final_path; write the payload
     * through the returned writer. Valid until commit()/abort().
     */
    BinaryWriter &stage(const std::string &final_path);

    /**
     * Fsync every staged file, then rename all into place. False (and
     * nothing published) if any staged stream failed; true when every
     * file landed.
     */
    bool commit();

    /** Drop all staged temps without publishing. */
    void abort();

  private:
    struct Staged
    {
        std::string finalPath;
        std::string tmpPath;
        std::unique_ptr<BinaryWriter> writer;
    };

    std::vector<Staged> staged_;
    bool done_ = false;
};

/** Self-tallied journal/checkpoint statistics (pulled by obs). */
struct JournalStats
{
    /** True once any checkpointed scope ran with the journal on. */
    bool active = false;
    uint64_t unitsSkipped = 0;   //!< loaded from verified checkpoints
    uint64_t unitsExecuted = 0;  //!< computed (and journaled) fresh
    uint64_t unitRetries = 0;    //!< unit re-runs after an exception
    uint64_t verifyFailures = 0; //!< journaled artifacts that failed
    uint64_t tornTails = 0;      //!< truncated torn journal frames
    uint64_t quarantines = 0;    //!< whole-journal integrity failures
    uint64_t scopesRetired = 0;  //!< scopes compacted away
};

/**
 * The append-only run journal plus the checkpoint store built on it.
 * One process-wide instance lives under cacheDirectory(); tests build
 * standalone instances on scratch directories. Checkpoints are sealed
 * files bound to their journaled checksum (DESIGN.md §10, "Sealed
 * files").
 */
class Journal
{
  public:
    /** Journal entry types (on-disk; append-only, never renumber). */
    enum class EntryType : uint8_t
    {
        UnitDone = 1,     //!< unit artifact committed
        ScopeRetired = 2, //!< scope's units superseded; compactable
    };

    /** One replayed journal entry. */
    struct Entry
    {
        EntryType type = EntryType::UnitDone;
        uint64_t scopeHash = 0;
        uint64_t configHash = 0;
        uint64_t unitIndex = 0;
        uint64_t artifactSum = 0; //!< checksum of the artifact file
    };

    /**
     * The process-wide journal under cacheDirectory(). Created lazily
     * on first use; PSCA_JOURNAL=0 yields a disabled instance that
     * never touches the filesystem.
     */
    static Journal &instance();

    /**
     * Open (replaying any existing entries) a journal rooted at
     * @p dir. @p resume=false truncates instead of replaying.
     */
    Journal(const std::string &dir, bool enabled, bool resume);
    ~Journal();

    Journal(const Journal &) = delete;
    Journal &operator=(const Journal &) = delete;

    bool enabled() const { return enabled_; }

    /** Stable hash of a scope name (FNV-1a over the bytes). */
    static uint64_t scopeHash(const std::string &scope);

    /** Journal file path for this instance. */
    std::string journalPath() const;

    /** Artifact path for one checkpointed unit. */
    std::string unitPath(uint64_t scope_h, uint64_t config_h,
                         uint64_t unit) const;

    /** Completed-unit count currently known for a scope. */
    size_t unitsDone(const std::string &scope, uint64_t config_h) const;

    /**
     * Mark a scope's units superseded by a higher-level artifact
     * (e.g. the whole-corpus cache file): appends a ScopeRetired
     * entry and deletes the per-unit checkpoint files.
     */
    void retireScope(const std::string &scope, uint64_t config_h);

    /**
     * The checkpoint/resume driver under checkpointedMap(). Replays
     * the journal for (scope, config), verifies + loads completed
     * units via @p load_unit, executes the remainder via parallelFor
     * on @p exec_unit (original indices), and serializes each fresh
     * result via @p save_unit followed by a journal append. Respects
     * requestStop() at unit boundaries (throws RunInterrupted after
     * draining in-flight units). With the journal disabled this is
     * exactly parallelFor(n, exec_unit).
     *
     * A top-level scope is offered to the distribution hook first;
     * a scope opened inside a pool task always runs locally, so every
     * process in a fleet makes the same interception decision.
     */
    void runCheckpointed(
        const std::string &scope, uint64_t config_h, size_t n,
        const std::function<bool(size_t, BinaryReader &)> &load_unit,
        const std::function<void(size_t)> &exec_unit,
        const std::function<void(size_t, BinaryWriter &)> &save_unit);

    /**
     * Commit one externally computed unit: wrap @p payload (exactly
     * the bytes its save_unit callback would write) in the standard
     * checkpoint header/keys/trailer, publish the artifact
     * atomically, and journal it. The distribution coordinator's
     * merge path. False on IO failure (the unit stays pending).
     */
    bool commitUnitPayload(const std::string &scope, uint64_t config_h,
                           uint64_t unit, const void *payload,
                           size_t size);

    /**
     * Re-read a journaled unit's artifact and extract the raw
     * save_unit payload (header/keys/trailer stripped), verifying the
     * journaled checksum. Read-only: a file that fails stays in place
     * for the next resume to quarantine. Serves checkpoint bytes to
     * fleet workers when a scope resumes with units completed in an
     * earlier run.
     */
    bool readUnitPayload(const std::string &scope, uint64_t config_h,
                         uint64_t unit, std::string &payload) const;

    /** Tallies for this instance. */
    JournalStats stats() const;

    /** Tallies of the process-wide instance (no-create when unused). */
    static JournalStats globalStats();

    /**
     * Count well-formed entries in a journal file without opening it
     * for writing (progress probes from a supervising process, and
     * the corruption tests).
     */
    static size_t countEntries(const std::string &path);

  private:
    struct ScopeKey
    {
        uint64_t scopeHash;
        uint64_t configHash;
        bool
        operator<(const ScopeKey &o) const
        {
            return scopeHash != o.scopeHash
                ? scopeHash < o.scopeHash
                : configHash < o.configHash;
        }
    };

    void openAndReplay(bool resume);
    void appendEntry(const Entry &entry);
    /**
     * The one checkpoint writer: publish unit @p unit's artifact
     * (header, keys, @p payload_fill's bytes, trailer) atomically and
     * journal it. False on IO failure (nothing journaled).
     */
    bool commitUnit(uint64_t scope_h, uint64_t config_h, uint64_t unit,
                    const std::function<void(BinaryWriter &)> &payload_fill);

    std::string dir_;
    bool enabled_ = false;

    mutable std::mutex mu_; //!< guards fd_, entries_
    int fd_ = -1;           //!< O_APPEND journal descriptor
    /** Replayed + appended completed units: key -> unit -> checksum. */
    std::map<ScopeKey, std::map<uint64_t, uint64_t>> entries_;

    std::atomic<bool> active_{false};
    std::atomic<uint64_t> unitsSkipped_{0};
    std::atomic<uint64_t> unitsExecuted_{0};
    std::atomic<uint64_t> unitRetries_{0};
    std::atomic<uint64_t> verifyFailures_{0};
    std::atomic<uint64_t> tornTails_{0};
    std::atomic<uint64_t> quarantines_{0};
    std::atomic<uint64_t> scopesRetired_{0};
};

/**
 * Resumable parallelMap: fn(0..n-1) into slot order, with every
 * completed unit checkpointed through @p journal so a killed run
 * re-enters with only the remaining indices. Bit-identical output to
 * ThreadPool::parallelMap at any thread count, interrupted or not.
 *
 * @param scope    Stable scope name; with @p config_hash it keys the
 *                 journal entries, so it must identify the call site
 *                 and @p config_hash must cover every input the unit
 *                 results depend on.
 * @param save/load  Serialize one T; the byte stream must round-trip
 *                 exactly (binary floats, no re-derivation).
 */
template <typename T>
std::vector<T>
checkpointedMap(Journal &journal, const std::string &scope,
                uint64_t config_hash, size_t n,
                const std::function<void(BinaryWriter &, const T &)> &save,
                const std::function<T(BinaryReader &)> &load,
                const std::function<T(size_t)> &fn)
{
    std::vector<T> out(n);
    journal.runCheckpointed(
        scope, config_hash, n,
        [&](size_t i, BinaryReader &in) {
            out[i] = load(in);
            return in.good();
        },
        [&](size_t i) { out[i] = fn(i); },
        [&](size_t i, BinaryWriter &w) { save(w, out[i]); });
    return out;
}

/** checkpointedMap over the process-wide journal. */
template <typename T>
std::vector<T>
checkpointedMap(const std::string &scope, uint64_t config_hash,
                size_t n,
                const std::function<void(BinaryWriter &, const T &)> &save,
                const std::function<T(BinaryReader &)> &load,
                const std::function<T(size_t)> &fn)
{
    return checkpointedMap<T>(Journal::instance(), scope, config_hash,
                              n, save, load, fn);
}

} // namespace psca

#endif // PSCA_COMMON_JOURNAL_HH
