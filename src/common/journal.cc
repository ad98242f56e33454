#include "common/journal.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/logging.hh"

namespace psca {

namespace {

constexpr uint64_t kJournalMagic = 0x505343414a524e4cULL; // "PSCAJRNL"
constexpr uint32_t kJournalVersion = 1;
constexpr uint64_t kCkptMagic = 0x50534341434b5054ULL; // "PSCACKPT"
constexpr uint32_t kCkptVersion = 1;

/** Unit attempts before the exception propagates (requeue budget). */
constexpr int kUnitAttempts = 3;

/** Serialized journal frame payload size (fixed layout, v1). */
constexpr size_t kFramePayload = 1 + 4 * 8;

std::atomic<bool> g_stop{false};

/** Distribution hook (set once at startup, before scopes run). */
std::atomic<DistScopeFn> g_distHook{nullptr};

/** Whether Journal::instance() was ever constructed (globalStats()
 *  must observe, never create, the process-wide journal). */
std::atomic<bool> g_instanceCreated{false};

/** fsync a descriptor, tolerating filesystems without fsync. */
void
fsyncFd(int fd)
{
    if (fd >= 0)
        (void)::fsync(fd);
}

/** fsync an already-closed file by path (after rename: the dir). */
void
fsyncPath(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        fsyncFd(fd);
        ::close(fd);
    }
}

/**
 * Unique temp sibling for staging (per process, per thread, per use).
 * The pid matters: forked processes inherit the parent's thread ids
 * and serial, and fleet workers share one cache directory.
 */
std::string
tempSibling(const std::string &path)
{
    static std::atomic<uint64_t> serial{0};
    const uint64_t tid = std::hash<std::thread::id>{}(
                             std::this_thread::get_id()) &
        0xffffff;
    return path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(tid) + "." +
        std::to_string(serial.fetch_add(1, std::memory_order_relaxed));
}

} // namespace

void
requestStop()
{
    g_stop.store(true, std::memory_order_relaxed);
}

bool
stopRequested()
{
    return g_stop.load(std::memory_order_relaxed);
}

void
clearStopRequest()
{
    g_stop.store(false, std::memory_order_relaxed);
}

void
setDistScopeHook(DistScopeFn fn)
{
    g_distHook.store(fn, std::memory_order_release);
}

int
retryBackoffMs(uint64_t key, int attempt)
{
    const uint64_t base = 1ULL << attempt;
    Rng rng(taskSeed(mixSeeds(FaultRegistry::instance().seed(), key),
                     static_cast<uint64_t>(attempt)));
    return static_cast<int>(base + rng.below(base));
}

void
retryBackoffSleep(uint64_t key, int attempt)
{
    std::this_thread::sleep_for(
        std::chrono::milliseconds(retryBackoffMs(key, attempt)));
}

void
runUnit(const std::string &scope, uint64_t config_h, size_t i,
        const std::function<void(size_t)> &exec_unit,
        const char *span_name, std::atomic<uint64_t> *retry_tally)
{
    const uint64_t retry_key =
        mixSeeds(mixSeeds(Journal::scopeHash(scope), config_h),
                 static_cast<uint64_t>(i));
    const uint64_t span_start = traceHooksEnabled() ? steadyNowNs() : 0;
    for (int attempt = 0;; ++attempt) {
        try {
            exec_unit(i);
            break;
        } catch (const RunInterrupted &) {
            throw;
        } catch (const std::exception &e) {
            if (attempt + 1 >= kUnitAttempts)
                throw;
            if (retry_tally != nullptr)
                retry_tally->fetch_add(1, std::memory_order_relaxed);
            warn("unit ", i, " of scope '", scope, "' failed (",
                 e.what(), "); requeued (attempt ", attempt + 2, "/",
                 kUnitAttempts, ")");
            retryBackoffSleep(retry_key, attempt);
        }
    }
    if (span_start)
        traceSpanHook(span_name, span_start, steadyNowNs(), "unit",
                      static_cast<long long>(i));
}

bool
writeArtifactFile(const std::string &path,
                  const std::function<void(BinaryWriter &)> &fill,
                  uint64_t *content_sum)
{
    ArtifactTxn txn;
    BinaryWriter &out = txn.stage(path);
    fill(out);
    const uint64_t sum = out.checksum();
    if (!txn.commit())
        return false;
    if (content_sum != nullptr)
        *content_sum = sum;
    return true;
}

ArtifactTxn::~ArtifactTxn()
{
    if (!done_)
        abort();
}

BinaryWriter &
ArtifactTxn::stage(const std::string &final_path)
{
    Staged s;
    s.finalPath = final_path;
    s.tmpPath = tempSibling(final_path);
    s.writer = std::make_unique<BinaryWriter>(s.tmpPath);
    staged_.push_back(std::move(s));
    return *staged_.back().writer;
}

bool
ArtifactTxn::commit()
{
    done_ = true;
    // Phase one: every staged stream must have fully reached its temp
    // file before any final name changes.
    bool ok = true;
    for (auto &s : staged_)
        ok = s.writer->good() && ok;
    for (auto &s : staged_)
        s.writer.reset(); // close
    if (!ok) {
        std::error_code ec;
        for (auto &s : staged_)
            std::filesystem::remove(s.tmpPath, ec);
        staged_.clear();
        return false;
    }
    for (auto &s : staged_)
        fsyncPath(s.tmpPath);
    // Phase two: publish. A crash mid-sequence leaves a prefix of
    // complete files — never a torn one.
    for (auto &s : staged_) {
        std::error_code ec;
        std::filesystem::rename(s.tmpPath, s.finalPath, ec);
        if (ec) {
            std::filesystem::remove(s.tmpPath, ec);
            ok = false;
        }
    }
    staged_.clear();
    return ok;
}

void
ArtifactTxn::abort()
{
    done_ = true;
    for (auto &s : staged_) {
        s.writer.reset();
        std::error_code ec;
        std::filesystem::remove(s.tmpPath, ec);
    }
    staged_.clear();
}

std::string
cacheDirectory()
{
    std::string dir = env::stringOr("PSCA_CACHE_DIR", "psca_cache");
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir;
}

Journal &
Journal::instance()
{
    // A disabled journal touches no files, not even the cache root.
    static const bool enabled = env::flagOr("PSCA_JOURNAL", true);
    static Journal journal(enabled ? cacheDirectory() : std::string(),
                           enabled, env::flagOr("PSCA_RESUME", true));
    g_instanceCreated.store(true, std::memory_order_release);
    return journal;
}

Journal::Journal(const std::string &dir, bool enabled, bool resume)
    : dir_(dir), enabled_(enabled)
{
    if (enabled_)
        openAndReplay(resume);
}

Journal::~Journal()
{
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ >= 0) {
        fsyncFd(fd_);
        ::close(fd_);
        fd_ = -1;
    }
}

uint64_t
Journal::scopeHash(const std::string &scope)
{
    return fnv1aUpdate(kFnv1aBasis, scope.data(), scope.size());
}

std::string
Journal::journalPath() const
{
    return dir_ + "/journal.psj";
}

std::string
Journal::unitPath(uint64_t scope_h, uint64_t config_h,
                  uint64_t unit) const
{
    char name[96];
    std::snprintf(name, sizeof(name),
                  "/ckpt_%016llx_%016llx_%llu.bin",
                  static_cast<unsigned long long>(scope_h),
                  static_cast<unsigned long long>(config_h),
                  static_cast<unsigned long long>(unit));
    return dir_ + name;
}

namespace {

/**
 * Sealed read of one checkpoint: its key echo must name this unit,
 * then @p payload parses the rest. The journaled checksum binds the
 * file to its entry, so a stale or swapped file, even one with a
 * valid trailer of its own, fails.
 */
template <typename Parse>
SealedRead
readCheckpoint(const std::string &path, uint64_t scope_h,
               uint64_t config_h, uint64_t unit, uint64_t journaled_sum,
               Parse &&payload)
{
    return readSealedFile(
        path, kCkptMagic, kCkptVersion,
        [&](BinaryReader &in) -> const char * {
            if (in.get<uint64_t>() != scope_h ||
                in.get<uint64_t>() != config_h ||
                in.get<uint64_t>() != unit)
                return "checkpoint key mismatch";
            return payload(in);
        },
        journaled_sum);
}

/** Encode one frame: [len][payload][fnv1a(payload)], one write(). */
void
encodeFrame(const Journal::Entry &e, std::vector<uint8_t> &buf)
{
    uint8_t payload[kFramePayload];
    payload[0] = static_cast<uint8_t>(e.type);
    auto put64 = [&payload](size_t off, uint64_t v) {
        std::memcpy(payload + off, &v, sizeof(v));
    };
    put64(1, e.scopeHash);
    put64(9, e.configHash);
    put64(17, e.unitIndex);
    put64(25, e.artifactSum);
    const uint32_t len = static_cast<uint32_t>(sizeof(payload));
    const uint64_t sum =
        fnv1aUpdate(kFnv1aBasis, payload, sizeof(payload));
    buf.resize(sizeof(len) + sizeof(payload) + sizeof(sum));
    std::memcpy(buf.data(), &len, sizeof(len));
    std::memcpy(buf.data() + sizeof(len), payload, sizeof(payload));
    std::memcpy(buf.data() + sizeof(len) + sizeof(payload), &sum,
                sizeof(sum));
}

/**
 * Size an open journal stream into @p size and read its header; true
 * when the magic and version match, leaving the stream at frame 0.
 */
bool
readJournalHeader(std::ifstream &in, uint64_t &size)
{
    size = 0;
    if (in) {
        in.seekg(0, std::ios::end);
        size = static_cast<uint64_t>(in.tellg());
        in.seekg(0, std::ios::beg);
    }
    uint64_t magic = 0;
    uint32_t version = 0;
    in.read(reinterpret_cast<char *>(&magic), sizeof(magic));
    in.read(reinterpret_cast<char *>(&version), sizeof(version));
    return in && magic == kJournalMagic && version == kJournalVersion;
}

/**
 * Replay every well-formed frame of an open journal stream. Returns
 * the byte offset just past the last good frame; entries beyond it
 * (a torn tail) are the caller's to truncate.
 */
uint64_t
replayFrames(std::ifstream &in, uint64_t file_size,
             const std::function<void(const Journal::Entry &)> &emit)
{
    uint64_t good_end = static_cast<uint64_t>(in.tellg());
    for (;;) {
        uint32_t len = 0;
        in.read(reinterpret_cast<char *>(&len), sizeof(len));
        if (!in || len != kFramePayload)
            break;
        if (good_end + sizeof(len) + len + 8 > file_size)
            break;
        uint8_t payload[kFramePayload];
        in.read(reinterpret_cast<char *>(payload), len);
        uint64_t stored = 0;
        in.read(reinterpret_cast<char *>(&stored), sizeof(stored));
        if (!in ||
            stored != fnv1aUpdate(kFnv1aBasis, payload, len))
            break;
        Journal::Entry e;
        e.type = static_cast<Journal::EntryType>(payload[0]);
        auto get64 = [&payload](size_t off) {
            uint64_t v = 0;
            std::memcpy(&v, payload + off, sizeof(v));
            return v;
        };
        e.scopeHash = get64(1);
        e.configHash = get64(9);
        e.unitIndex = get64(17);
        e.artifactSum = get64(25);
        if (e.type != Journal::EntryType::UnitDone &&
            e.type != Journal::EntryType::ScopeRetired)
            break;
        emit(e);
        good_end += sizeof(len) + len + sizeof(stored);
    }
    return good_end;
}

} // namespace

void
Journal::openAndReplay(bool resume)
{
    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    const std::string path = journalPath();

    bool fresh = true;
    if (resume && std::filesystem::exists(path, ec)) {
        std::ifstream in(path, std::ios::binary);
        uint64_t size = 0;
        if (!readJournalHeader(in, size)) {
            // Not a torn tail: the journal itself is unusable. Move
            // it aside and rebuild from scratch.
            quarantineFile(path, "journal header corrupt");
            quarantines_.fetch_add(1, std::memory_order_relaxed);
        } else {
            std::vector<Entry> replayed;
            const uint64_t good_end = replayFrames(
                in, size,
                [&replayed](const Entry &e) {
                    replayed.push_back(e);
                });
            in.close();
            if (good_end < size) {
                // The expected SIGKILL artifact: a frame cut mid-
                // write. Drop the tail, keep everything before it.
                std::filesystem::resize_file(path, good_end, ec);
                tornTails_.fetch_add(1, std::memory_order_relaxed);
                warn("journal '", path, "': torn tail truncated at ",
                     good_end, " of ", size, " bytes");
                emitEvent("journal", LogLevel::Warn,
                          "torn tail truncated at " +
                              std::to_string(good_end) + " of " +
                              std::to_string(size) + " bytes");
            }
            for (const Entry &e : replayed) {
                const ScopeKey key{e.scopeHash, e.configHash};
                if (e.type == EntryType::UnitDone) {
                    entries_[key][e.unitIndex] = e.artifactSum;
                } else {
                    // Retired: the per-unit artifacts are superseded
                    // by a whole-scope artifact; forget the units.
                    entries_.erase(key);
                }
            }
            fresh = false;
        }
    } else if (std::filesystem::exists(path, ec)) {
        // PSCA_RESUME=0: start over, discarding journal + units.
        std::filesystem::remove(path, ec);
    }

    if (fresh && !writeArtifactFile(path, [](BinaryWriter &out) {
            out.put(kJournalMagic);
            out.put(kJournalVersion);
        }))
    {
        warn("journal '", path,
             "': cannot initialize; journaling disabled for this run");
        enabled_ = false;
        return;
    }

    fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND);
    if (fd_ < 0) {
        warn("journal '", path, "': cannot open for append (",
             std::strerror(errno), "); journaling disabled");
        enabled_ = false;
    }
}

void
Journal::appendEntry(const Entry &entry)
{
    std::vector<uint8_t> frame;
    encodeFrame(entry, frame);
    std::lock_guard<std::mutex> lock(mu_);
    if (fd_ < 0)
        return;
    // One write() per frame into an O_APPEND descriptor: frames from
    // concurrent units (or even concurrent processes sharing the
    // cache dir) interleave whole, never torn against each other.
    ssize_t wrote =
        ::write(fd_, frame.data(), frame.size());
    if (wrote != static_cast<ssize_t>(frame.size())) {
        warn("journal '", journalPath(),
             "': short append; entry dropped (unit will re-execute "
             "on resume)");
        return;
    }
    fsyncFd(fd_);
    if (entry.type == EntryType::UnitDone) {
        entries_[ScopeKey{entry.scopeHash, entry.configHash}]
                [entry.unitIndex] = entry.artifactSum;
    }
}

size_t
Journal::unitsDone(const std::string &scope, uint64_t config_h) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it =
        entries_.find(ScopeKey{scopeHash(scope), config_h});
    return it == entries_.end() ? 0 : it->second.size();
}

void
Journal::retireScope(const std::string &scope, uint64_t config_h)
{
    if (!enabled_)
        return;
    const uint64_t scope_h = scopeHash(scope);
    std::map<uint64_t, uint64_t> units;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(ScopeKey{scope_h, config_h});
        if (it == entries_.end())
            return;
        units = std::move(it->second);
        entries_.erase(it);
    }
    Entry e;
    e.type = EntryType::ScopeRetired;
    e.scopeHash = scope_h;
    e.configHash = config_h;
    e.unitIndex = units.size();
    appendEntry(e);
    std::error_code ec;
    for (const auto &[unit, sum] : units)
        std::filesystem::remove(unitPath(scope_h, config_h, unit),
                                ec);
    scopesRetired_.fetch_add(1, std::memory_order_relaxed);
}

void
Journal::runCheckpointed(
    const std::string &scope, uint64_t config_h, size_t n,
    const std::function<bool(size_t, BinaryReader &)> &load_unit,
    const std::function<void(size_t)> &exec_unit,
    const std::function<void(size_t, BinaryWriter &)> &save_unit)
{
    auto &pool = ThreadPool::instance();
    // Top-level scopes are offered to the distribution layer first.
    // Nested scopes never are — every process in a fleet runs the
    // identical deterministic pipeline, so the interception decision
    // must be a pure function of scope nesting and identical
    // everywhere.
    const DistScopeFn hook = ThreadPool::inParallelTask()
        ? nullptr
        : g_distHook.load(std::memory_order_acquire);
    if (!enabled_) {
        if (hook != nullptr) {
            // Worker side: no local journal; every index is pending
            // from this process's point of view and the coordinator
            // decides what it executes vs fetches.
            std::vector<size_t> pending(n);
            for (size_t i = 0; i < n; ++i)
                pending[i] = i;
            if (hook(*this, scope, config_h, n, pending, load_unit,
                     exec_unit, save_unit))
                return;
        }
        pool.parallelFor(n, exec_unit);
        return;
    }
    active_.store(true, std::memory_order_relaxed);
    const uint64_t scope_h = scopeHash(scope);

    // Partition into journaled (verify + load) and pending indices.
    std::map<uint64_t, uint64_t> done;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(ScopeKey{scope_h, config_h});
        if (it != entries_.end())
            done = it->second;
    }
    std::vector<size_t> pending;
    size_t skipped = 0;
    for (size_t i = 0; i < n; ++i) {
        const auto it = done.find(i);
        if (it == done.end()) {
            pending.push_back(i);
            continue;
        }
        const std::string path = unitPath(scope_h, config_h, i);
        const SealedRead read = readCheckpoint(
            path, scope_h, config_h, i, it->second,
            [&](BinaryReader &in) -> const char * {
                return load_unit(i, in) ? nullptr
                                        : "checkpoint payload corrupt";
            });
        if (read.status == SealedStatus::Ok) {
            ++skipped;
            continue;
        }
        // Journaled but the artifact is missing or failed its sealed
        // read: degrade to re-execution.
        if (read.status == SealedStatus::Corrupt)
            quarantineFile(path, read.reason);
        verifyFailures_.fetch_add(1, std::memory_order_relaxed);
        pending.push_back(i);
    }
    unitsSkipped_.fetch_add(skipped, std::memory_order_relaxed);
    if (skipped > 0) {
        inform("resume: scope '", scope, "' skipping ", skipped, "/",
               n, " completed units");
        emitEvent("checkpoint", LogLevel::Info,
                  "resume: scope '" + scope + "' skipped " +
                      std::to_string(skipped) + "/" +
                      std::to_string(n) + " completed units");
    }

    // Coordinator side: the journal partition above already loaded
    // everything completed by an earlier (possibly interrupted)
    // campaign; the hook distributes only the remainder and commits
    // each received unit through commitUnitPayload() before this
    // call returns.
    if (hook != nullptr &&
        hook(*this, scope, config_h, n, pending, load_unit,
             exec_unit, save_unit))
        return;

    std::atomic<bool> interrupted{false};
    pool.parallelFor(pending.size(), [&](size_t k) {
        const size_t i = pending[k];
        if (stopRequested()) {
            interrupted.store(true, std::memory_order_relaxed);
            return;
        }
        runUnit(scope, config_h, i, exec_unit, "journal.unit",
                &unitRetries_);
        const bool stored = commitUnit(
            scope_h, config_h, i,
            [&](BinaryWriter &out) { save_unit(i, out); });
        if (!stored) {
            // Checkpointing is best-effort: the unit's in-memory
            // result is still valid, it just cannot be skipped on a
            // future resume.
            warn("checkpoint for unit ", i, " of scope '", scope,
                 "' failed to persist; resume will recompute it");
        }
        unitsExecuted_.fetch_add(1, std::memory_order_relaxed);
    });

    if (interrupted.load(std::memory_order_relaxed) ||
        stopRequested())
    {
        emitEvent("checkpoint", LogLevel::Warn,
                  "scope '" + scope +
                      "' interrupted; completed units journaled");
        throw RunInterrupted("scope '" + scope +
                             "' interrupted; completed units are "
                             "journaled for resume");
    }
}

bool
Journal::commitUnitPayload(const std::string &scope,
                           uint64_t config_h, uint64_t unit,
                           const void *payload, size_t size)
{
    if (!enabled_)
        return false;
    active_.store(true, std::memory_order_relaxed);
    return commitUnit(scopeHash(scope), config_h, unit,
                      [&](BinaryWriter &out) {
                          out.putBytes(payload, size);
                      });
}

bool
Journal::commitUnit(uint64_t scope_h, uint64_t config_h, uint64_t unit,
                    const std::function<void(BinaryWriter &)> &payload_fill)
{
    uint64_t sum = 0;
    const bool stored = writeArtifactFile(
        unitPath(scope_h, config_h, unit),
        [&](BinaryWriter &out) {
            writeSealed(out, kCkptMagic, kCkptVersion, [&] {
                out.put(scope_h);
                out.put(config_h);
                out.put(unit);
                payload_fill(out);
            });
        },
        &sum);
    if (!stored)
        return false;
    Entry e;
    e.type = EntryType::UnitDone;
    e.scopeHash = scope_h;
    e.configHash = config_h;
    e.unitIndex = unit;
    e.artifactSum = sum;
    appendEntry(e);
    return true;
}

bool
Journal::readUnitPayload(const std::string &scope, uint64_t config_h,
                         uint64_t unit, std::string &payload) const
{
    if (!enabled_)
        return false;
    const uint64_t scope_h = scopeHash(scope);
    uint64_t expect = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(ScopeKey{scope_h, config_h});
        if (it == entries_.end())
            return false;
        const auto u = it->second.find(unit);
        if (u == it->second.end())
            return false;
        expect = u->second;
    }
    // The raw payload is everything between the key echo and the
    // trailer.
    std::string bytes;
    const SealedRead read = readCheckpoint(
        unitPath(scope_h, config_h, unit), scope_h, config_h, unit,
        expect, [&](BinaryReader &in) -> const char * {
            if (in.remaining() < sizeof(uint64_t))
                return "truncated";
            bytes.resize(in.remaining() - sizeof(uint64_t));
            in.getBytes(bytes.data(), bytes.size());
            return nullptr;
        });
    if (read.status != SealedStatus::Ok)
        return false;
    payload = std::move(bytes);
    return true;
}

JournalStats
Journal::stats() const
{
    JournalStats s;
    s.active = active_.load(std::memory_order_relaxed);
    s.unitsSkipped = unitsSkipped_.load(std::memory_order_relaxed);
    s.unitsExecuted = unitsExecuted_.load(std::memory_order_relaxed);
    s.unitRetries = unitRetries_.load(std::memory_order_relaxed);
    s.verifyFailures =
        verifyFailures_.load(std::memory_order_relaxed);
    s.tornTails = tornTails_.load(std::memory_order_relaxed);
    s.quarantines = quarantines_.load(std::memory_order_relaxed);
    s.scopesRetired = scopesRetired_.load(std::memory_order_relaxed);
    return s;
}

JournalStats
Journal::globalStats()
{
    // Observe only: a report writer asking for stats must not create
    // the journal (or its file) in a process that never used it.
    if (!g_instanceCreated.load(std::memory_order_acquire))
        return JournalStats{};
    return instance().stats();
}

size_t
Journal::countEntries(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    uint64_t size = 0;
    if (!readJournalHeader(in, size))
        return 0;
    size_t count = 0;
    replayFrames(in, size, [&count](const Entry &) { ++count; });
    return count;
}

} // namespace psca
