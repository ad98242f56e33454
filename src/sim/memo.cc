#include "sim/memo.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/journal.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "telemetry/counters.hh"

namespace psca {

namespace {

/** Bump when the timing model, counter semantics, or format change. */
constexpr uint32_t kMemoVersion = 2; // 2: header helper + checksum
constexpr uint64_t kMemoMagic = 0x50534341534d454dULL; // "PSCASMEM"

/** Transient-IO attempts before giving up (cold path is a rebuild). */
constexpr int kIoAttempts = 3;

/** True when the injected transient-IO fault hits this attempt. */
bool
ioFaultHits(uint64_t key, int attempt)
{
    const FaultSite &io = FAULT_SITE("persist.io_error");
    return io.enabled() &&
        io.fires(mixSeeds(key, static_cast<uint64_t>(attempt)));
}

/** A memo file's payload: the key echo, then sparse intervals. */
const char *
parseIntervals(BinaryReader &in, const MemoKey &key, MemoIntervals &out)
{
    if (in.get<uint64_t>() != key.traceHash ||
        in.get<uint64_t>() != key.configHash ||
        in.get<uint8_t>() != static_cast<uint8_t>(key.mode))
        return "key mismatch";
    const uint64_t n_intervals = in.get<uint64_t>();
    // Each interval is at least its 4-byte nonzero count and each
    // entry is 10 bytes, so the file size bounds both arrays.
    const uint64_t n_reserve = std::min(n_intervals, in.remaining() / 4);
    out.reserve(n_reserve, (in.remaining() - 4 * n_reserve) / 10);
    for (uint64_t i = 0; i < n_intervals && in.good(); ++i) {
        out.openInterval();
        const uint32_t nnz = in.get<uint32_t>();
        for (uint32_t j = 0; j < nnz && in.good(); ++j) {
            const uint16_t idx = in.get<uint16_t>();
            const uint64_t val = in.get<uint64_t>();
            if (idx >= kNumTelemetryCounters)
                return "counter index out of range";
            out.push(idx, val);
        }
    }
    return nullptr;
}

} // namespace

void
MemoIntervals::reserve(size_t n, size_t entries)
{
    offsets_.reserve(n + 1);
    index_.reserve(entries);
    value_.reserve(entries);
}

void
MemoIntervals::append(const std::vector<uint64_t> &full_delta)
{
    openInterval();
    for (size_t idx = 0; idx < full_delta.size(); ++idx)
        if (full_delta[idx] != 0)
            push(static_cast<uint16_t>(idx), full_delta[idx]);
}

void
MemoIntervals::expand(size_t i, std::vector<uint64_t> &scratch) const
{
    scratch.assign(kNumTelemetryCounters, 0);
    const std::span<const uint16_t> idx = indices(i);
    const std::span<const uint64_t> val = values(i);
    for (size_t j = 0; j < idx.size(); ++j)
        scratch[idx[j]] = val[j];
}

uint64_t
coreConfigHash(const CoreConfig &cfg)
{
    uint64_t h = 0xc0f1a5e5ULL ^ kMemoVersion;
    auto mix = [&h](uint64_t v) { h = mixSeeds(h, v); };
    auto mixCache = [&](const CacheConfig &c) {
        mix(c.sizeBytes);
        mix(c.ways);
        mix(c.lineBytes);
        mix(c.hitLatency);
    };
    mix(static_cast<uint64_t>(cfg.fetchWidth));
    mix(static_cast<uint64_t>(cfg.frontendDepth));
    mix(static_cast<uint64_t>(cfg.retireWidth));
    mix(static_cast<uint64_t>(cfg.robSize));
    mix(static_cast<uint64_t>(cfg.rsSizePerCluster));
    mix(static_cast<uint64_t>(cfg.sqSize));
    mix(static_cast<uint64_t>(cfg.issueWidthPerCluster));
    mix(static_cast<uint64_t>(cfg.loadPortsPerCluster));
    mix(static_cast<uint64_t>(cfg.mshrsPerCluster));
    mix(static_cast<uint64_t>(cfg.interClusterFwdDelay));
    mix(static_cast<uint64_t>(cfg.mispredictPenalty));
    mix(static_cast<uint64_t>(cfg.gateMicrocodeUops));
    mix(static_cast<uint64_t>(cfg.gateOverheadCycles));
    mix(static_cast<uint64_t>(cfg.ungateOverheadCycles));
    mix(static_cast<uint64_t>(cfg.latIntAlu));
    mix(static_cast<uint64_t>(cfg.latIntMul));
    mix(static_cast<uint64_t>(cfg.latIntDiv));
    mix(static_cast<uint64_t>(cfg.latFpAdd));
    mix(static_cast<uint64_t>(cfg.latFpMul));
    mix(static_cast<uint64_t>(cfg.latFpDiv));
    mix(static_cast<uint64_t>(cfg.latFpFma));
    mix(static_cast<uint64_t>(cfg.latStore));
    mix(static_cast<uint64_t>(cfg.latBranch));
    mixCache(cfg.l1i);
    mixCache(cfg.l1d);
    mixCache(cfg.l2);
    mixCache(cfg.llc);
    mix(cfg.memLatency);
    mix(cfg.dramSlotCycles);
    mix(cfg.uopCacheUops);
    mix(cfg.tlbEntries);
    mix(cfg.tlbMissPenalty);
    mix(cfg.pageBytes);
    mix(static_cast<uint64_t>(cfg.storeForwardLatency));
    mix(static_cast<uint64_t>(cfg.clockGhz * 1e6));
    return h;
}

SimMemo &
SimMemo::instance()
{
    static SimMemo memo;
    return memo;
}

SimMemo::SimMemo()
{
    // A disabled memo touches no files, not even the cache root.
    enabled_ = env::flagOr("PSCA_SIM_MEMO", true);
    if (enabled_)
        dir_ = cacheDirectory();
}

std::string
SimMemo::pathFor(const MemoKey &key) const
{
    char name[64];
    std::snprintf(name, sizeof(name), "/simmemo_%016llx_%016llx_%c.bin",
                  static_cast<unsigned long long>(key.traceHash),
                  static_cast<unsigned long long>(key.configHash),
                  key.mode == CoreMode::HighPerf ? 'h' : 'l');
    return dir_ + name;
}

bool
SimMemo::lookup(const MemoKey &key, MemoIntervals &out) const
{
    if (!enabled_)
        return false;
    auto &reg = obs::StatRegistry::instance();
    const std::string path = pathFor(key);
    const uint64_t iokey = mixSeeds(
        key.traceHash,
        mixSeeds(key.configHash, static_cast<uint64_t>(key.mode)));

    // Transient filesystem errors (injected via persist.io_error, or
    // conceivably real on networked storage) get a bounded retry
    // with backoff; persistent failure degrades to a rebuild.
    for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
        if (ioFaultHits(iokey, attempt)) {
            reg.counter("memo.io_retries").add();
            // Backoff jitter is a taskSeed substream of (fault seed,
            // iokey, attempt), so the retry schedule is bit-
            // reproducible under PSCA_FAULT_SEED.
            retryBackoffSleep(iokey, attempt);
            continue;
        }
        MemoIntervals intervals;
        const SealedRead read = readSealedFile(
            path, kMemoMagic, kMemoVersion,
            [&](BinaryReader &in) -> const char * {
                // Injected corruption: the file exists but fails its
                // integrity check, exactly as a bit-flip would make it.
                const FaultSite &corrupt =
                    FAULT_SITE("persist.memo_corrupt");
                if (corrupt.enabled() && corrupt.fires(iokey))
                    return "injected checksum fault";
                return parseIntervals(in, key, intervals);
            });
        if (read.status == SealedStatus::Ok) {
            out = std::move(intervals);
            reg.counter("memo.hits").add();
            obs::traceInstant("memo.hit");
            return true;
        }
        // A miss; a corrupt file is quarantined so the rebuild
        // cannot collide with the bad bytes.
        if (read.status == SealedStatus::Corrupt) {
            reg.counter("memo.quarantined").add();
            if (quarantineFile(path, read.reason).collided)
                reg.counter("memo.quarantine_collisions").add();
        }
        reg.counter("memo.misses").add();
        obs::traceInstant("memo.miss");
        return false;
    }
    warn("memo '", path, "': transient IO error persisted across ",
         kIoAttempts, " attempts; resimulating");
    reg.counter("memo.io_giveups").add();
    reg.counter("memo.misses").add();
    obs::traceInstant("memo.miss");
    return false;
}

void
SimMemo::store(const MemoKey &key, const MemoIntervals &intervals) const
{
    if (!enabled_)
        return;
    auto &reg = obs::StatRegistry::instance();

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);

    // Transactional publish (stage + fsync + atomic rename) through
    // the common artifact store: concurrent stores of the same key
    // are rare (identical content anyway) and readers only ever see
    // complete, durable files.
    const std::string path = pathFor(key);
    const uint64_t iokey = ~mixSeeds(
        key.traceHash,
        mixSeeds(key.configHash, static_cast<uint64_t>(key.mode)));

    for (int attempt = 0; attempt < kIoAttempts; ++attempt) {
        if (ioFaultHits(iokey, attempt)) {
            reg.counter("memo.io_retries").add();
            retryBackoffSleep(iokey, attempt);
            continue;
        }
        const bool ok = writeArtifactFile(path, [&](BinaryWriter &out) {
            writeSealed(out, kMemoMagic, kMemoVersion, [&] {
                out.put(key.traceHash);
                out.put(key.configHash);
                out.put(static_cast<uint8_t>(key.mode));
                out.put<uint64_t>(intervals.size());
                for (size_t i = 0; i < intervals.size(); ++i) {
                    const std::span<const uint16_t> idx =
                        intervals.indices(i);
                    const std::span<const uint64_t> val =
                        intervals.values(i);
                    out.put(static_cast<uint32_t>(idx.size()));
                    for (size_t j = 0; j < idx.size(); ++j) {
                        out.put(idx[j]);
                        out.put(val[j]);
                    }
                }
            });
        });
        if (!ok) {
            // Out of disk or a dying device: the store already
            // dropped the partial temp; the cache stays consistent.
            warn("memo '", path, "': write failed; entry not cached");
            reg.counter("memo.write_failures").add();
            return;
        }
        reg.counter("memo.stores").add();
        obs::traceInstant("memo.store");
        return;
    }
    warn("memo '", path, "': transient IO error persisted across ",
         kIoAttempts, " attempts; entry not cached");
    reg.counter("memo.io_giveups").add();
}

} // namespace psca
