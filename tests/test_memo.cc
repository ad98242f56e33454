/**
 * @file
 * Tests for the content-hashed simulation memo cache: key hashing,
 * sparse round-trips, corruption rejection, and the headline
 * contract — TraceRecords are byte-identical whether the intervals
 * came from a cold replay or a warm cache hit, at any thread count.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <random>
#include <thread>

#include "common/parallel.hh"
#include "common/serialize.hh"
#include "core/builder.hh"
#include "obs/stats.hh"
#include "sim/memo.hh"
#include "telemetry/counters.hh"
#include "trace/genome.hh"
#include "test_util.hh"

using namespace psca;

namespace {

/** Size and FNV-1a 64 of OnDiskBytesPinned's memo file. */
constexpr size_t kPinnedMemoBytes = 10781;
constexpr uint64_t kPinnedMemoFnv = 0x114f74f2a2be25c3ULL;

/**
 * Pin the cache root before anything touches the SimMemo singleton
 * (its directory is latched at first use), and start every run cold.
 */
class MemoDirEnv : public ::testing::Environment
{
  public:
    void
    SetUp() override
    {
        std::filesystem::remove_all("/tmp/psca_memo_test");
        setenv("PSCA_CACHE_DIR", "/tmp/psca_memo_test", 1);
    }
};

const auto *const g_env =
    ::testing::AddGlobalTestEnvironment(new MemoDirEnv);

BuildConfig
smallConfig()
{
    return test::smallConfig({Ctr::InstRetired, Ctr::L1dMiss,
                              Ctr::UopsStalledOnDep, Ctr::BranchMispred});
}

Workload
genomeWorkload(uint64_t seed, uint64_t len, const char *name)
{
    Workload w;
    w.genome = sampleGenome(AppCategory::HpcPerf, seed);
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = name;
    return w;
}

/** Exact float-bit equality between two records. */
bool
recordsIdentical(const TraceRecord &a, const TraceRecord &b)
{
    auto bits_eq = [](const std::vector<float> &x,
                      const std::vector<float> &y) {
        return x.size() == y.size() &&
            (x.empty() ||
             std::memcmp(x.data(), y.data(),
                         x.size() * sizeof(float)) == 0);
    };
    return a.name == b.name && a.numCounters == b.numCounters &&
        bits_eq(a.deltaHigh, b.deltaHigh) &&
        bits_eq(a.deltaLow, b.deltaLow) &&
        bits_eq(a.cyclesHigh, b.cyclesHigh) &&
        bits_eq(a.cyclesLow, b.cyclesLow) &&
        bits_eq(a.energyHighNj, b.energyHighNj) &&
        bits_eq(a.energyLowNj, b.energyLowNj);
}

/**
 * Record @p w the way the serve loop does: the recording's two tasks
 * follow a serving task 0 in one three-task region.
 */
TraceRecord
recordServeShaped(const Workload &w, const BuildConfig &cfg)
{
    TraceRecording recording(w, cfg, 0, 0);
    ThreadPool::instance().parallelFor(
        1 + TraceRecording::kTasks, [&](size_t task) {
            if (task == 0)
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            else
                recording.runTask(task - 1);
        });
    return recording.take();
}

/**
 * Recordings that break the serve/batch contract: at pool sizes 4,
 * then 1, a serve-shaped recording and a recordTrace() of each of two
 * traces must match the first recording of that trace bit for bit,
 * and each must take one trace-hash pass with the memo on, none with
 * it off. With the memo on the 4-thread serve-shaped ones run cold.
 */
size_t
serveShapedMismatches()
{
    const BuildConfig cfg = smallConfig();
    auto &passes =
        obs::StatRegistry::instance().counter("record.trace_hash_passes");
    const uint64_t want_passes = SimMemo::instance().enabled() ? 1 : 0;
    std::vector<TraceRecord> firsts;
    size_t bad = 0;
    for (int threads : {4, 1}) {
        ThreadPool::configure(threads);
        for (size_t i = 0; i < 2; ++i) {
            Workload w = genomeWorkload(71, 60000, "rec_serve");
            w.inputSeed = i + 1;
            for (bool serve : {true, false}) {
                const uint64_t passes0 = passes.value();
                TraceRecord r = serve ? recordServeShaped(w, cfg)
                                      : recordTrace(w, cfg, 0, 0);
                bad += passes.value() - passes0 != want_passes;
                if (firsts.size() == i)
                    firsts.push_back(std::move(r));
                else
                    bad += !recordsIdentical(r, firsts[i]);
            }
        }
    }
    ThreadPool::configure(parallelThreadCount());
    return bad;
}

} // namespace

TEST(Memo, ConfigHashDiscriminates)
{
    CoreConfig a;
    const uint64_t base = coreConfigHash(a);
    EXPECT_EQ(base, coreConfigHash(a)); // stable

    CoreConfig b;
    b.robSize += 1;
    EXPECT_NE(base, coreConfigHash(b));
    CoreConfig c;
    c.l1d.hitLatency += 1;
    EXPECT_NE(base, coreConfigHash(c));
    CoreConfig d;
    d.clockGhz += 0.1;
    EXPECT_NE(base, coreConfigHash(d));
}

TEST(Memo, KeySeparatesModesAndTraces)
{
    SimMemo &memo = SimMemo::instance();
    const MemoKey high{1, 2, CoreMode::HighPerf};
    const MemoKey low{1, 2, CoreMode::LowPower};
    const MemoKey other{3, 2, CoreMode::HighPerf};
    EXPECT_NE(memo.pathFor(high), memo.pathFor(low));
    EXPECT_NE(memo.pathFor(high), memo.pathFor(other));
}

TEST(Memo, StoreLookupRoundTrip)
{
    SimMemo &memo = SimMemo::instance();
    ASSERT_TRUE(memo.enabled());

    std::vector<std::vector<uint64_t>> full(3);
    MemoIntervals intervals;
    for (size_t t = 0; t < full.size(); ++t) {
        full[t].assign(kNumTelemetryCounters, 0);
        full[t][0] = 1000 + t;
        full[t][17] = 42 * (t + 1);
        full[t][kNumTelemetryCounters - 1] = t; // 0 in t=0: sparse
        intervals.append(full[t]);
    }

    const MemoKey key{0xabcdef, 0x123456, CoreMode::LowPower};
    memo.store(key, intervals);
    EXPECT_TRUE(std::filesystem::exists(memo.pathFor(key)));

    MemoIntervals loaded;
    ASSERT_TRUE(memo.lookup(key, loaded));
    ASSERT_EQ(loaded.size(), full.size());
    std::vector<uint64_t> delta;
    for (size_t t = 0; t < full.size(); ++t) {
        loaded.expand(t, delta);
        EXPECT_EQ(delta, full[t]);
    }
}

TEST(Memo, SparseIntervalsExpandBitForBit)
{
    // All-zero, fully dense and random intervals come back bit for
    // bit, both straight from the container and through a store and
    // lookup.
    std::vector<std::vector<uint64_t>> full(
        5, std::vector<uint64_t>(kNumTelemetryCounters, 0));
    for (size_t i = 0; i < kNumTelemetryCounters; ++i)
        full[1][i] = ~uint64_t{0} - i;
    std::mt19937_64 rng(936);
    for (size_t t = 2; t < full.size(); ++t)
        for (uint64_t &v : full[t])
            v = rng() % 4 == 0 ? rng() >> (rng() % 64) : 0;

    MemoIntervals intervals;
    for (const auto &delta : full)
        intervals.append(delta);
    EXPECT_EQ(intervals.indices(0).size(), 0u);
    EXPECT_EQ(intervals.indices(1).size(), kNumTelemetryCounters);

    SimMemo &memo = SimMemo::instance();
    const MemoKey key{0x5a55e, 0xde75e, CoreMode::HighPerf};
    memo.store(key, intervals);
    MemoIntervals loaded;
    ASSERT_TRUE(memo.lookup(key, loaded));
    ASSERT_EQ(intervals.size(), full.size());
    ASSERT_EQ(loaded.size(), full.size());
    std::vector<uint64_t> delta(3, 7); // expand() resizes stale scratch
    for (const MemoIntervals *from : {&intervals, &loaded}) {
        for (size_t t = 0; t < full.size(); ++t) {
            from->expand(t, delta);
            ASSERT_EQ(delta.size(), kNumTelemetryCounters);
            EXPECT_EQ(std::memcmp(delta.data(), full[t].data(),
                                  delta.size() * sizeof(uint64_t)),
                      0)
                << "interval " << t;
        }
    }
}

TEST(Memo, OnDiskBytesPinned)
{
    // The sparse in-memory form writes exactly the bytes the earlier
    // full-width form wrote: an all-zero, a fully dense and two sparse
    // intervals under one fixed key. The pinned size and FNV-1a 64 of
    // the file are what the full-width writer produced for this input.
    std::vector<std::vector<uint64_t>> full(
        4, std::vector<uint64_t>(kNumTelemetryCounters, 0));
    for (size_t i = 0; i < kNumTelemetryCounters; ++i) {
        full[1][i] = i * 0x9e3779b97f4a7c15ULL + 1;
        full[2][i] = i % 7 == 0 ? 1000 + i : 0;
    }
    full[3][0] = 1;
    full[3][kNumTelemetryCounters - 1] = ~uint64_t{0};

    MemoIntervals intervals;
    for (const auto &delta : full)
        intervals.append(delta);
    SimMemo &memo = SimMemo::instance();
    const MemoKey key{0x5eed, 0xc0f1, CoreMode::HighPerf};
    memo.store(key, intervals);

    std::ifstream in(memo.pathFor(key), std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    EXPECT_EQ(bytes.size(), kPinnedMemoBytes);
    EXPECT_EQ(fnv1aUpdate(kFnv1aBasis, bytes.data(), bytes.size()),
              kPinnedMemoFnv);
}

TEST(Memo, CounterIndexOutOfRangeIsQuarantined)
{
    // One interval with one entry: the entry's index is the file's
    // 10th- and 9th-last bytes before the 8-byte checksum trailer.
    // Patching it and resealing the trailer leaves only the index
    // check to catch an index past the counter table.
    SimMemo &memo = SimMemo::instance();
    const MemoKey key{0x1d4, 0x1d5, CoreMode::LowPower};
    std::vector<uint64_t> delta(kNumTelemetryCounters, 0);
    delta[5] = 77;
    MemoIntervals one;
    one.append(delta);
    const std::string path = memo.pathFor(key);

    auto storeWithIndex = [&](uint16_t idx) {
        memo.store(key, one);
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
        ASSERT_GE(bytes.size(), 18u);
        const size_t at = bytes.size() - 8 - 10;
        std::memcpy(&bytes[at], &idx, sizeof(idx));
        const uint64_t sum =
            fnv1aUpdate(kFnv1aBasis, bytes.data(), bytes.size() - 8);
        std::memcpy(&bytes[bytes.size() - 8], &sum, sizeof(sum));
        f.seekp(0);
        f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    };

    // The patch itself is sound: the last in-range index reads back.
    storeWithIndex(kNumTelemetryCounters - 1);
    MemoIntervals out;
    ASSERT_TRUE(memo.lookup(key, out));
    ASSERT_EQ(out.size(), 1u);
    out.expand(0, delta);
    EXPECT_EQ(delta[kNumTelemetryCounters - 1], 77u);

    auto &quarantined =
        obs::StatRegistry::instance().counter("memo.quarantined");
    const uint64_t quarantined0 = quarantined.value();
    std::filesystem::remove(path + ".quarantined");
    storeWithIndex(kNumTelemetryCounters);
    EXPECT_FALSE(memo.lookup(key, out));
    EXPECT_EQ(quarantined.value() - quarantined0, 1u);
    EXPECT_FALSE(std::filesystem::exists(path));
    EXPECT_TRUE(std::filesystem::exists(path + ".quarantined"));
}

TEST(Memo, MissingAndCorruptEntriesMiss)
{
    SimMemo &memo = SimMemo::instance();
    MemoIntervals out;
    EXPECT_FALSE(memo.lookup({999, 999, CoreMode::HighPerf}, out));

    // A truncated/garbage file must be treated as a miss, not trusted.
    const MemoKey key{555, 556, CoreMode::HighPerf};
    std::filesystem::create_directories("/tmp/psca_memo_test");
    std::ofstream(memo.pathFor(key), std::ios::binary)
        << "not a memo file";
    EXPECT_FALSE(memo.lookup(key, out));
}

TEST(Memo, ColdVsWarmRecordsByteIdentical)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = genomeWorkload(11, 80000, "memo_cw");

    const TraceRecord cold = recordTrace(w, cfg, 0, 0);
    // Warm pass: the memo files written above short-circuit both
    // fixed-mode replays.
    const TraceRecord warm = recordTrace(w, cfg, 0, 0);
    ASSERT_EQ(cold.numIntervals(), 8u);
    EXPECT_TRUE(recordsIdentical(cold, warm));
}

TEST(Memo, ByteIdenticalAcrossThreadCounts)
{
    // The determinism contract holds through the memo layer: a cold
    // 4-thread build, a warm 4-thread read, and the 1-thread records
    // all match bit for bit.
    const BuildConfig cfg = smallConfig();
    const Workload w = genomeWorkload(19, 80000, "memo_mt");

    const TraceRecord serial = recordTrace(w, cfg, 0, 0);

    ThreadPool::configure(4);
    const TraceRecord warm4 = recordTrace(w, cfg, 0, 0);

    // Fresh key (different workload name does not change the key —
    // perturb the trace itself) to force a cold 4-thread build.
    Workload w2 = w;
    w2.inputSeed = 2;
    const TraceRecord cold4 = recordTrace(w2, cfg, 0, 0);
    ThreadPool::configure(1);
    const TraceRecord serial2 = recordTrace(w2, cfg, 0, 0);

    EXPECT_TRUE(recordsIdentical(serial, warm4));
    EXPECT_TRUE(recordsIdentical(cold4, serial2));
}

TEST(Memo, ProjectionIndependentOfCounterList)
{
    // The memo stores full-width deltas, so a different counterIds
    // projection must reuse the same entry and still agree on the
    // shared columns.
    const Workload w = genomeWorkload(31, 60000, "memo_proj");
    const BuildConfig cfg = smallConfig();
    const TraceRecord base = recordTrace(w, cfg, 0, 0);

    BuildConfig wide = cfg;
    wide.counterIds.push_back(CounterRegistry::index(Ctr::Cycles));
    const TraceRecord re = recordTrace(w, wide, 0, 0);

    ASSERT_EQ(re.numIntervals(), base.numIntervals());
    for (size_t t = 0; t < base.numIntervals(); ++t) {
        for (size_t j = 0; j < cfg.counterIds.size(); ++j) {
            EXPECT_EQ(re.rowHigh(t)[j], base.rowHigh(t)[j]);
            EXPECT_EQ(re.rowLow(t)[j], base.rowLow(t)[j]);
        }
        EXPECT_EQ(re.cyclesHigh[t], base.cyclesHigh[t]);
        // The appended column is the interval cycle count itself.
        EXPECT_EQ(re.rowHigh(t)[cfg.counterIds.size()],
                  base.cyclesHigh[t]);
    }
}

TEST(Memo, CorpusRebuildFromMemoReplaysNothing)
{
    // Corpus cache deleted, memo kept: every recordTrace re-runs, but
    // both mode passes of every trace hit the memo, so nothing is
    // simulated and only the hash pass touches the generator.
    const BuildConfig cfg = smallConfig();
    const std::vector<Workload> ws = {genomeWorkload(61, 60000, "mw_a"),
                                      genomeWorkload(62, 60000, "mw_b")};
    const std::vector<uint32_t> apps = {0, 1};
    const auto cold = recordCorpus(ws, apps, cfg, "memowarm");

    for (const auto &e :
         std::filesystem::directory_iterator("/tmp/psca_memo_test"))
        if (e.path().filename().string().rfind("memowarm_", 0) == 0)
            std::filesystem::remove(e.path());

    auto &reg = obs::StatRegistry::instance();
    const uint64_t traces0 = reg.counter("record.traces").value();
    const uint64_t hits0 = reg.counter("memo.hits").value();
    const uint64_t misses0 = reg.counter("memo.misses").value();
    const uint64_t intervals0 = reg.counter("sim.intervals").value();
    const auto warm = recordCorpus(ws, apps, cfg, "memowarm");

    EXPECT_EQ(reg.counter("record.traces").value() - traces0, ws.size());
    EXPECT_EQ(reg.counter("memo.hits").value() - hits0, 2 * ws.size());
    EXPECT_EQ(reg.counter("memo.misses").value() - misses0, 0u);
    EXPECT_EQ(reg.counter("sim.intervals").value() - intervals0, 0u);
    ASSERT_EQ(cold.size(), warm.size());
    for (size_t i = 0; i < cold.size(); ++i)
        EXPECT_TRUE(recordsIdentical(cold[i], warm[i]));
}

TEST(Memo, ServeShapedRecordingMatchesRecordTrace)
{
    EXPECT_EQ(serveShapedMismatches(), 0u);
}

TEST(Memo, ServeShapedRecordingMatchesRecordTraceMemoOff)
{
    // The memo latches PSCA_SIM_MEMO at first use: a fresh process.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("PSCA_SIM_MEMO", "0", 1);
            std::exit(!SimMemo::instance().enabled() &&
                              serveShapedMismatches() == 0
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0), "");
}
