/**
 * @file
 * Tests for the pre-decoded SoA trace representation and the
 * simulator hot path built on it: decode fidelity against the AoS
 * stream, content-hash stability, bit-identity of the SoA replay
 * against the retired AoS oracle (cycles, every telemetry counter,
 * and gating labels across the genome corpus), the steady-state
 * allocation budget of the replay loop, and the bounded live memory
 * of streamed dual-mode recording.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/parallel.hh"
#include "core/builder.hh"
#include "sim/core.hh"
#include "sim/memo.hh"
#include "trace/decoded.hh"
#include "trace/generator.hh"
#include "trace/genome.hh"

// ---------------------------------------------------------------------
// Counting global allocator: every operator new in the binary bumps
// the counter while auditing is armed, and live bytes (by the
// allocator's usable size) are tracked with a high-water mark.
// malloc-backed so behaviour is otherwise unchanged.
namespace {

std::atomic<bool> g_audit{false};
std::atomic<uint64_t> g_allocs{0};
std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};

void *
countedAlloc(std::size_t n)
{
    if (g_audit.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    const auto size = static_cast<int64_t>(malloc_usable_size(p));
    const int64_t live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live,
                                         std::memory_order_relaxed))
    {}
    return p;
}

void
countedFree(void *p) noexcept
{
    if (!p)
        return;
    g_live.fetch_sub(static_cast<int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
    std::free(p);
}

/** Restart the high-water mark at the current live total. */
void
resetPeak()
{
    g_peak.store(g_live.load());
}

} // namespace

void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { countedFree(p); }
void operator delete(void *p, std::size_t) noexcept { countedFree(p); }
void operator delete[](void *p) noexcept { countedFree(p); }
void operator delete[](void *p, std::size_t) noexcept { countedFree(p); }

using namespace psca;

namespace {

/**
 * The memory test measures a cold recording, so the memo cache is off
 * for this binary (the singleton latches the setting at first use).
 */
class MemoOffEnv : public ::testing::Environment
{
  public:
    void SetUp() override { setenv("PSCA_SIM_MEMO", "0", 1); }
};

const auto *const g_env =
    ::testing::AddGlobalTestEnvironment(new MemoOffEnv);

Workload
categoryWorkload(AppCategory cat, uint64_t seed, uint64_t len)
{
    Workload w;
    w.genome = sampleGenome(cat, seed);
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = w.genome.name;
    return w;
}

/** Fields of one op, comparable across representations. */
void
expectOpEq(const MicroOp &a, const MicroOp &b, size_t i)
{
    EXPECT_EQ(a.pc, b.pc) << "op " << i;
    EXPECT_EQ(a.addr, b.addr) << "op " << i;
    EXPECT_EQ(a.cls, b.cls) << "op " << i;
    EXPECT_EQ(a.dst, b.dst) << "op " << i;
    EXPECT_EQ(a.src0, b.src0) << "op " << i;
    EXPECT_EQ(a.src1, b.src1) << "op " << i;
    EXPECT_EQ(a.branchTaken, b.branchTaken) << "op " << i;
}

} // namespace

TEST(DecodedTrace, FillDecodedMatchesFill)
{
    const Workload w =
        categoryWorkload(AppCategory::Multimedia, 5, 1 << 20);
    TraceGenerator aos_gen(w);
    TraceGenerator soa_gen(w);

    constexpr size_t kOps = 50000;
    std::vector<MicroOp> aos;
    aos_gen.fill(aos, kOps);

    // Deliberately odd chunk size: stream content must not depend on
    // how the decode is chunked.
    DecodedTrace trace;
    while (trace.size() < kOps)
        soa_gen.fillDecoded(trace, 999);

    ASSERT_GE(trace.size(), kOps);
    for (size_t i = 0; i < kOps; ++i)
        expectOpEq(trace.opAt(i), aos[i], i);
}

TEST(DecodedTrace, BatchAppendMatchesSingle)
{
    const Workload w =
        categoryWorkload(AppCategory::GamesRendering, 9, 1 << 20);
    TraceGenerator gen(w);
    std::vector<MicroOp> ops;
    gen.fill(ops, 4096);

    DecodedTrace batch;
    batch.append(ops.data(), ops.size());
    DecodedTrace single;
    for (const MicroOp &op : ops)
        single.append(op);

    ASSERT_EQ(batch.size(), single.size());
    EXPECT_EQ(batch.contentHash(), single.contentHash());
    for (size_t i = 0; i < ops.size(); ++i)
        expectOpEq(batch.opAt(i), single.opAt(i), i);
}

TEST(DecodedTrace, ContentHashStableAndDiscriminating)
{
    const Workload w =
        categoryWorkload(AppCategory::AiAnalytics, 3, 1 << 20);

    TraceGenerator g1(w);
    TraceGenerator g2(w);
    const DecodedTrace a = decodeTrace(g1, 30000);
    DecodedTrace b;
    while (b.size() < 30000)
        g2.fillDecoded(b,
                       std::min<uint64_t>(777, 30000 - b.size()));
    ASSERT_EQ(b.size(), 30000u);
    EXPECT_EQ(a.contentHash(), b.contentHash());

    Workload other = w;
    other.inputSeed = 2;
    TraceGenerator g3(other);
    const DecodedTrace c = decodeTrace(g3, 30000);
    EXPECT_NE(a.contentHash(), c.contentHash());

    // Length matters too.
    TraceGenerator g4(w);
    const DecodedTrace d = decodeTrace(g4, 29999);
    EXPECT_NE(a.contentHash(), d.contentHash());
}

TEST(DecodedTrace, IncrementalHashMatchesWholeTrace)
{
    // The streaming recorder keys the memo with ContentHasher; any
    // chunking must reproduce the whole-trace contentHash() exactly.
    constexpr uint64_t kOps = 20000;
    for (AppCategory cat :
         {AppCategory::HpcPerf, AppCategory::CloudSecurity,
          AppCategory::Multimedia})
    {
        const Workload w = categoryWorkload(cat, 41, 1 << 20);
        TraceGenerator whole_gen(w);
        const uint64_t whole = decodeTrace(whole_gen, kOps).contentHash();

        for (uint64_t chunk : {1ull, 4096ull, 4097ull}) {
            TraceGenerator gen(w);
            ContentHasher h(kOps);
            DecodedTrace buf;
            for (uint64_t done = 0; done < kOps; done += chunk) {
                buf.clear();
                gen.fillDecoded(buf, std::min(chunk, kOps - done));
                h.update(buf);
            }
            EXPECT_EQ(h.value(), whole) << "chunk " << chunk;
        }
        TraceGenerator stream_gen(w);
        EXPECT_EQ(streamContentHash(stream_gen, kOps), whole);
    }
}

// ---------------------------------------------------------------------
// SoA replay vs AoS oracle: the refactor's contract is bit-identity.

class SoaVsAos : public ::testing::TestWithParam<AppCategory>
{};

TEST_P(SoaVsAos, CountersBitIdenticalBothModes)
{
    const Workload w = categoryWorkload(GetParam(), 17, 1 << 22);
    for (CoreMode mode : {CoreMode::HighPerf, CoreMode::LowPower}) {
        ClusteredCore soa;
        soa.reset();
        soa.setMode(mode);
        ASSERT_EQ(soa.replayPath(), ReplayPath::Soa);
        TraceGenerator soa_gen(w);

        ClusteredCore aos;
        aos.reset();
        aos.setMode(mode);
        aos.setReplayPath(ReplayPath::AosOracle);
        TraceGenerator aos_gen(w);

        for (int t = 0; t < 6; ++t) {
            soa.run(soa_gen, 10000);
            aos.run(aos_gen, 10000);
        }
        EXPECT_EQ(soa.currentCycle(), aos.currentCycle());
        EXPECT_EQ(soa.counters().raw(), aos.counters().raw());
    }
}

TEST_P(SoaVsAos, GatingLabelsIdentical)
{
    // The ground-truth labels everything downstream trains on:
    // per-interval IPC_low/IPC_high >= pSLA, computed once per path.
    const Workload w = categoryWorkload(GetParam(), 23, 1 << 22);
    constexpr int kIntervals = 8;
    constexpr double kPsla = 0.90;

    auto labels = [&](ReplayPath path) {
        std::vector<uint64_t> cycles_high, cycles_low;
        for (CoreMode mode :
             {CoreMode::HighPerf, CoreMode::LowPower}) {
            ClusteredCore core;
            core.reset();
            core.setMode(mode);
            core.setReplayPath(path);
            TraceGenerator gen(w);
            core.run(gen, 20000); // warm
            for (int t = 0; t < kIntervals; ++t) {
                const IntervalStats s = core.run(gen, 10000);
                (mode == CoreMode::HighPerf ? cycles_high
                                            : cycles_low)
                    .push_back(s.cycles);
            }
        }
        std::vector<uint8_t> y(kIntervals);
        for (int t = 0; t < kIntervals; ++t)
            y[t] = static_cast<double>(cycles_high[t]) /
                        static_cast<double>(cycles_low[t]) >=
                    kPsla
                ? 1
                : 0;
        return y;
    };

    EXPECT_EQ(labels(ReplayPath::Soa), labels(ReplayPath::AosOracle));
}

INSTANTIATE_TEST_SUITE_P(
    GenomeCorpus, SoaVsAos,
    ::testing::Values(AppCategory::HpcPerf, AppCategory::CloudSecurity,
                      AppCategory::AiAnalytics,
                      AppCategory::WebProductivity,
                      AppCategory::Multimedia,
                      AppCategory::GamesRendering));

TEST(DecodedTrace, PreDecodedReplayMatchesGenDriven)
{
    // The builder's pure-replay overload must retire the same stream
    // the incremental gen-driven path does.
    const Workload w =
        categoryWorkload(AppCategory::AiAnalytics, 29, 1 << 22);
    constexpr uint64_t kTotal = 80000;

    ClusteredCore inc;
    inc.reset();
    TraceGenerator inc_gen(w);
    for (uint64_t done = 0; done < kTotal; done += 10000)
        inc.run(inc_gen, 10000);

    TraceGenerator dec_gen(w);
    const DecodedTrace trace = decodeTrace(dec_gen, kTotal);
    ClusteredCore rep;
    rep.reset();
    for (uint64_t base = 0; base < kTotal; base += 10000)
        rep.run(trace, base, 10000);

    EXPECT_EQ(inc.currentCycle(), rep.currentCycle());
    EXPECT_EQ(inc.counters().raw(), rep.counters().raw());
}

TEST(DecodedTrace, SteadyStateReplayAllocationBudget)
{
    // The reserve() audit: after warmup, neither the gen-driven SoA
    // path nor the pre-decoded replay may allocate per interval
    // (single-phase kernel, so the generator reaches steady state).
    AppGenome g;
    g.name = "alloc_audit";
    g.seed = 7;
    PhaseSpec p;
    p.kernel = {.kind = KernelKind::Stream,
                .workingSetBytes = 1 << 20, .computePerElem = 2};
    p.meanLenInstr = 1e9;
    g.phases = {p};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = 1 << 22;
    w.name = "alloc_audit";

    ClusteredCore core;
    core.reset();
    TraceGenerator gen(w);
    for (int t = 0; t < 3; ++t)
        core.run(gen, 10000); // warm: buffers reach final capacity

    g_allocs.store(0);
    g_audit.store(true);
    for (int t = 0; t < 10; ++t)
        core.run(gen, 10000);
    g_audit.store(false);
    EXPECT_LE(g_allocs.load(), 16u)
        << "gen-driven replay allocates in steady state";

    TraceGenerator dec_gen(w);
    const DecodedTrace trace = decodeTrace(dec_gen, 120000);
    core.run(trace, 0, 10000); // warm

    g_allocs.store(0);
    g_audit.store(true);
    for (uint64_t base = 10000; base + 10000 <= trace.size();
         base += 10000)
        core.run(trace, base, 10000);
    g_audit.store(false);
    EXPECT_EQ(g_allocs.load(), 0u)
        << "pre-decoded replay allocates in steady state";
}

TEST(DecodedTrace, StreamedRecordingMemoryIndependentOfLength)
{
    // Cold dual-mode recording replays each mode from a fresh
    // generator in bounded chunks, so its peak live allocation is set
    // by the core state, not by the trace length. Decoding a 600k-uop
    // trace whole would alone hold ~13 MB.
    ASSERT_FALSE(SimMemo::instance().enabled());
    // Serial mode passes: the peak must not depend on whether the
    // two passes happen to overlap.
    ThreadPool::configure(1);
    BuildConfig cfg;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
        CounterRegistry::index(Ctr::BranchMispred),
    };
    auto peak_bytes = [&](uint64_t len) {
        const Workload w =
            categoryWorkload(AppCategory::HpcPerf, 53, len);
        resetPeak();
        const int64_t base = g_live.load();
        const TraceRecord r = recordTrace(w, cfg, 0, 0);
        EXPECT_EQ(r.numIntervals(), len / cfg.intervalInstr);
        return g_peak.load() - base;
    };
    peak_bytes(100000); // one-time registry and phase-tree entries
    const int64_t short_peak = peak_bytes(600000);
    const int64_t long_peak = peak_bytes(1200000);
    ThreadPool::configure(parallelThreadCount());

    constexpr int64_t kSlack = 256 << 10;
    constexpr int64_t kBound = 6 << 20;
    EXPECT_LE(long_peak, short_peak + kSlack)
        << "recording memory grows with trace length";
    EXPECT_LE(short_peak, kBound);
    EXPECT_LE(long_peak, kBound);
}
