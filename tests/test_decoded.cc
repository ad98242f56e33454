/**
 * @file
 * Tests for the pre-decoded SoA trace representation and the
 * simulator hot path built on it: decode fidelity against the AoS
 * stream, content-hash stability, replay pinned to golden cycles and
 * counter hashes across the genome corpus (with no bandwidth-ring
 * clamp), the steady-state allocation budget of the replay loop, the
 * heap footprint of one core, and the bounded live memory of
 * streamed dual-mode recording.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/parallel.hh"
#include "common/serialize.hh"
#include "core/builder.hh"
#include "obs/stats.hh"
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
// Per genome category. Both run() overloads replay through the same
// replayDecoded() loop, so comparing them cannot catch a field-mapping
// bug there; the gen-driven side is pinned to goldens instead.

namespace {

constexpr uint64_t kGenomeSeed = 29;

/**
 * Retire-time horizon and FNV-1a of counters().raw() after 6 x 10000
 * gen-driven uops from a fresh core (seed kGenomeSeed). Recorded from
 * the AoS fill() replay path, which matched the SoA path bit for bit.
 */
struct ReplayGolden
{
    AppCategory cat;
    CoreMode mode;
    uint64_t cycles;
    uint64_t countersHash;
};

constexpr ReplayGolden kReplayGoldens[] = {
    {AppCategory::HpcPerf, CoreMode::HighPerf, 31190ull,
     0x80f032560bebb382ull},
    {AppCategory::HpcPerf, CoreMode::LowPower, 31163ull,
     0x3d62620a10b48f7cull},
    {AppCategory::CloudSecurity, CoreMode::HighPerf, 121889ull,
     0x65739c26ca06da95ull},
    {AppCategory::CloudSecurity, CoreMode::LowPower, 122137ull,
     0x9a173ac1104babbbull},
    {AppCategory::AiAnalytics, CoreMode::HighPerf, 31214ull,
     0x1397b91c73240c43ull},
    {AppCategory::AiAnalytics, CoreMode::LowPower, 31427ull,
     0xe572568fff140e4eull},
    {AppCategory::WebProductivity, CoreMode::HighPerf, 114875ull,
     0xebdee2772d895eaaull},
    {AppCategory::WebProductivity, CoreMode::LowPower, 114963ull,
     0x4a3085ee08f7673eull},
    {AppCategory::Multimedia, CoreMode::HighPerf, 102041ull,
     0xe932f426b3c8630eull},
    {AppCategory::Multimedia, CoreMode::LowPower, 103353ull,
     0xf2760ff38a87e630ull},
    {AppCategory::GamesRendering, CoreMode::HighPerf, 203098ull,
     0x342ec9d01f21cbdaull},
    {AppCategory::GamesRendering, CoreMode::LowPower, 324954ull,
     0x128bd18a72afc626ull},
};

uint64_t
countersHash(const ClusteredCore &core)
{
    const std::vector<uint64_t> &raw = core.counters().raw();
    return fnv1aUpdate(kFnv1aBasis, raw.data(),
                       raw.size() * sizeof(uint64_t));
}

} // namespace

class GenomeCategory : public ::testing::TestWithParam<AppCategory>
{};

TEST_P(GenomeCategory, FillDecodedMatchesFill)
{
    const Workload w = categoryWorkload(GetParam(), kGenomeSeed, 1 << 20);
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

TEST_P(GenomeCategory, PreDecodedReplayMatchesGenDriven)
{
    // The gen-driven path must reproduce its goldens, and the
    // pure-replay overload must retire the same stream.
    const Workload w = categoryWorkload(GetParam(), kGenomeSeed, 1 << 22);
    constexpr uint64_t kInterval = 10000;
    constexpr uint64_t kTotal = 6 * kInterval;
    TraceGenerator dec_gen(w);
    const DecodedTrace trace = decodeTrace(dec_gen, kTotal);
    // The rings' windows are exact only while no reservation looks
    // back past them (BandwidthRing); no category may get close.
    const obs::Counter &clamps =
        obs::StatRegistry::instance().counter("sim.ring_clamps");
    const uint64_t clamps_before = clamps.value();

    for (CoreMode mode : {CoreMode::HighPerf, CoreMode::LowPower}) {
        ClusteredCore inc;
        inc.reset();
        inc.setMode(mode);
        TraceGenerator inc_gen(w);
        for (uint64_t done = 0; done < kTotal; done += kInterval)
            inc.run(inc_gen, kInterval);

        const ReplayGolden *golden = nullptr;
        for (const ReplayGolden &g : kReplayGoldens)
            if (g.cat == GetParam() && g.mode == mode)
                golden = &g;
        ASSERT_NE(golden, nullptr);
        EXPECT_EQ(inc.currentCycle(), golden->cycles);
        EXPECT_EQ(countersHash(inc), golden->countersHash);

        ClusteredCore rep;
        rep.reset();
        rep.setMode(mode);
        for (uint64_t base = 0; base < kTotal; base += kInterval)
            rep.run(trace, base, kInterval);
        EXPECT_EQ(inc.currentCycle(), rep.currentCycle());
        EXPECT_EQ(inc.counters().raw(), rep.counters().raw());
    }
    EXPECT_EQ(clamps.value(), clamps_before);
}

INSTANTIATE_TEST_SUITE_P(
    GenomeCorpus, GenomeCategory,
    ::testing::Values(AppCategory::HpcPerf, AppCategory::CloudSecurity,
                      AppCategory::AiAnalytics,
                      AppCategory::WebProductivity,
                      AppCategory::Multimedia,
                      AppCategory::GamesRendering),
    [](const ::testing::TestParamInfo<AppCategory> &info) {
        return std::string(appCategoryName(info.param));
    });

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

TEST(DecodedTrace, CoreFootprintRatchet)
{
    // Every closed-loop run of a parallel suite holds one live core,
    // so per-core state sets the suite's memory (DESIGN.md §9 lists
    // it per structure, about 758 KiB in all).
    { ClusteredCore warm; } // one-time registry entries
    const int64_t base = g_live.load();
    auto core = std::make_unique<ClusteredCore>();
    core->reset();
    const int64_t bytes = g_live.load() - base;
    EXPECT_LE(bytes, int64_t{768} << 10)
        << "a default ClusteredCore now allocates " << bytes << " bytes";
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
