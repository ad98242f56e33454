/**
 * @file
 * Tests for the trace stream and the simulator hot path that replays
 * it: the generator's in-place spans and fill() give one stream,
 * content hashes agree however the stream is fed and are pinned per
 * genome category, replay is pinned to golden cycles and counter
 * hashes across the genome corpus (with no bandwidth-ring clamp), the
 * counters derived once per interval equal their per-uop definitions,
 * the steady-state allocation budget of the replay and block loops,
 * the footprint of one core (heap and page-backed arrays), and the
 * bounded live memory of streamed dual-mode recording.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iterator>
#include <new>
#include <thread>
#include <vector>

#include "common/page_alloc.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/builder.hh"
#include "core/controller.hh"
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

/** Restart the high-water marks at the current live totals. */
void
resetPeak()
{
    g_peak.store(g_live.load());
    psca::resetPageBackedPeak();
}

/**
 * Live bytes: the heap's, plus the pages PageAllocator mapped for the
 * core's large arrays, which operator new does not see.
 */
int64_t
liveBytes()
{
    return g_live.load() + psca::pageBackedBytes();
}

/** An upper bound on the peak of liveBytes() since resetPeak(): the
 *  two high-water marks may fall at different times. */
int64_t
peakBytes()
{
    return g_peak.load() + psca::pageBackedPeakBytes();
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

constexpr AppCategory kAllCategories[] = {
    AppCategory::HpcPerf,         AppCategory::CloudSecurity,
    AppCategory::AiAnalytics,     AppCategory::WebProductivity,
    AppCategory::Multimedia,      AppCategory::GamesRendering,
};

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

/** Content hash of a whole stream, fed in one span. */
uint64_t
wholeHash(const std::vector<MicroOp> &ops)
{
    ContentHasher h(ops.size());
    h.update(ops.data(), ops.size());
    return h.value();
}

} // namespace

TEST(TraceStream, ContentHashStableAndDiscriminating)
{
    const Workload w =
        categoryWorkload(AppCategory::AiAnalytics, 3, 1 << 20);

    TraceGenerator g1(w);
    const uint64_t a = wholeHash(decodeTrace(g1, 30000));
    TraceGenerator g2(w);
    std::vector<MicroOp> b;
    while (b.size() < 30000)
        g2.fill(b, std::min<size_t>(777, 30000 - b.size()));
    ASSERT_EQ(b.size(), 30000u);
    EXPECT_EQ(a, wholeHash(b));

    Workload other = w;
    other.inputSeed = 2;
    TraceGenerator g3(other);
    EXPECT_NE(a, wholeHash(decodeTrace(g3, 30000)));

    // Length matters too.
    TraceGenerator g4(w);
    EXPECT_NE(a, wholeHash(decodeTrace(g4, 29999)));
}

TEST(TraceStream, IncrementalHashMatchesWholeTrace)
{
    // The streaming recorder keys the memo with ContentHasher fed the
    // generator's in-place spans; any chunking must reproduce the
    // hash of the whole trace exactly.
    constexpr uint64_t kOps = 20000;
    for (AppCategory cat : kAllCategories) {
        const Workload w = categoryWorkload(cat, 41, 1 << 20);
        TraceGenerator whole_gen(w);
        const uint64_t whole = wholeHash(decodeTrace(whole_gen, kOps));

        for (uint64_t chunk : {1ull, 4096ull, 4097ull}) {
            TraceGenerator span_gen(w);
            ContentHasher span_h(kOps);
            const MicroOp *ops = nullptr;
            for (uint64_t done = 0; done < kOps;) {
                const size_t take = span_gen.next(
                    ops, static_cast<size_t>(std::min(chunk, kOps - done)));
                span_h.update(ops, take);
                done += take;
            }
            EXPECT_EQ(span_h.value(), whole)
                << appCategoryName(cat) << " span chunk " << chunk;
        }
        TraceGenerator stream_gen(w);
        EXPECT_EQ(streamContentHash(stream_gen, kOps), whole);
    }
}

// ---------------------------------------------------------------------
// Per genome category. The gen-driven run() replays the generator's
// ops in place and is pinned to goldens; the span overload replaying
// the same ops held whole must match it.

namespace {

constexpr uint64_t kGenomeSeed = 29;

/**
 * Retire-time horizon and FNV-1a of counters().raw() after 6 x 10000
 * gen-driven uops from a fresh core (seed kGenomeSeed). Recorded from
 * the AoS fill() replay path, which matched the SoA path bit for bit.
 * traceHash is streamContentHash() of those 60000 uops, the memo's
 * trace key (recorded while it still equalled the SoA trace's
 * contentHash()): if the fold changed, every warm cache would
 * silently miss.
 */
struct ReplayGolden
{
    AppCategory cat;
    CoreMode mode;
    uint64_t cycles;
    uint64_t countersHash;
    uint64_t traceHash;
};

constexpr ReplayGolden kReplayGoldens[] = {
    {AppCategory::HpcPerf, CoreMode::HighPerf, 31190ull,
     0x80f032560bebb382ull, 0x43e2d45a994a4428ull},
    {AppCategory::HpcPerf, CoreMode::LowPower, 31163ull,
     0x3d62620a10b48f7cull, 0x43e2d45a994a4428ull},
    {AppCategory::CloudSecurity, CoreMode::HighPerf, 121889ull,
     0x65739c26ca06da95ull, 0x482d5facd99a842aull},
    {AppCategory::CloudSecurity, CoreMode::LowPower, 122137ull,
     0x9a173ac1104babbbull, 0x482d5facd99a842aull},
    {AppCategory::AiAnalytics, CoreMode::HighPerf, 31214ull,
     0x1397b91c73240c43ull, 0x9ded4c6510bfa11aull},
    {AppCategory::AiAnalytics, CoreMode::LowPower, 31427ull,
     0xe572568fff140e4eull, 0x9ded4c6510bfa11aull},
    {AppCategory::WebProductivity, CoreMode::HighPerf, 114875ull,
     0xebdee2772d895eaaull, 0x3abc88eddb34d8ddull},
    {AppCategory::WebProductivity, CoreMode::LowPower, 114963ull,
     0x4a3085ee08f7673eull, 0x3abc88eddb34d8ddull},
    {AppCategory::Multimedia, CoreMode::HighPerf, 102041ull,
     0xe932f426b3c8630eull, 0x6b5f513045c00ffcull},
    {AppCategory::Multimedia, CoreMode::LowPower, 103353ull,
     0xf2760ff38a87e630ull, 0x6b5f513045c00ffcull},
    {AppCategory::GamesRendering, CoreMode::HighPerf, 203098ull,
     0x342ec9d01f21cbdaull, 0xaae6716f75fd569bull},
    {AppCategory::GamesRendering, CoreMode::LowPower, 324954ull,
     0x128bd18a72afc626ull, 0xaae6716f75fd569bull},
};

/** The per-uop definitions of the counters HotCtrs::flush derives. */
struct StreamTally
{
    uint64_t perClass[kNumOpClasses] = {};
    uint64_t total = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t branches = 0;
    uint64_t fp = 0;
    uint64_t intops = 0;

    void
    add(const MicroOp &op)
    {
        ++perClass[static_cast<size_t>(op.cls)];
        ++total;
        loads += op.isLoad();
        stores += op.isStore();
        branches += op.isBranch();
        fp += op.isFp();
        intops += op.cls == OpClass::IntAlu ||
            op.cls == OpClass::IntMul || op.cls == OpClass::IntDiv;
    }

    /** Expect a core's cumulative counters to equal the tally. */
    void
    expectMatches(const Counters &c) const
    {
        const auto &reg = CounterRegistry::instance();
        for (Ctr ctr : {Ctr::DecodeUops, Ctr::UopsDispatched,
                        Ctr::UopsIssuedTotal, Ctr::InstRetired,
                        Ctr::UopsRetired})
            EXPECT_EQ(c.value(ctr), total)
                << reg.name(CounterRegistry::index(ctr));
        EXPECT_EQ(c.value(Ctr::LoadsRetired), loads);
        EXPECT_EQ(c.value(Ctr::StoresRetired), stores);
        EXPECT_EQ(c.value(Ctr::BranchesRetired), branches);
        EXPECT_EQ(c.value(Ctr::FpOpsRetired), fp);
        EXPECT_EQ(c.value(Ctr::IntOpsRetired), intops);
        const uint16_t retired = reg.familyBase(CtrFamily::OpcRetired);
        const uint16_t c0 = reg.familyBase(CtrFamily::OpcIssuedC0);
        const uint16_t c1 = reg.familyBase(CtrFamily::OpcIssuedC1);
        for (size_t k = 0; k < kNumOpClasses; ++k) {
            const auto i = static_cast<uint16_t>(k);
            EXPECT_EQ(c.value(static_cast<uint16_t>(retired + i)),
                      perClass[k])
                << opClassName(static_cast<OpClass>(k));
            EXPECT_EQ(c.value(static_cast<uint16_t>(c0 + i)) +
                          c.value(static_cast<uint16_t>(c1 + i)),
                      perClass[k]);
        }
    }
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

TEST_P(GenomeCategory, NextAndFillAgree)
{
    // Both ways to draw the stream must give the same ops in the same
    // order, whatever the request sizes and wherever they fall
    // against the generator's 4096-uop emit chunks.
    const Workload w = categoryWorkload(GetParam(), kGenomeSeed, 1 << 20);
    constexpr size_t kOps = 50000;

    TraceGenerator aos_gen(w);
    std::vector<MicroOp> aos;
    while (aos.size() < kOps)
        aos_gen.fill(aos, 4097);

    // Request sizes that straddle, match and undershoot emit chunks.
    TraceGenerator span_gen(w);
    std::vector<MicroOp> spans;
    const size_t maxes[] = {1, 4095, 4096, 4097, 7, 10000, 3};
    for (size_t k = 0; spans.size() < kOps; ++k) {
        const size_t max = maxes[k % std::size(maxes)];
        const MicroOp *ops = nullptr;
        const size_t take = span_gen.next(ops, max);
        ASSERT_GE(take, 1u);
        ASSERT_LE(take, max);
        spans.insert(spans.end(), ops, ops + take);
        ASSERT_EQ(span_gen.produced(), spans.size());
    }

    for (size_t i = 0; i < kOps; ++i) {
        expectOpEq(spans[i], aos[i], i);
        EXPECT_EQ(spans[i].memSize, aos[i].memSize) << "op " << i;
    }
}

TEST_P(GenomeCategory, DerivedStreamCountersMatchStream)
{
    // flush() derives the stream counters from the per-class issue
    // counts; at every interval boundary they must equal their
    // per-uop definitions, tallied here from a second generator.
    const Workload w = categoryWorkload(GetParam(), kGenomeSeed, 1 << 22);
    constexpr uint64_t kInterval = 10000;

    for (CoreMode mode : {CoreMode::HighPerf, CoreMode::LowPower}) {
        ClusteredCore core;
        core.reset();
        core.setMode(mode);
        TraceGenerator gen(w);
        TraceGenerator tally_gen(w);
        StreamTally tally;
        std::vector<MicroOp> ops;
        for (int t = 0; t < 6; ++t) {
            ASSERT_EQ(core.run(gen, kInterval).instructions, kInterval);
            ops.clear();
            tally_gen.fill(ops, kInterval);
            for (const MicroOp &op : ops)
                tally.add(op);
            tally.expectMatches(core.counters());
            EXPECT_EQ(core.counters().value(Ctr::InstRetired),
                      (t + 1) * kInterval);
        }
    }
}

TEST_P(GenomeCategory, ReplayMatchesGoldens)
{
    // The gen-driven path must reproduce its goldens, and the span
    // overload must retire the same stream held whole.
    const Workload w = categoryWorkload(GetParam(), kGenomeSeed, 1 << 22);
    constexpr uint64_t kInterval = 10000;
    constexpr uint64_t kTotal = 6 * kInterval;
    TraceGenerator dec_gen(w);
    const std::vector<MicroOp> trace = decodeTrace(dec_gen, kTotal);
    TraceGenerator hash_gen(w);
    const uint64_t trace_hash = streamContentHash(hash_gen, kTotal);
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
        EXPECT_EQ(trace_hash, golden->traceHash);

        ClusteredCore rep;
        rep.reset();
        rep.setMode(mode);
        for (uint64_t base = 0; base < kTotal; base += kInterval)
            rep.run(trace.data() + base, kInterval);
        EXPECT_EQ(inc.currentCycle(), rep.currentCycle());
        EXPECT_EQ(inc.counters().raw(), rep.counters().raw());
    }
    EXPECT_EQ(clamps.value(), clamps_before);
}

INSTANTIATE_TEST_SUITE_P(
    GenomeCorpus, GenomeCategory,
    ::testing::ValuesIn(kAllCategories),
    [](const ::testing::TestParamInfo<AppCategory> &info) {
        return std::string(appCategoryName(info.param));
    });

TEST(TraceStream, SteadyStateReplayAllocationBudget)
{
    // The reserve() audit: after warmup, neither the gen-driven
    // in-place path nor the span replay may allocate per interval (single-phase kernel, so the generator reaches steady
    // state).
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
    EXPECT_EQ(g_allocs.load(), 0u)
        << "gen-driven replay allocates in steady state";

    TraceGenerator dec_gen(w);
    const std::vector<MicroOp> trace = decodeTrace(dec_gen, 120000);
    core.run(trace.data(), 10000); // warm

    g_allocs.store(0);
    g_audit.store(true);
    for (uint64_t base = 10000; base + 10000 <= trace.size();
         base += 10000)
        core.run(trace.data() + base, 10000);
    g_audit.store(false);
    EXPECT_EQ(g_allocs.load(), 0u)
        << "span replay allocates in steady state";

    // The block step closed loops and the serve loop share: replay a
    // block, then hand the predictor its row pointers.
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = {CounterRegistry::index(Ctr::InstRetired),
                      CounterRegistry::index(Ctr::L1dMiss)};
    constexpr size_t kSubIntervals = 2;
    BlockReplayer replayer(w, cfg, kSubIntervals);
    PpwAccumulator acc;
    replayer.runBlock(CoreMode::HighPerf, acc); // warm, both modes
    replayer.runBlock(CoreMode::LowPower, acc);

    size_t rows_seen = 0;
    g_allocs.store(0);
    g_audit.store(true);
    for (int b = 0; b < 6; ++b) {
        replayer.runBlock(b % 2 ? CoreMode::LowPower : CoreMode::HighPerf,
                          acc);
        const std::vector<const float *> &rows = replayer.rowPtrs();
        for (size_t t = 0; t < rows.size(); ++t)
            rows_seen += rows[t] == replayer.subRows()[t].data();
    }
    g_audit.store(false);
    EXPECT_EQ(g_allocs.load(), 0u)
        << "block replay allocates in steady state";
    EXPECT_EQ(rows_seen, 6 * kSubIntervals);
}

TEST(TraceStream, DerivedCountersCoverEveryOpClass)
{
    // The generator's kernels never emit some classes (IntMul,
    // IntDiv, Nop), so the derived per-class counts are also checked
    // on a random stream that mixes all of them.
    Rng rng(0xc1a55);
    std::vector<MicroOp> trace;
    for (int i = 0; i < 6000; ++i) {
        MicroOp op;
        op.cls = static_cast<OpClass>(rng.below(kNumOpClasses));
        op.pc = 0x400000 + 4 * rng.below(4096);
        op.dst = static_cast<int8_t>(rng.below(kNumArchRegs));
        op.src0 = static_cast<int8_t>(rng.below(kNumArchRegs));
        op.src1 = rng.below(2) ? kNoReg
                               : static_cast<int8_t>(rng.below(kNumArchRegs));
        if (op.isMem())
            op.addr = 0x10000000 + 8 * rng.below(1 << 16);
        op.branchTaken = op.isBranch() && rng.below(2);
        trace.push_back(op);
    }
    for (CoreMode mode : {CoreMode::HighPerf, CoreMode::LowPower}) {
        ClusteredCore core;
        core.reset();
        core.setMode(mode);
        StreamTally tally;
        for (size_t base = 0; base < trace.size(); base += 1000) {
            core.run(trace.data() + base, 1000);
            for (size_t i = base; i < base + 1000; ++i)
                tally.add(trace[i]);
            tally.expectMatches(core.counters());
        }
        for (size_t k = 0; k < kNumOpClasses; ++k)
            EXPECT_GT(tally.perClass[k], 0u);
    }
}

TEST(TraceStream, CoreFootprintRatchet)
{
    // Every closed-loop run of a parallel suite holds one live core,
    // so per-core state sets the suite's memory (DESIGN.md §9 lists
    // it per structure, about 753 KiB in all, 704 KiB of it in
    // page-backed arrays).
    { ClusteredCore warm; } // one-time registry entries
    const int64_t base = liveBytes();
    const int64_t mapped_base = pageBackedBytes();
    auto core = std::make_unique<ClusteredCore>();
    core->reset();
    const int64_t bytes = liveBytes() - base;
    EXPECT_LE(bytes, int64_t{756} << 10)
        << "a default ClusteredCore now allocates " << bytes << " bytes";
    EXPECT_GE(pageBackedBytes() - mapped_base, int64_t{704} << 10)
        << "the LLC, L2 and port-ring arrays are no longer page-backed";
}

TEST(TraceStream, DestroyedCoreReturnsItsPages)
{
    // While a core is live, a dead core's large arrays go to the page
    // pool and the next core, on any thread, reuses them instead of
    // mapping more. Once none is live, the pool keeps one core's
    // arrays for the next core and unmaps the rest.
    ASSERT_EQ(pageBackedBytes(), 0);
    auto keep = std::make_unique<ClusteredCore>();
    { ClusteredCore first; }
    const int64_t mapped = pageMappedBytes();
    EXPECT_GE(mapped, int64_t{2 * 704} << 10);
    std::thread([&] {
        ClusteredCore core;
        core.reset();
        EXPECT_EQ(pageMappedBytes(), mapped);
    }).join();
    keep.reset();
    EXPECT_EQ(pageBackedBytes(), 0);
    const int64_t idle = pageMappedBytes();
    EXPECT_LE(idle, static_cast<int64_t>(kIdlePoolBytes));
    {
        ClusteredCore next;
        EXPECT_EQ(pageMappedBytes(), idle);
    }
}

TEST(TraceStream, StreamedRecordingMemoryIndependentOfLength)
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
        const int64_t base = liveBytes();
        const TraceRecord r = recordTrace(w, cfg, 0, 0);
        EXPECT_EQ(r.numIntervals(), len / cfg.intervalInstr);
        return peakBytes() - base;
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
