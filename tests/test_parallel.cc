/**
 * @file
 * Tests for the deterministic parallel execution layer: pool
 * lifecycle and shutdown, exception propagation, RNG substream
 * independence, and the bit-identity contract — the same seed must
 * produce byte-equal models, summaries, closed-loop suite results,
 * and equal obs counters whether the process runs on 1 thread or 4.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/fault.hh"
#include "common/parallel.hh"
#include "core/builder.hh"
#include "core/crossval.hh"
#include "core/firmware_image.hh"
#include "core/guardrail.hh"
#include "core/pipeline.hh"
#include "ml/tree.hh"
#include "obs/stats.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;
using namespace psca::test;

namespace {

/** Flatten a forest's node storage into comparable bytes. */
std::vector<uint8_t>
forestBytes(const RandomForest &forest)
{
    std::vector<uint8_t> bytes;
    for (const auto &tree : forest.trees()) {
        for (const auto &node : tree->nodes()) {
            const auto *p =
                reinterpret_cast<const uint8_t *>(&node.feature);
            bytes.insert(bytes.end(), p, p + sizeof(node.feature));
            p = reinterpret_cast<const uint8_t *>(&node.threshold);
            bytes.insert(bytes.end(), p, p + sizeof(node.threshold));
            p = reinterpret_cast<const uint8_t *>(&node.prob);
            bytes.insert(bytes.end(), p, p + sizeof(node.prob));
            p = reinterpret_cast<const uint8_t *>(&node.left);
            bytes.insert(bytes.end(), p, p + sizeof(node.left));
            p = reinterpret_cast<const uint8_t *>(&node.right);
            bytes.insert(bytes.end(), p, p + sizeof(node.right));
        }
    }
    return bytes;
}

/** Byte image of a crossval summary, folds included. */
std::vector<uint8_t>
summaryBytes(const CrossValSummary &s)
{
    std::vector<uint8_t> bytes;
    auto put = [&bytes](const void *p, size_t n) {
        const auto *b = static_cast<const uint8_t *>(p);
        bytes.insert(bytes.end(), b, b + n);
    };
    put(&s.pgosMean, sizeof(double));
    put(&s.pgosStd, sizeof(double));
    put(&s.rsvMean, sizeof(double));
    put(&s.rsvStd, sizeof(double));
    put(&s.accuracyMean, sizeof(double));
    for (const auto &f : s.folds) {
        put(&f.confusion.truePositive, sizeof(uint64_t));
        put(&f.confusion.falsePositive, sizeof(uint64_t));
        put(&f.confusion.trueNegative, sizeof(uint64_t));
        put(&f.confusion.falseNegative, sizeof(uint64_t));
        put(&f.pgos, sizeof(double));
        put(&f.rsv, sizeof(double));
    }
    return bytes;
}

CrossValSummary
runCrossval(const Dataset &data)
{
    CrossValOptions opts;
    opts.folds = 6;
    opts.seed = 17;
    opts.rsvWindow = 16;
    return crossValidate(
        data,
        [](const Dataset &tune, uint64_t fold_seed) {
            ForestConfig fc;
            fc.numTrees = 5;
            fc.maxDepth = 4;
            fc.seed = fold_seed;
            return std::make_unique<RandomForest>(tune, fc);
        },
        opts);
}

} // namespace

TEST(ThreadPool, SizesFromEnvAndClampsToOne)
{
    ThreadPool pool0(0);
    EXPECT_EQ(pool0.numThreads(), 1);
    ThreadPool pool3(3);
    EXPECT_EQ(pool3.numThreads(), 3);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallelFor(kN, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, MapPreservesIndexOrder)
{
    ThreadPool pool(4);
    const auto out = pool.parallelMap<size_t>(
        257, [](size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 257u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ThreadPool, BackToBackRegionsAndShutdown)
{
    // Exercises worker wakeup across many short regions and a clean
    // join at scope exit; a lifetime bug here hangs or crashes.
    for (int round = 0; round < 3; ++round) {
        ThreadPool pool(4);
        for (int job = 0; job < 50; ++job) {
            std::atomic<size_t> sum{0};
            pool.parallelFor(17, [&](size_t i) {
                sum.fetch_add(i, std::memory_order_relaxed);
            });
            EXPECT_EQ(sum.load(), 17u * 16u / 2u);
        }
    }
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    ThreadPool pool(4);
    try {
        pool.parallelFor(100, [](size_t i) {
            if (i >= 13)
                throw std::runtime_error(
                    "task " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "task 13");
    }
    // The pool must still be usable after a throwing region.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](size_t) {
        ran.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPool, NestedRegionsRunInline)
{
    ThreadPool pool(4);
    std::atomic<size_t> total{0};
    pool.parallelFor(8, [&](size_t) {
        EXPECT_TRUE(ThreadPool::inParallelTask());
        // A nested region must execute serially on this thread
        // rather than waiting on the (busy) pool.
        pool.parallelFor(5, [&](size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_FALSE(ThreadPool::inParallelTask());
    EXPECT_EQ(total.load(), 40u);
}

TEST(Substreams, IndependentAndStable)
{
    // Substreams must not depend on draw order of sibling tasks and
    // must differ across task indices.
    std::set<uint64_t> firsts;
    for (uint64_t i = 0; i < 64; ++i) {
        Rng a = taskRng(99, i);
        Rng b = taskRng(99, i);
        const uint64_t first = a.next();
        EXPECT_EQ(first, b.next()) << "substream " << i
                                   << " not reproducible";
        firsts.insert(first);
    }
    EXPECT_EQ(firsts.size(), 64u) << "substreams collide";
    // Matches the serial derivation rule used by the fold loop.
    EXPECT_EQ(taskSeed(17, 3), mixSeeds(17, 4));
}

TEST(BitIdentity, ForestBytesEqualAcrossThreadCounts)
{
    const Dataset data = groupedData(12, 40, 5);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 5;
    fc.seed = 21;

    ThreadPool::configure(1);
    const auto serial = forestBytes(RandomForest(data, fc));
    ThreadPool::configure(4);
    const auto parallel = forestBytes(RandomForest(data, fc));
    ThreadPool::configure(1);

    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(serial, parallel);
}

TEST(BitIdentity, CrossvalSummaryEqualAcrossThreadCounts)
{
    const Dataset data = groupedData(16, 30, 9);

    ThreadPool::configure(1);
    const auto serial = summaryBytes(runCrossval(data));
    ThreadPool::configure(4);
    const auto parallel = summaryBytes(runCrossval(data));
    ThreadPool::configure(1);

    ASSERT_EQ(serial.size(), parallel.size());
    EXPECT_EQ(serial, parallel);
}

TEST(BitIdentity, RecordedCorpusAndCountersEqualAcrossThreadCounts)
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 10000;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::BranchMispred),
    };

    std::vector<Workload> workloads;
    std::vector<uint32_t> app_ids;
    for (int a = 0; a < 6; ++a) {
        AppGenome g;
        g.name = "bitid" + std::to_string(a);
        g.seed = 100 + static_cast<uint64_t>(a);
        PhaseSpec p;
        p.kernel.kind =
            a % 2 ? KernelKind::PointerChase : KernelKind::Ilp;
        p.kernel.workingSetBytes = 1u << 16;
        p.kernel.chains = 4;
        p.meanLenInstr = 1e9;
        g.phases = {p};
        Workload w;
        w.genome = g;
        w.inputSeed = 1;
        w.lengthInstr = 60000;
        w.name = g.name;
        workloads.push_back(std::move(w));
        app_ids.push_back(static_cast<uint32_t>(a));
    }

    auto &reg = obs::StatRegistry::instance();
    auto run = [&](int threads, const char *cache_dir) {
        // Fresh cache dir per run so the second run actually records
        // instead of replaying the first run's cache file.
        std::filesystem::remove_all(cache_dir);
        setenv("PSCA_CACHE_DIR", cache_dir, 1);
        ThreadPool::configure(threads);
        reg.counter("record.traces").reset();
        auto records =
            recordCorpus(workloads, app_ids, cfg, "bitid");
        return std::make_pair(std::move(records),
                              reg.counter("record.traces").value());
    };

    const auto [serial, serial_traces] = run(1, "bitid_cache_t1");
    const auto [parallel, parallel_traces] = run(4, "bitid_cache_t4");
    ThreadPool::configure(1);
    unsetenv("PSCA_CACHE_DIR");
    std::filesystem::remove_all("bitid_cache_t1");
    std::filesystem::remove_all("bitid_cache_t4");

    // Concurrent writers must not lose counter increments.
    EXPECT_EQ(serial_traces, workloads.size());
    EXPECT_EQ(parallel_traces, workloads.size());

    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].name, parallel[i].name);
        EXPECT_EQ(serial[i].deltaHigh, parallel[i].deltaHigh);
        EXPECT_EQ(serial[i].deltaLow, parallel[i].deltaLow);
        EXPECT_EQ(serial[i].cyclesHigh, parallel[i].cyclesHigh);
        EXPECT_EQ(serial[i].cyclesLow, parallel[i].cyclesLow);
        EXPECT_EQ(serial[i].energyHighNj, parallel[i].energyHighNj);
        EXPECT_EQ(serial[i].energyLowNj, parallel[i].energyLowNj);
    }
}

TEST(SharedStats, CountersExactUnderConcurrentWriters)
{
    auto &ctr =
        obs::StatRegistry::instance().counter("parallel.test_ctr");
    ctr.reset();
    ThreadPool pool(4);
    pool.parallelFor(2000, [&](size_t) { ctr.add(3); });
    EXPECT_EQ(ctr.value(), 6000u);
    ctr.reset();
}

namespace {

/** A small closed-loop corpus: four two-phase workloads, recorded. */
ExperimentContext
suiteContext()
{
    ExperimentContext ctx;
    ctx.build.intervalInstr = 10000;
    ctx.build.warmupInstr = 20000;
    ctx.build.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::LoadLatSum),
        CounterRegistry::index(Ctr::MshrOccSum),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
    };
    for (uint32_t a = 0; a < 4; ++a) {
        AppGenome g;
        g.name = "suite" + std::to_string(a);
        g.seed = 40 + a;
        PhaseSpec gate, hungry;
        gate.kernel = {.kind = KernelKind::PointerChase,
                       .workingSetBytes = 8 << 20, .chains = 4};
        gate.meanLenInstr = 60e3;
        hungry.kernel = {.kind = KernelKind::Ilp, .chains = 14};
        hungry.meanLenInstr = 60e3;
        g.phases = {gate, hungry};
        Workload w;
        w.genome = g;
        w.inputSeed = 1;
        w.traceIndex = a;
        w.lengthInstr = 240000;
        w.name = g.name;
        ctx.spec.push_back(recordTrace(w, ctx.build, a, 0));
        ctx.specWorkloadsList.push_back(std::move(w));
    }
    return ctx;
}

/** Every per-trace and aggregate field of a suite, as bytes. */
std::vector<uint8_t>
suiteBytes(const SuiteResult &s)
{
    std::vector<uint8_t> bytes;
    auto put = [&bytes](const auto &v) {
        const auto *b = reinterpret_cast<const uint8_t *>(&v);
        bytes.insert(bytes.end(), b, b + sizeof(v));
    };
    put(s.ppwGainPct);
    put(s.rsvPct);
    put(s.pgosPct);
    put(s.perfRelativePct);
    put(s.lowResidencyPct);
    for (const ClosedLoopResult &r : s.perTrace) {
        put(r.ppwGainPct);
        put(r.perfRelativePct);
        put(r.lowResidency);
        put(r.confusion.truePositive);
        put(r.confusion.falsePositive);
        put(r.confusion.trueNegative);
        put(r.confusion.falseNegative);
        put(r.pgos);
        put(r.rsv);
        put(r.numPredictions);
        put(r.modeSwitches);
        put(r.ucOps);
    }
    return bytes;
}

/** The counters and gauges under one of @p prefixes, by name. */
std::map<std::string, double>
statsUnder(std::initializer_list<const char *> prefixes)
{
    std::map<std::string, double> stats;
    const auto &reg = obs::StatRegistry::instance();
    const auto keep = [&](const std::string &name, double v) {
        for (const char *prefix : prefixes)
            if (name.rfind(prefix, 0) == 0)
                stats[name] = v;
    };
    reg.forEachCounter([&](const std::string &name, uint64_t v) {
        keep(name, static_cast<double>(v));
    });
    reg.forEachGauge(keep);
    return stats;
}

/** The controller.* counters and gauges, by name. */
std::map<std::string, double>
controllerStats()
{
    return statsUnder({"controller."});
}

/**
 * The replay.* and sim.* counters and gauges: how much was simulated,
 * served and kept. sim.replay_ns is a time, so it is left out.
 */
std::map<std::string, double>
replayStats()
{
    auto stats = statsUnder({"replay.", "sim."});
    stats.erase("sim.replay_ns");
    return stats;
}

/** A dual RF on the suite corpus's six columns. */
DualModelPredictor
suiteRf(const ExperimentContext &ctx, uint64_t granularity)
{
    const std::vector<size_t> columns{0, 1, 2, 3, 4, 5};
    DualTrainOptions opts;
    opts.granularityInstr = granularity;
    opts.columns = columns;
    opts.rsvWindow = 64;
    const TrainedDual dual =
        trainDual(ctx.spec, ctx.build, opts, forestFactory(4, 6));
    return DualModelPredictor(dual.high, dual.low, columns, granularity,
                              "rf");
}

/** SRCH at 20k on the suite corpus's six columns. */
SrchPredictor
suiteSrch(const ExperimentContext &ctx)
{
    const std::vector<size_t> columns{0, 1, 2, 3, 4, 5};
    std::shared_ptr<SrchModel> srch[2];
    for (int m = 0; m < 2; ++m) {
        AssemblyOptions asm_opts;
        asm_opts.granularityInstr = ctx.build.intervalInstr;
        asm_opts.telemetryMode =
            m == 0 ? CoreMode::HighPerf : CoreMode::LowPower;
        asm_opts.columns = columns;
        srch[m] = std::make_shared<SrchModel>(
            assembleDataset(ctx.spec, asm_opts, ctx.build.intervalInstr),
            2, LogRegConfig{});
    }
    return SrchPredictor(srch[0], srch[1], columns, 20000, "srch");
}

} // namespace

TEST(BitIdentity, ClosedLoopSuiteEqualAcrossThreadCounts)
{
    ExperimentContext ctx = suiteContext();
    const std::vector<size_t> columns{0, 1, 2, 3, 4, 5};
    const DualModelPredictor rf = suiteRf(ctx, 20000);
    const SrchPredictor srch_pred = suiteSrch(ctx);
    const VmPredictor vm(packageFromDual(rf, columns));
    // A hair-trigger guardrail, so its per-run state matters.
    GuardrailConfig rail_cfg;
    rail_cfg.tripRatio = 0.99;
    DualModelPredictor rail_inner = rf;
    const GuardrailedPredictor rail(rail_inner, rail_cfg);

    struct Kind
    {
        const char *name;
        const GatePredictor &predictor;
        const char *faults;
    };
    const Kind kinds[] = {
        {"dual", rf, ""},
        {"srch", srch_pred, ""},
        {"vm", vm,
         "uc.vm_trap:0.2,telemetry.noise:0.3,"
         "telemetry.dropped_snapshot:0.1"},
        {"guardrail", rail, ""},
    };

    auto &reg = obs::StatRegistry::instance();
    auto &faults = FaultRegistry::instance();
    const uint64_t fault_seed = faults.seed();
    const std::vector<size_t> traces{3, 0, 2, 1};
    for (const Kind &kind : kinds) {
        faults.configure(kind.faults, fault_seed);
        auto run = [&](int threads) {
            ThreadPool::configure(threads);
            reg.reset();
            // A fresh table: each run simulates, none is served from
            // the run before it.
            ctx.replays = std::make_unique<ReplayTable>();
            const SuiteResult suite =
                evaluateSuite(ctx, kind.predictor, traces, 0.9);
            return std::make_pair(suiteBytes(suite), controllerStats());
        };
        const auto [serial, serial_stats] = run(1);
        const auto [parallel, parallel_stats] = run(4);
        EXPECT_EQ(serial, parallel) << kind.name;
        EXPECT_EQ(serial_stats, parallel_stats) << kind.name;
        EXPECT_GT(serial_stats.at("controller.predictions"), 0.0)
            << kind.name;
        if (std::string(kind.name) == "vm") {
            EXPECT_GT(serial_stats.at("controller.vm_trap_failsafes"),
                      0.0);
        }
        if (std::string(kind.name) == "guardrail") {
            EXPECT_GT(serial_stats.at("controller.guardrail_trips"),
                      0.0);
        }
    }
    faults.configure("", fault_seed);
    ThreadPool::configure(1);
}

TEST(ReplayTableSuite, RepeatedSuiteIsServedWhole)
{
    const ExperimentContext ctx = suiteContext();
    const DualModelPredictor rf = suiteRf(ctx, 20000);
    const std::vector<size_t> traces{3, 1};
    uint64_t intervals0 = counterValue("sim.intervals");
    const SuiteResult first = evaluateSuite(ctx, rf, traces, 0.9);
    ASSERT_GT(counterValue("sim.intervals"), intervals0);
    EXPECT_EQ(ctx.replays->size().tries, traces.size());

    intervals0 = counterValue("sim.intervals");
    const SuiteResult again = evaluateSuite(ctx, rf, traces, 0.9);
    EXPECT_EQ(counterValue("sim.intervals"), intervals0);
    EXPECT_EQ(suiteBytes(again), suiteBytes(first));
}

TEST(ReplayTableSuite, OtherBlockSizeRunsOnItsOwnWalker)
{
    // The table keeps the first k a trace ran at (20k here): the 40k
    // suites both simulate what they gate, as direct loops would.
    const ExperimentContext ctx = suiteContext();
    const DualModelPredictor rf20 = suiteRf(ctx, 20000);
    const DualModelPredictor rf40 = suiteRf(ctx, 40000);
    const std::vector<size_t> traces{0, 1, 2, 3};
    evaluateSuite(ctx, rf20, traces, 0.9);
    const size_t bytes = ctx.replays->size().bytes;

    uint64_t intervals[2];
    SuiteResult suites[2];
    for (int i = 0; i < 2; ++i) {
        const uint64_t intervals0 = counterValue("sim.intervals");
        suites[i] = evaluateSuite(ctx, rf40, traces, 0.9);
        intervals[i] = counterValue("sim.intervals") - intervals0;
    }
    EXPECT_GT(intervals[0], 0u);
    EXPECT_EQ(intervals[1], intervals[0]);
    EXPECT_EQ(suiteBytes(suites[1]), suiteBytes(suites[0]));
    EXPECT_EQ(ctx.replays->size().bytes, bytes);
}

TEST(ReplayTableSuite, SuiteOrderDoesNotChangeResults)
{
    ExperimentContext ctx = suiteContext();
    const DualModelPredictor rf = suiteRf(ctx, 20000);
    const SrchPredictor srch = suiteSrch(ctx);
    const std::vector<size_t> traces{0, 1, 2, 3};

    const SuiteResult rf_first = evaluateSuite(ctx, rf, traces, 0.9);
    const SuiteResult srch_second = evaluateSuite(ctx, srch, traces, 0.9);
    ctx.replays = std::make_unique<ReplayTable>();
    const SuiteResult srch_first = evaluateSuite(ctx, srch, traces, 0.9);
    const SuiteResult rf_second = evaluateSuite(ctx, rf, traces, 0.9);
    EXPECT_EQ(suiteBytes(rf_second), suiteBytes(rf_first));
    EXPECT_EQ(suiteBytes(srch_second), suiteBytes(srch_first));
}

TEST(ReplayTableSuite, TableEqualAcrossThreadCounts)
{
    ExperimentContext ctx = suiteContext();
    const DualModelPredictor rf = suiteRf(ctx, 20000);
    const DualModelPredictor rf40 = suiteRf(ctx, 40000);
    const SrchPredictor srch = suiteSrch(ctx);
    const std::vector<size_t> traces{3, 0, 2, 1};

    auto &reg = obs::StatRegistry::instance();
    auto run = [&](int threads) {
        ThreadPool::configure(threads);
        reg.reset();
        ctx.replays = std::make_unique<ReplayTable>();
        std::vector<uint8_t> bytes;
        const GatePredictor *const suites[] = {&rf, &srch, &rf40, &rf};
        for (const GatePredictor *p : suites) {
            const std::vector<uint8_t> suite =
                suiteBytes(evaluateSuite(ctx, *p, traces, 0.9));
            bytes.insert(bytes.end(), suite.begin(), suite.end());
        }
        return std::make_tuple(bytes, replayStats(),
                               ctx.replays->size().tries,
                               ctx.replays->size().bytes);
    };
    const auto serial = run(1);
    const auto parallel = run(4);
    EXPECT_EQ(std::get<0>(serial), std::get<0>(parallel));
    EXPECT_EQ(std::get<1>(serial), std::get<1>(parallel));
    EXPECT_EQ(std::get<2>(serial), std::get<2>(parallel));
    EXPECT_EQ(std::get<3>(serial), std::get<3>(parallel));
    const auto &stats = std::get<1>(serial);
    EXPECT_GT(stats.at("replay.trie_served_blocks"), 0.0);
    EXPECT_EQ(stats.at("replay.table_tries"), 4.0);
    EXPECT_EQ(stats.at("replay.table_bytes"),
              static_cast<double>(std::get<3>(serial)));
    ThreadPool::configure(1);
}

TEST(ReplayTableSuite, ChangedBuildServesNothingFromTable)
{
    ExperimentContext ctx = suiteContext();
    const DualModelPredictor rf = suiteRf(ctx, 20000);
    const std::vector<size_t> traces{0, 1, 2, 3};
    evaluateSuite(ctx, rf, traces, 0.9);

    // A new power model: every stored add's energy is stale now.
    ctx.build.power.perUopIssued *= 1.5;
    for (size_t i = 0; i < ctx.spec.size(); ++i)
        ctx.spec[i] = recordTrace(ctx.specWorkloadsList[i], ctx.build,
                                  static_cast<uint32_t>(i), 0);
    auto &reg = obs::StatRegistry::instance();
    auto run = [&] {
        reg.reset();
        const SuiteResult suite = evaluateSuite(ctx, rf, traces, 0.9);
        return std::make_pair(suiteBytes(suite), replayStats());
    };
    const auto changed = run();
    ctx.replays = std::make_unique<ReplayTable>();
    const auto fresh = run();
    EXPECT_EQ(changed.first, fresh.first);
    EXPECT_EQ(changed.second, fresh.second);
    EXPECT_GT(fresh.second.at("sim.intervals"), 0.0);
}
