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

using namespace psca;

namespace {

/** groupedData twin of test_crossval: per-app shifted features. */
Dataset
groupedData(size_t apps, size_t per_app, uint64_t seed)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = 3;
    for (size_t a = 0; a < apps; ++a) {
        for (size_t i = 0; i < per_app; ++i) {
            float row[3];
            for (auto &v : row)
                v = static_cast<float>(rng.gaussian());
            d.addSample(row, row[0] + row[1] > 0 ? 1 : 0,
                        static_cast<uint32_t>(a),
                        static_cast<uint32_t>(a * 10 + i % 3));
        }
    }
    return d;
}

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

/** The controller.* counters and gauges, by name. */
std::map<std::string, double>
controllerStats()
{
    std::map<std::string, double> stats;
    const auto &reg = obs::StatRegistry::instance();
    const auto keep = [&stats](const std::string &name, double v) {
        if (name.rfind("controller.", 0) == 0)
            stats[name] = v;
    };
    reg.forEachCounter([&](const std::string &name, uint64_t v) {
        keep(name, static_cast<double>(v));
    });
    reg.forEachGauge(keep);
    return stats;
}

} // namespace

TEST(BitIdentity, ClosedLoopSuiteEqualAcrossThreadCounts)
{
    const ExperimentContext ctx = suiteContext();
    const std::vector<size_t> columns{0, 1, 2, 3, 4, 5};
    DualTrainOptions opts;
    opts.granularityInstr = 20000;
    opts.columns = columns;
    opts.rsvWindow = 64;
    const TrainedDual dual =
        trainDual(ctx.spec, ctx.build, opts, forestFactory(4, 6));
    const DualModelPredictor rf(dual.high, dual.low, columns, 20000,
                                "rf");

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
    const SrchPredictor srch_pred(srch[0], srch[1], columns, 20000,
                                  "srch");
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
