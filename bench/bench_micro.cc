/**
 * @file
 * Google-benchmark microbenchmarks: adaptation-model inference
 * latency (native and firmware-VM), timing-model simulation
 * throughput, trace-generation throughput, and the parallel
 * execution layer (pool dispatch overhead, crossval fan-out scaling).
 * These bound the cost of corpus-scale experiments and document the
 * substrate's speed. On exit the measured crossval serial-vs-parallel
 * speedup is recorded as gauges in BENCH_micro.json.
 *
 * The simulation memo cache is switched off for the whole process, so
 * BM_RecordTrace and its gauge time cold recordings, not cache reads.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "core/builder.hh"
#include "core/crossval.hh"
#include "ml/linear.hh"
#include "ml/mlp.hh"
#include "ml/quant.hh"
#include "ml/tree.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "sim/core.hh"
#include "trace/corpus.hh"
#include "trace/generator.hh"
#include "uc/compilers.hh"
#include "core/runner.hh"

using namespace psca;

namespace {

Dataset
randomData(size_t n, size_t features, uint64_t seed)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = features;
    std::vector<float> row(features);
    for (size_t i = 0; i < n; ++i) {
        float acc = 0.0f;
        for (auto &v : row) {
            v = static_cast<float>(rng.gaussian());
            acc += v;
        }
        d.addSample(row.data(), acc > 0 ? 1 : 0, 0, 0);
    }
    return d;
}

/** Multi-app dataset so appLevelSplit has real groups to partition. */
Dataset
groupedData(size_t apps, size_t per_app, uint64_t seed)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = 12;
    std::vector<float> row(d.numFeatures);
    for (size_t a = 0; a < apps; ++a) {
        for (size_t i = 0; i < per_app; ++i) {
            float acc = 0.0f;
            for (auto &v : row) {
                v = static_cast<float>(rng.gaussian());
                acc += v;
            }
            d.addSample(row.data(), acc > 0 ? 1 : 0,
                        static_cast<uint32_t>(a),
                        static_cast<uint32_t>(a * 8 + i % 4));
        }
    }
    return d;
}

/** The crossval fan-out benched below and timed for the report. */
CrossValSummary
runCrossvalFanout(const Dataset &d)
{
    CrossValOptions opts;
    opts.folds = 8;
    opts.seed = 11;
    opts.rsvWindow = 32;
    return crossValidate(
        d,
        [](const Dataset &tune, uint64_t fold_seed) {
            ForestConfig fc;
            fc.numTrees = 8;
            fc.maxDepth = 6;
            fc.seed = fold_seed;
            return std::make_unique<RandomForest>(tune, fc);
        },
        opts);
}

Workload
mixedWorkload()
{
    AppGenome g = sampleGenome(AppCategory::HpcPerf, 13);
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = 1u << 30;
    w.name = "micro";
    return w;
}

/**
 * Segment 1 of the serve_shift schedule (benchmark/psca_benchmark.cc):
 * a cloud-security genome that spends tens of simulated cycles per
 * micro-op, so its replay cost shows any per-cycle work the core does.
 */
Workload
lowIpcWorkload()
{
    Workload w;
    w.genome = sampleGenome(AppCategory::CloudSecurity, 1);
    w.inputSeed = 1;
    w.lengthInstr = 600000;
    w.name = w.genome.name;
    return w;
}

/** One quick-scale SPEC trace and the recording set-up it runs under. */
Workload
quickSpecWorkload()
{
    return specWorkloads(buildSpecApps().front(), 600000, 1).front();
}

BuildConfig
recordConfig()
{
    BuildConfig cfg;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
        CounterRegistry::index(Ctr::BranchMispred),
    };
    return cfg;
}

/** Micro-ops one recordTrace of w simulates per mode. */
uint64_t
recordedUops(const Workload &w, const BuildConfig &cfg)
{
    return cfg.warmupInstr +
        w.lengthInstr / cfg.intervalInstr * cfg.intervalInstr;
}

void
BM_MlpInferenceNative(benchmark::State &state)
{
    const Dataset d = randomData(256, 12, 1);
    MlpConfig cfg;
    cfg.hiddenLayers = {8, 8, 4};
    cfg.epochs = 2;
    auto model = trainMlp(d, cfg);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(model->score(d.row(i++ & 255)));
    }
}
BENCHMARK(BM_MlpInferenceNative);

void
BM_MlpInferenceFirmwareVm(benchmark::State &state)
{
    const Dataset d = randomData(256, 12, 2);
    MlpConfig cfg;
    cfg.hiddenLayers = {8, 8, 4};
    cfg.epochs = 2;
    auto model = trainMlp(d, cfg);
    const UcProgram prog = compileMlp(*model);
    UcVm vm;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.run(prog, d.row(i++ & 255), 12));
    }
}
BENCHMARK(BM_MlpInferenceFirmwareVm);

void
BM_ForestInferenceNative(benchmark::State &state)
{
    const Dataset d = randomData(512, 12, 3);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    RandomForest forest(d, fc);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(forest.score(d.row(i++ & 511)));
    }
}
BENCHMARK(BM_ForestInferenceNative);

void
BM_ForestInferenceFirmwareVm(benchmark::State &state)
{
    const Dataset d = randomData(512, 12, 4);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    RandomForest forest(d, fc);
    const UcProgram prog = compileForest(forest);
    UcVm vm;
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(vm.run(prog, d.row(i++ & 511), 12));
    }
}
BENCHMARK(BM_ForestInferenceFirmwareVm);

void
BM_LogisticInference(benchmark::State &state)
{
    const Dataset d = randomData(256, 12, 5);
    LogisticRegression lr(d, LogRegConfig{});
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(lr.score(d.row(i++ & 255)));
    }
}
BENCHMARK(BM_LogisticInference);

void
BM_TraceGeneration(benchmark::State &state)
{
    TraceGenerator gen(mixedWorkload());
    std::vector<MicroOp> buf;
    for (auto _ : state) {
        buf.clear();
        gen.fill(buf, 4096);
        benchmark::DoNotOptimize(buf.data());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_TraceGeneration);

void
BM_CoreSimulation(benchmark::State &state)
{
    const CoreMode mode = state.range(0) == 0 ? CoreMode::HighPerf
                                              : CoreMode::LowPower;
    ClusteredCore core;
    core.reset();
    core.setMode(mode);
    TraceGenerator gen(mixedWorkload());
    for (auto _ : state) {
        core.run(gen, 10000);
    }
    state.SetItemsProcessed(state.iterations() * 10000);
    state.SetLabel(mode == CoreMode::HighPerf ? "high_perf"
                                              : "low_power");
}
BENCHMARK(BM_CoreSimulation)->Arg(0)->Arg(1);

void
BM_RecordTrace(benchmark::State &state)
{
    // One cold dual-mode recording (memo off): the hash pass plus two
    // generator-driven replays. Items are trace micro-ops.
    const Workload w = quickSpecWorkload();
    const BuildConfig cfg = recordConfig();
    for (auto _ : state) {
        const TraceRecord r = recordTrace(w, cfg, 0, 0);
        benchmark::DoNotOptimize(r.cyclesHigh.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(recordedUops(w, cfg)));
}
BENCHMARK(BM_RecordTrace)->Unit(benchmark::kMillisecond);

void
BM_PredictBatch_forest(benchmark::State &state)
{
    const Dataset d = randomData(4096, 12, 9);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    RandomForest forest(d, fc);
    std::vector<double> out(d.numSamples());
    for (auto _ : state) {
        forest.scoreBatch(d.x.data(),
                          static_cast<int>(d.numSamples()),
                          out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(d.numSamples()));
}
BENCHMARK(BM_PredictBatch_forest);

void
BM_PredictBatch_mlp(benchmark::State &state)
{
    const Dataset d = randomData(4096, 12, 10);
    MlpConfig cfg;
    cfg.hiddenLayers = {8, 8, 4};
    cfg.epochs = 2;
    auto model = trainMlp(d, cfg);
    std::vector<double> out(d.numSamples());
    for (auto _ : state) {
        model->scoreBatch(d.x.data(),
                          static_cast<int>(d.numSamples()),
                          out.data());
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(d.numSamples()));
    state.SetLabel(simd::levelName(simd::activeLevel()));
}
BENCHMARK(BM_PredictBatch_mlp);

void
BM_PredictQuant(benchmark::State &state)
{
    // Int8 fixed-point scoring (the quantized firmware path).
    const Dataset d = randomData(4096, 12, 11);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    RandomForest forest(d, fc);
    const quant::QuantizedForest qf =
        quant::QuantizedForest::fromForest(forest);
    size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(qf.score(d.row(i++ & 4095)));
    }
}
BENCHMARK(BM_PredictQuant);

void
BM_ForestTraining(benchmark::State &state)
{
    const Dataset d =
        randomData(static_cast<size_t>(state.range(0)), 12, 6);
    for (auto _ : state) {
        ForestConfig fc;
        fc.numTrees = 8;
        fc.maxDepth = 8;
        RandomForest forest(d, fc);
        benchmark::DoNotOptimize(&forest);
    }
}
BENCHMARK(BM_ForestTraining)->Arg(1000)->Arg(8000);

void
BM_MlpTraining(benchmark::State &state)
{
    const Dataset d =
        randomData(static_cast<size_t>(state.range(0)), 12, 7);
    for (auto _ : state) {
        MlpConfig cfg;
        cfg.hiddenLayers = {8, 8, 4};
        cfg.epochs = 5;
        auto m = trainMlp(d, cfg);
        benchmark::DoNotOptimize(m.get());
    }
}
BENCHMARK(BM_MlpTraining)->Arg(1000)->Arg(4000);

void
BM_PoolDispatchOverhead(benchmark::State &state)
{
    // Cost of fanning out n trivial tasks: the fixed price every
    // parallelized loop pays per region.
    ThreadPool pool(static_cast<int>(state.range(0)));
    const size_t n = static_cast<size_t>(state.range(1));
    for (auto _ : state) {
        pool.parallelFor(n, [](size_t i) {
            benchmark::DoNotOptimize(i);
        });
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(n));
    state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_PoolDispatchOverhead)
    ->Args({1, 64})
    ->Args({2, 64})
    ->Args({4, 64})
    ->Args({4, 1024});

void
BM_PhaseScope(benchmark::State &state)
{
    // The phase-tracing hot path: push/pop of a cached (parent,name)
    // node. Sharded wall-time credit keeps this lock-free in steady
    // state, so the multi-threaded variant must not collapse — this
    // is the overhead every instrumented scope pays.
    for (auto _ : state) {
        obs::ScopedPhase scope("bench.phase_scope");
        benchmark::DoNotOptimize(&scope);
    }
}
BENCHMARK(BM_PhaseScope)->Threads(1)->Threads(4);

void
BM_CrossvalFanout(benchmark::State &state)
{
    // End-to-end 8-fold crossval (forest factory) at a given thread
    // count — the headline fan-out of the parallel layer.
    const Dataset d = groupedData(16, 120, 8);
    ThreadPool::configure(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const CrossValSummary s = runCrossvalFanout(d);
        benchmark::DoNotOptimize(s.pgosMean);
    }
    ThreadPool::configure(1);
    state.SetLabel("threads=" + std::to_string(state.range(0)));
}
BENCHMARK(BM_CrossvalFanout)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * Wall-clock the crossval fan-out once serially and once at the
 * requested thread count, and record both (plus the ratio) as gauges
 * so BENCH_micro.json documents the machine's parallel speedup.
 */
void
recordCrossvalSpeedup()
{
    using clock = std::chrono::steady_clock;
    const Dataset d = groupedData(16, 120, 8);
    const int threads = parallelThreadCount();

    auto time_run = [&](int n) {
        ThreadPool::configure(n);
        runCrossvalFanout(d); // warm caches / page in
        const auto start = clock::now();
        runCrossvalFanout(d);
        return std::chrono::duration<double, std::milli>(
                   clock::now() - start)
            .count();
    };
    const double serial_ms = time_run(1);
    const double parallel_ms = time_run(threads);
    ThreadPool::configure(threads);

    auto &reg = obs::StatRegistry::instance();
    reg.gauge("parallel.threads").set(threads);
    reg.gauge("parallel.crossval_serial_ms").set(serial_ms);
    reg.gauge("parallel.crossval_parallel_ms").set(parallel_ms);
    reg.gauge("parallel.crossval_speedup")
        .set(parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
    std::printf("crossval fan-out: %.1f ms serial, %.1f ms on %d "
                "threads (%.2fx)\n",
                serial_ms, parallel_ms, threads,
                parallel_ms > 0.0 ? serial_ms / parallel_ms : 0.0);
}

/**
 * Wall-clock replay of a 2M-uop trace (best of three passes each, to
 * ride out machine noise) and record it as gauges, so BENCH_micro.json
 * documents the replay kernel next to the whole-run sim.replay_*
 * gauges the ReportGuard derives. Both replay in place from a
 * generator, generation included, as recording, closed loops and
 * serve do: a high-IPC trace (sim.replay_gen_muops_per_s) and a
 * low-IPC genome (sim.replay_lowipc_muops_per_s), which shows replay
 * cost that grows with simulated cycles per micro-op.
 */
void
recordReplayThroughput()
{
    using clock = std::chrono::steady_clock;
    constexpr uint64_t kInterval = 10000;
    constexpr uint64_t kIntervals = (1u << 21) / kInterval;
    constexpr uint64_t kUops = kIntervals * kInterval;

    // Best Muops/s of three passes of replay(core).
    const auto best_of_three = [&](const auto &replay) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            ClusteredCore core;
            core.reset();
            core.setMode(CoreMode::HighPerf);
            const auto start = clock::now();
            replay(core);
            const double s =
                std::chrono::duration<double>(clock::now() - start)
                    .count();
            if (s > 0.0 && kUops / s / 1e6 > best)
                best = kUops / s / 1e6;
        }
        return best;
    };
    const double in_place = best_of_three([&](ClusteredCore &core) {
        TraceGenerator replay_gen(mixedWorkload());
        for (uint64_t t = 0; t < kIntervals; ++t)
            core.run(replay_gen, kInterval);
    });
    const Workload low_ipc_workload = lowIpcWorkload();
    uint64_t low_ipc_cycles = 0;
    const double low_ipc = best_of_three([&](ClusteredCore &core) {
        TraceGenerator replay_gen(low_ipc_workload);
        for (uint64_t t = 0; t < kIntervals; ++t)
            core.run(replay_gen, kInterval);
        low_ipc_cycles = core.currentCycle();
    });
    auto &reg = obs::StatRegistry::instance();
    reg.gauge("sim.replay_gen_muops_per_s").set(in_place);
    reg.gauge("sim.replay_lowipc_muops_per_s").set(low_ipc);
    std::printf("replay throughput: %.1f Muops/s generator-driven, "
                "%.1f Muops/s at %.1f cycles/uop (%s)\n",
                in_place, low_ipc,
                static_cast<double>(low_ipc_cycles) / kUops,
                low_ipc_workload.name.c_str());
}

/**
 * Wall-clock one cold recordTrace of a quick SPEC trace (best of
 * three, on one thread so the number does not depend on the core
 * count) and record trace Muops/s, so the perf ratchet sees the whole
 * recording cost: the hash pass and both mode replays, each of which
 * regenerates the trace.
 */
void
recordRecordThroughput()
{
    using clock = std::chrono::steady_clock;
    const Workload w = quickSpecWorkload();
    const BuildConfig cfg = recordConfig();
    const double uops = static_cast<double>(recordedUops(w, cfg));
    ThreadPool::configure(1);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = clock::now();
        const TraceRecord r = recordTrace(w, cfg, 0, 0);
        benchmark::DoNotOptimize(r.cyclesHigh.data());
        const double s =
            std::chrono::duration<double>(clock::now() - start).count();
        if (s > 0.0 && uops / s / 1e6 > best)
            best = uops / s / 1e6;
    }
    ThreadPool::configure(parallelThreadCount());
    obs::StatRegistry::instance()
        .gauge("sim.record_muops_per_s")
        .set(best);
    std::printf("cold recording: %.2f trace Muops/s (%s, 1 thread)\n",
                best, w.name.c_str());
}

/**
 * Wall-clock scoreBatch against the per-sample score loop for the
 * forest and the MLP (best of three passes each) and record the
 * throughputs plus speedup ratios as gauges. The forest ratio is the
 * headline ≥4x batching target the perf-smoke job enforces.
 */
void
recordPredictBatchSpeedup()
{
    using clock = std::chrono::steady_clock;
    constexpr size_t kSamples = 4096;
    constexpr int kPasses = 8;
    const Dataset d = randomData(kSamples, 12, 12);

    auto best_mpred = [&](auto &&pass) {
        double best = 0.0;
        for (int rep = 0; rep < 3; ++rep) {
            const auto start = clock::now();
            for (int p = 0; p < kPasses; ++p)
                pass();
            const double s =
                std::chrono::duration<double>(clock::now() - start)
                    .count();
            const double mpred =
                s > 0.0 ? kPasses * kSamples / s / 1e6 : 0.0;
            if (mpred > best)
                best = mpred;
        }
        return best;
    };

    auto record = [&](const char *key, const Model &model) {
        std::vector<double> out(kSamples);
        const double scalar = best_mpred([&] {
            for (size_t i = 0; i < kSamples; ++i)
                out[i] = model.score(d.row(i));
            benchmark::DoNotOptimize(out.data());
        });
        const double batch = best_mpred([&] {
            model.scoreBatch(d.x.data(), static_cast<int>(kSamples),
                             out.data());
            benchmark::DoNotOptimize(out.data());
        });
        const double speedup = scalar > 0.0 ? batch / scalar : 0.0;
        auto &reg = obs::StatRegistry::instance();
        reg.gauge(std::string("ml.predict_scalar_") + key +
                  "_mpred_per_s")
            .set(scalar);
        reg.gauge(std::string("ml.predict_batch_") + key +
                  "_mpred_per_s")
            .set(batch);
        reg.gauge(std::string("ml.predict_batch_") + key + "_speedup")
            .set(speedup);
        std::printf("%s inference: %.2f Mpred/s scalar, %.2f Mpred/s "
                    "batched (%.2fx, simd=%s)\n",
                    key, scalar, batch, speedup,
                    simd::levelName(simd::activeLevel()));
    };

    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    record("forest", RandomForest(d, fc));

    MlpConfig mc;
    mc.hiddenLayers = {8, 8, 4};
    mc.epochs = 2;
    const auto mlp = trainMlp(d, mc);
    record("mlp", *mlp);
}

/**
 * Wall-clock the phase-scope push/pop at one and four threads and
 * record ns-per-scope gauges, so BENCH_micro.json tracks the cost of
 * the sharded tracer hot path (a contended-mutex regression shows up
 * as the 4-thread number exploding relative to the 1-thread one).
 */
void
recordPhaseOverhead()
{
    using clock = std::chrono::steady_clock;
    constexpr int kScopesPerThread = 200000;

    auto time_threads = [&](int n) {
        std::vector<std::thread> workers;
        const auto start = clock::now();
        for (int t = 0; t < n; ++t) {
            workers.emplace_back([] {
                for (int i = 0; i < kScopesPerThread; ++i) {
                    obs::ScopedPhase scope("bench.phase_overhead");
                    benchmark::DoNotOptimize(&scope);
                }
            });
        }
        for (auto &w : workers)
            w.join();
        const double s =
            std::chrono::duration<double>(clock::now() - start)
                .count();
        return s * 1e9 / kScopesPerThread; // ns per scope per thread
    };
    const double ns_1t = time_threads(1);
    const double ns_4t = time_threads(4);

    auto &reg = obs::StatRegistry::instance();
    reg.gauge("phase.scope_ns_1t").set(ns_1t);
    reg.gauge("phase.scope_ns_4t").set(ns_4t);
    std::printf("phase scope overhead: %.0f ns/scope at 1 thread, "
                "%.0f ns/scope at 4 threads\n",
                ns_1t, ns_4t);
}

} // namespace

static int
run(int argc, char **argv)
{
    setenv("PSCA_SIM_MEMO", "0", 1);
    // Destructs last: the report captures the speedup gauges below.
    bench::ReportGuard report("micro");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    recordReplayThroughput();
    recordRecordThroughput();
    recordPredictBatchSpeedup();
    recordCrossvalSpeedup();
    recordPhaseOverhead();
    return 0;
}

int
main(int argc, char **argv)
{
    return psca::runner::guardedMain(
        [argc, argv] { return run(argc, argv); });
}
