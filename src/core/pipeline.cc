#include "core/pipeline.hh"

#include <algorithm>
#include <bit>

#include "common/journal.hh"
#include "common/parallel.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"

namespace psca {

std::vector<uint16_t>
charstarCounterIds()
{
    // The Eyerman-et-al.-style expert counter set of Sec. 7: three
    // CHARSTAR counters are tile-gating specific, so the paper (and
    // we) substitute general CPI-stack counters.
    static const char *const names[] = {
        "Branch Mispredictions",
        "Instruction Cache Misses",
        "L1 Data Cache Misses",
        "L2 Cache Misses",
        "Instructions Retired", // IPC once cycle-normalized
        "I-TLB Misses",
        "D-TLB Misses",
        "Stall Count",
    };
    const auto &reg = CounterRegistry::instance();
    std::vector<uint16_t> ids;
    for (const char *name : names)
        ids.push_back(reg.indexOf(name));
    return ids;
}

std::vector<uint16_t>
defaultCounterIds()
{
    return {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::LoadLatSum),
        CounterRegistry::index(Ctr::MshrOccSum),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
        CounterRegistry::index(Ctr::UopsReady),
        CounterRegistry::index(Ctr::SqOccSum),
    };
}

std::vector<size_t>
CounterPlan::pfColumns(size_t r) const
{
    PSCA_ASSERT(r <= pfRanked.size(), "not enough PF counters ranked");
    std::vector<size_t> cols;
    for (size_t i = 0; i < r; ++i)
        cols.push_back(columnOf(pfRanked[i]));
    return cols;
}

std::vector<size_t>
CounterPlan::charstarColumns() const
{
    std::vector<size_t> cols;
    for (uint16_t id : charstarCounterIds())
        cols.push_back(columnOf(id));
    return cols;
}

size_t
CounterPlan::columnOf(uint16_t id) const
{
    for (size_t j = 0; j < recordIds.size(); ++j)
        if (recordIds[j] == id)
            return j;
    fatal("counter id ", id, " not in the record plan");
}

CounterPlan
makeCounterPlan(const std::vector<uint16_t> &pf_ranked)
{
    CounterPlan plan;
    plan.pfRanked = pf_ranked;
    plan.recordIds = pf_ranked;
    for (uint16_t id : charstarCounterIds()) {
        if (std::find(plan.recordIds.begin(), plan.recordIds.end(),
                      id) == plan.recordIds.end())
            plan.recordIds.push_back(id);
    }
    return plan;
}

namespace {

/** Bump on any change to pfCounterSelection()'s result. */
constexpr uint32_t kPlanVersion = 1;
constexpr uint64_t kPlanMagic = 0x50534341504c4eULL; // "PSCAPLN"

/**
 * The plan's cache key: the pf936 corpus's own key, every PfConfig
 * field, the telemetry mode and kPlanVersion. The plan is a function
 * of these alone, so a plan is exactly as fresh as its corpus.
 */
uint64_t
planKey(uint64_t corpus_key, const PfConfig &cfg, CoreMode mode)
{
    static_assert(sizeof(PfConfig) == 6 * sizeof(uint64_t),
                  "a new PfConfig field must join the plan key");
    uint64_t h = mixSeeds(corpus_key, kPlanVersion);
    auto mix = [&h](uint64_t v) { h = mixSeeds(h, v); };
    mix(std::bit_cast<uint64_t>(cfg.zeroFractionPerTrace));
    mix(std::bit_cast<uint64_t>(cfg.flaggedTraceFraction));
    mix(std::bit_cast<uint64_t>(cfg.stdDevCullFraction));
    mix(std::bit_cast<uint64_t>(cfg.similarityThreshold));
    mix(cfg.numToSelect);
    mix(cfg.maxSamples);
    mix(static_cast<uint64_t>(mode));
    return h;
}

} // namespace

std::vector<uint16_t>
runPfSelectionPass(const ScaleConfig &scale, const PfConfig &pf_cfg)
{
    obs::ScopedPhase phase("pf_selection");
    constexpr CoreMode kMode = CoreMode::LowPower;
    // Record all 936 counters on a category-diverse app subset.
    const auto apps = buildHdtrApps(scale.pfApps);
    std::vector<Workload> workloads;
    std::vector<uint32_t> app_ids;
    for (size_t a = 0; a < apps.size(); ++a) {
        Workload w;
        w.genome = apps[a];
        w.inputSeed = 1;
        w.traceIndex = 0;
        w.lengthInstr = scale.pfTraceLen;
        w.name = apps[a].name + ".pf";
        workloads.push_back(std::move(w));
        app_ids.push_back(static_cast<uint32_t>(a));
    }

    BuildConfig cfg;
    cfg.counterIds.resize(kNumTelemetryCounters);
    for (size_t i = 0; i < kNumTelemetryCounters; ++i)
        cfg.counterIds[i] = static_cast<uint16_t>(i);

    // The ranked ids are the design-time output: a cached plan is
    // served without the pf936 corpus or the PF scopes.
    const uint64_t key =
        planKey(corpusConfigHash(workloads, cfg), pf_cfg, kMode);
    const std::string path = cacheFilePath("plan", key);
    std::vector<uint16_t> ranked;
    if (loadCacheFile(path, kPlanMagic, kPlanVersion, key,
                      "record.plan_cache",
                      [&](BinaryReader &in) -> const char * {
                          ranked = in.getVector<uint16_t>();
                          for (uint16_t id : ranked)
                              if (id >= kNumTelemetryCounters)
                                  return "counter id out of range";
                          return nullptr;
                      }))
    {
        inform("PF selection: loaded ", ranked.size(),
               " ranked counters from ", path);
        return ranked;
    }

    const auto records = recordCorpus(workloads, app_ids, cfg, "pf936");
    const PfResult result = pfCounterSelection(records, pf_cfg, kMode);
    inform("PF selection: ", kNumTelemetryCounters, " -> ",
           result.afterActivityScreen, " (activity) -> ",
           result.survivors.size(), " (stddev) -> ranked ",
           result.selected.size());
    if (storeCacheFile(path, kPlanMagic, kPlanVersion, key,
                       "record.plan_cache", [&](BinaryWriter &out) {
                           out.putVector(result.selected);
                       }))
    {
        // The plan supersedes screen 1's per-record checkpoints, as
        // the whole-corpus file supersedes recordCorpus's.
        Journal::instance().retireScope(kPfScreenScope,
                                        result.screenConfigHash);
    }
    return result.selected;
}

ExperimentContext
setupExperiment(const ScaleConfig &scale, bool need_spec)
{
    obs::ScopedPhase phase("setup_experiment");
    inform("experiment setup (", ThreadPool::instance().numThreads(),
           " threads; set PSCA_THREADS to override)");
    ExperimentContext ctx;
    ctx.scale = scale;

    PfConfig pf_cfg;
    ctx.plan = makeCounterPlan(runPfSelectionPass(scale, pf_cfg));

    ctx.build.counterIds = ctx.plan.recordIds;

    // HDTR corpus.
    const auto apps = buildHdtrApps(scale.hdtrApps);
    std::vector<Workload> workloads;
    std::vector<uint32_t> app_ids;
    for (size_t a = 0; a < apps.size(); ++a) {
        const int traces = std::min(hdtrTraceCount(apps[a]),
                                    scale.hdtrTracesPerApp);
        for (int t = 0; t < traces; ++t) {
            Workload w;
            w.genome = apps[a];
            w.inputSeed = 1;
            w.traceIndex = static_cast<uint64_t>(t);
            w.lengthInstr = scale.hdtrTraceLen;
            w.name = apps[a].name + ".t" + std::to_string(t);
            workloads.push_back(std::move(w));
            app_ids.push_back(static_cast<uint32_t>(a));
        }
    }
    ctx.hdtr = recordCorpus(workloads, app_ids, ctx.build, "hdtr");

    if (need_spec) {
        ctx.specApps = buildSpecApps();
        std::vector<uint32_t> spec_app_ids;
        for (size_t a = 0; a < ctx.specApps.size(); ++a) {
            auto traces = specWorkloads(ctx.specApps[a],
                                        scale.specTraceLen,
                                        scale.specTracesPerWorkload);
            for (auto &w : traces) {
                ctx.specWorkloadsList.push_back(w);
                spec_app_ids.push_back(static_cast<uint32_t>(a));
            }
        }
        ctx.spec = recordCorpus(ctx.specWorkloadsList, spec_app_ids,
                                ctx.build, "spec");
    }
    return ctx;
}

TrainedDual
trainDual(const std::vector<TraceRecord> &records,
          const BuildConfig &build, const DualTrainOptions &opts,
          const ModelFactory &factory)
{
    obs::ScopedPhase phase("train_dual");
    TrainedDual dual;
    for (int m = 0; m < 2; ++m) {
        const CoreMode mode =
            m == 0 ? CoreMode::HighPerf : CoreMode::LowPower;
        AssemblyOptions asm_opts;
        asm_opts.granularityInstr = opts.granularityInstr;
        asm_opts.pSla = opts.pSla;
        asm_opts.telemetryMode = mode;
        asm_opts.columns = opts.columns;
        const Dataset raw =
            assembleDataset(records, asm_opts, build.intervalInstr);

        ScaledModel slot;
        {
            obs::ScopedPhase fit_phase("scaler_fit");
            slot.scaler = FeatureScaler::fit(raw);
        }
        const Dataset scaled = slot.scaler.apply(raw);
        {
            obs::ScopedPhase train_phase("model_training");
            slot.model = factory(
                scaled,
                mixSeeds(opts.seed, static_cast<uint64_t>(m) + 1));
        }
        if (opts.calibrate) {
            obs::ScopedPhase cal_phase("threshold_calibration");
            calibrateThreshold(*slot.model, scaled, opts.rsvWindow);
        }
        (m == 0 ? dual.high : dual.low) = std::move(slot);
    }
    return dual;
}

namespace {

NamedPredictor
wrapDual(std::string name, TrainedDual dual,
         std::vector<size_t> columns, uint64_t granularity)
{
    NamedPredictor np;
    np.name = name;
    np.predictor = std::make_unique<DualModelPredictor>(
        std::move(dual.high), std::move(dual.low), std::move(columns),
        granularity, std::move(name));
    return np;
}

} // namespace

ModelFactory
forestFactory(int trees, int depth)
{
    return [trees, depth](const Dataset &tune,
                          uint64_t s) -> std::unique_ptr<Model> {
        ForestConfig fc;
        fc.numTrees = trees;
        fc.maxDepth = depth;
        fc.seed = s;
        return std::make_unique<RandomForest>(tune, fc);
    };
}

NamedPredictor
makeBestRf(const ExperimentContext &ctx, double p_sla, uint64_t seed)
{
    DualTrainOptions opts;
    opts.granularityInstr = 40000;
    opts.pSla = p_sla;
    opts.columns = ctx.plan.pfColumns(12);
    opts.rsvWindow =
        ctx.sla.windowPredictions(ctx.build.core, opts.granularityInstr);
    opts.seed = seed;

    TrainedDual dual =
        trainDual(ctx.hdtr, ctx.build, opts, forestFactory(8, 8));
    return wrapDual("Best RF", std::move(dual), opts.columns,
                    opts.granularityInstr);
}

NamedPredictor
makeBestMlp(const ExperimentContext &ctx, double p_sla, uint64_t seed)
{
    DualTrainOptions opts;
    opts.granularityInstr = 50000;
    opts.pSla = p_sla;
    opts.columns = ctx.plan.pfColumns(12);
    opts.rsvWindow =
        ctx.sla.windowPredictions(ctx.build.core, opts.granularityInstr);
    opts.seed = seed;

    const int epochs = ctx.scale.mlpEpochs;
    TrainedDual dual = trainDual(
        ctx.hdtr, ctx.build, opts,
        [epochs](const Dataset &tune,
                 uint64_t s) -> std::unique_ptr<Model> {
            MlpConfig mc;
            mc.hiddenLayers = {8, 8, 4};
            mc.epochs = epochs;
            mc.seed = s;
            return trainMlp(tune, mc);
        });
    return wrapDual("Best MLP", std::move(dual), opts.columns,
                    opts.granularityInstr);
}

NamedPredictor
makeCharstar(const ExperimentContext &ctx, double p_sla, uint64_t seed)
{
    DualTrainOptions opts;
    opts.granularityInstr = 20000;
    opts.pSla = p_sla;
    opts.columns = ctx.plan.charstarColumns();
    opts.rsvWindow =
        ctx.sla.windowPredictions(ctx.build.core, opts.granularityInstr);
    opts.seed = seed;
    // CHARSTAR predates the blindspot work: no sensitivity
    // calibration beyond the default threshold.
    opts.calibrate = false;

    const int epochs = ctx.scale.mlpEpochs;
    TrainedDual dual = trainDual(
        ctx.hdtr, ctx.build, opts,
        [epochs](const Dataset &tune,
                 uint64_t s) -> std::unique_ptr<Model> {
            MlpConfig mc;
            mc.hiddenLayers = {10};
            mc.epochs = epochs;
            mc.seed = s;
            return trainMlp(tune, mc);
        });
    return wrapDual("CHARSTAR MLP", std::move(dual), opts.columns,
                    opts.granularityInstr);
}

NamedPredictor
makeSrch(const ExperimentContext &ctx, double p_sla,
         uint64_t granularity)
{
    const std::vector<size_t> columns = ctx.plan.pfColumns(
        std::min<size_t>(15, ctx.plan.pfRanked.size()));
    const int window = static_cast<int>(
        granularity / ctx.build.intervalInstr);

    std::shared_ptr<SrchModel> models[2];
    for (int m = 0; m < 2; ++m) {
        const CoreMode mode =
            m == 0 ? CoreMode::HighPerf : CoreMode::LowPower;
        AssemblyOptions asm_opts;
        asm_opts.granularityInstr = ctx.build.intervalInstr;
        asm_opts.pSla = p_sla;
        asm_opts.telemetryMode = mode;
        asm_opts.columns = columns;
        const Dataset per_interval =
            assembleDataset(ctx.hdtr, asm_opts,
                            ctx.build.intervalInstr);
        LogRegConfig lr;
        models[m] =
            std::make_shared<SrchModel>(per_interval, window, lr);
    }

    NamedPredictor np;
    np.name = "SRCH@" + std::to_string(granularity / 1000) + "k";
    np.predictor = std::make_unique<SrchPredictor>(
        models[0], models[1], columns, granularity, np.name);
    return np;
}

ClosedLoopResult
ReplayTable::simulate(size_t trace, const Workload &workload,
                      const TraceRecord &reference,
                      GatePredictor &predictor, const BuildConfig &cfg,
                      const SlaSpec &sla)
{
    Slot *slot;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        while (slots_.size() <= trace)
            slots_.emplace_back(); // references to the others stay valid
        slot = &slots_[trace];
    }
    const size_t k = predictor.granularity() / cfg.intervalInstr;
    std::unique_lock<std::mutex> lock(slot->mu);
    if (!slot->walker || slot->walker->workload() != workload ||
        slot->walker->config() != cfg)
    {
        slot->walker = std::make_unique<PassReplayer>(workload, cfg, k);
    }
    if (slot->walker->k() != k) {
        lock.unlock();
        return simulateClosedLoop(workload, reference, predictor, cfg, sla);
    }
    return simulateClosedLoop(workload, reference, predictor, cfg, sla,
                              slot->walker.get());
}

ReplayTable::Size
ReplayTable::size() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    Size size;
    for (const Slot &slot : slots_) {
        const std::lock_guard<std::mutex> slot_lock(slot.mu);
        if (slot.walker) {
            ++size.tries;
            size.bytes += slot.walker->bytes();
        }
    }
    return size;
}

SuiteResult
summarizeSuite(std::vector<ClosedLoopResult> per_trace)
{
    // Fold in per_trace order, so a subset taken in trace order sums
    // exactly as a suite run over those traces alone.
    SuiteResult suite;
    double ppw = 0.0, rsv = 0.0, pgos = 0.0, perf = 0.0, res = 0.0;
    for (const ClosedLoopResult &r : per_trace) {
        ppw += r.ppwGainPct;
        rsv += r.rsv * 100.0;
        pgos += r.pgos * 100.0;
        perf += r.perfRelativePct;
        res += r.lowResidency * 100.0;
    }
    const double n =
        std::max<double>(1.0, static_cast<double>(per_trace.size()));
    suite.ppwGainPct = ppw / n;
    suite.rsvPct = rsv / n;
    suite.pgosPct = pgos / n;
    suite.perfRelativePct = perf / n;
    suite.lowResidencyPct = res / n;
    suite.perTrace = std::move(per_trace);
    return suite;
}

SuiteResult
evaluateSuite(const ExperimentContext &ctx,
              const GatePredictor &predictor,
              const std::vector<size_t> &trace_indices, double p_sla)
{
    obs::ScopedPhase phase("evaluate_suite");
    SlaSpec sla = ctx.sla;
    sla.pSla = p_sla;

    // Each trace is a separate chip: its own core and a fresh
    // predictor clone, so the runs are independent and can fan out.
    ReplayTable *table =
        PassReplayer::bypassed() ? nullptr : ctx.replays.get();
    auto per_trace = ThreadPool::instance().parallelMap<ClosedLoopResult>(
        trace_indices.size(), [&](size_t i) {
            const size_t idx = trace_indices[i];
            const std::unique_ptr<GatePredictor> own = predictor.clone();
            if (!table)
                return simulateClosedLoop(ctx.specWorkloadsList[idx],
                                          ctx.spec[idx], *own, ctx.build,
                                          sla);
            return table->simulate(idx, ctx.specWorkloadsList[idx],
                                   ctx.spec[idx], *own, ctx.build, sla);
        });
    SuiteResult suite = summarizeSuite(std::move(per_trace));
    // Export in trace order: bit-identical at any PSCA_THREADS.
    for (const ClosedLoopResult &r : suite.perTrace)
        exportClosedLoopStats(r);

    // Headline aggregates of the most recent suite evaluation, so
    // bench run reports carry RSV/PGOS without recomputation.
    auto &reg = obs::StatRegistry::instance();
    reg.gauge("suite.ppw_gain_pct").set(suite.ppwGainPct);
    reg.gauge("suite.rsv_pct").set(suite.rsvPct);
    reg.gauge("suite.pgos_pct").set(suite.pgosPct);
    reg.gauge("suite.perf_relative_pct").set(suite.perfRelativePct);
    reg.gauge("suite.low_residency_pct").set(suite.lowResidencyPct);
    if (ctx.replays) {
        const ReplayTable::Size size = ctx.replays->size();
        reg.gauge("replay.table_tries").set(static_cast<double>(size.tries));
        reg.gauge("replay.table_bytes").set(static_cast<double>(size.bytes));
    }
    return suite;
}

NamedPredictor
makeAppSpecificRf(const ExperimentContext &ctx,
                  const std::vector<TraceRecord> &app, double p_sla,
                  uint64_t seed)
{
    DualTrainOptions opts;
    opts.granularityInstr = 40000;
    opts.pSla = p_sla;
    opts.columns = ctx.plan.pfColumns(12);
    opts.rsvWindow =
        ctx.sla.windowPredictions(ctx.build.core, opts.granularityInstr);
    opts.seed = seed;

    TrainedDual dual;
    for (int m = 0; m < 2; ++m) {
        const CoreMode mode =
            m == 0 ? CoreMode::HighPerf : CoreMode::LowPower;
        AssemblyOptions asm_opts;
        asm_opts.granularityInstr = opts.granularityInstr;
        asm_opts.pSla = p_sla;
        asm_opts.telemetryMode = mode;
        asm_opts.columns = opts.columns;

        const Dataset general_raw =
            assembleDataset(ctx.hdtr, asm_opts, ctx.build.intervalInstr);
        const Dataset app_raw =
            assembleDataset(app, asm_opts, ctx.build.intervalInstr);

        ScaledModel slot;
        slot.scaler = FeatureScaler::fit(general_raw);
        const Dataset general = slot.scaler.apply(general_raw);
        const Dataset app_scaled = slot.scaler.apply(app_raw);

        // 4 general trees + 4 app-specific trees = the Sec. 7.3
        // combined Best RF (8 trees, depth 8).
        ForestConfig fc;
        fc.numTrees = 4;
        fc.maxDepth = 8;
        fc.seed = mixSeeds(seed, static_cast<uint64_t>(m) * 2 + 1);
        RandomForest general_rf(general, fc);
        fc.seed = mixSeeds(seed, static_cast<uint64_t>(m) * 2 + 2);
        RandomForest app_rf(app_scaled, fc);

        auto trees = general_rf.takeTrees();
        auto app_trees = app_rf.takeTrees();
        for (auto &t : app_trees)
            trees.push_back(std::move(t));
        auto merged = std::make_shared<RandomForest>(std::move(trees));
        calibrateThreshold(*merged, app_scaled, opts.rsvWindow);
        slot.model = std::move(merged);
        (m == 0 ? dual.high : dual.low) = std::move(slot);
    }
    return wrapDual("App-Specific RF", std::move(dual), opts.columns,
                    opts.granularityInstr);
}

} // namespace psca
