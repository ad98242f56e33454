/**
 * @file
 * End-to-end training pipeline: the standard counter plans (PF-ranked
 * and the Eyerman-style expert set used by CHARSTAR), dual-mode model
 * training with sensitivity calibration, the five evaluation
 * predictors of Sec. 7 (SRCH at 10M and 40k, the CHARSTAR-equivalent
 * MLP at 20k, Best MLP at 50k, Best RF at 40k), and the post-silicon
 * customization flows of Sec. 7.3 (SLA relabel-and-retrain and
 * app-specific forest merging).
 */

#ifndef PSCA_CORE_PIPELINE_HH
#define PSCA_CORE_PIPELINE_HH

#include <deque>
#include <memory>
#include <mutex>

#include "core/builder.hh"
#include "core/controller.hh"
#include "core/crossval.hh"
#include "core/pf_selection.hh"
#include "core/scale.hh"
#include "ml/mlp.hh"
#include "ml/tree.hh"

namespace psca {

/** The 8 expert counters used by the CHARSTAR-equivalent baseline. */
std::vector<uint16_t> charstarCounterIds();

/**
 * The 8-counter plan of the small recordings: retired instructions,
 * stalls, L1D misses and the load-latency, MSHR, dependency-stall,
 * ready-uop and store-queue occupancy sums. `psca run/train/flash/
 * serve`, the online service's tests, the examples and the quick
 * benches record with it; their models read columns 0..7.
 */
std::vector<uint16_t> defaultCounterIds();

/**
 * Counter layout of the main recordings: the PF ranking's top
 * counters followed by any expert counters not already present.
 */
struct CounterPlan
{
    /** Registry ids recorded per interval, in column order. */
    std::vector<uint16_t> recordIds;
    /** PF-ranked registry ids (subset of recordIds). */
    std::vector<uint16_t> pfRanked;

    /** Columns of the top-r PF counters. */
    std::vector<size_t> pfColumns(size_t r) const;
    /** Columns of the CHARSTAR expert counters. */
    std::vector<size_t> charstarColumns() const;
    /** Column of one registry id (fatal if absent). */
    size_t columnOf(uint16_t id) const;
};

/** Build the plan from a PF ranking. */
CounterPlan makeCounterPlan(const std::vector<uint16_t> &pf_ranked);

/**
 * Run the full 936-counter PF recording pass on a subset of HDTR
 * applications and return the ranked counters. The ranking is cached
 * as "plan_<key>.bin" beside the corpora, keyed by the pf936 corpus's
 * key and @p pf_cfg; a hit loads neither that corpus nor runs the PF
 * scopes (DESIGN.md §9).
 */
std::vector<uint16_t> runPfSelectionPass(const ScaleConfig &scale,
                                         const PfConfig &pf_cfg);

/**
 * The schedule tries an ExperimentContext keeps between evaluateSuite()
 * calls (DESIGN.md §9): one slot per SPEC trace, holding the replay
 * walker of the first block size k a loop ran the trace at. A later
 * loop at that k is one more pass of the same walker, so a schedule an
 * earlier loop took is served without a core; a loop at another k
 * runs on a walker of its own, as a direct simulateClosedLoop() call
 * does. A slot is used only while the trace's Workload and the
 * context's BuildConfig equal, by value, those its walker was built
 * for; a loop under others replaces it. Each slot is locked for its
 * loop, so results and stats do not depend on which task came first.
 */
class ReplayTable
{
  public:
    /**
     * simulateClosedLoop() of spec trace @p trace, on its slot's walker
     * when the slot admits the loop.
     */
    ClosedLoopResult simulate(size_t trace, const Workload &workload,
                              const TraceRecord &reference,
                              GatePredictor &predictor,
                              const BuildConfig &cfg,
                              const SlaSpec &sla);

    /** Walkers kept, and the bytes of their tries. */
    struct Size
    {
        size_t tries = 0;
        size_t bytes = 0;
    };
    Size size() const;

  private:
    struct Slot
    {
        mutable std::mutex mu;
        std::unique_ptr<PassReplayer> walker;
    };

    mutable std::mutex mu_; //!< guards the growth of slots_
    std::deque<Slot> slots_;
};

/** Everything the standard experiments need from one setup call. */
struct ExperimentContext
{
    ScaleConfig scale;
    BuildConfig build;           //!< recording config (plan counters)
    CounterPlan plan;
    SlaSpec sla;
    std::vector<TraceRecord> hdtr;
    std::vector<TraceRecord> spec;
    std::vector<SpecApp> specApps;
    std::vector<Workload> specWorkloadsList; //!< parallel to spec
    /**
     * evaluateSuite()'s schedule tries. Armed fault sites and
     * PSCA_SIM_MEMO=0 bypass it; null (a moved-from context) too.
     */
    std::unique_ptr<ReplayTable> replays =
        std::make_unique<ReplayTable>();
};

/**
 * One-stop setup: PF pass, counter plan, HDTR + SPEC recordings (all
 * disk-cached). Every bench binary starts here.
 *
 * @param need_spec Also record the SPEC test corpus.
 */
ExperimentContext setupExperiment(const ScaleConfig &scale,
                                  bool need_spec = true);

/** Options for dual-mode model training. */
struct DualTrainOptions
{
    uint64_t granularityInstr = 40000;
    double pSla = 0.90;
    std::vector<size_t> columns;
    bool calibrate = true;
    uint64_t rsvWindow = 1600;
    uint64_t seed = 1;
};

/** Train one scaler+model pair per telemetry mode. */
struct TrainedDual
{
    ScaledModel high;
    ScaledModel low;
};

TrainedDual trainDual(const std::vector<TraceRecord> &records,
                      const BuildConfig &build,
                      const DualTrainOptions &opts,
                      const ModelFactory &factory);

/**
 * The standard RandomForest ModelFactory (@p trees × depth @p depth)
 * shared by the Best-RF pipeline, the CLI trainer, and the serve
 * layer's background retrains.
 */
ModelFactory forestFactory(int trees, int depth);

/** Named predictor bundle for the evaluation benches. */
struct NamedPredictor
{
    std::string name;
    std::unique_ptr<GatePredictor> predictor;
};

/** Best RF (8 trees depth 8, PF-12 counters, 40k interval). */
NamedPredictor makeBestRf(const ExperimentContext &ctx, double p_sla,
                          uint64_t seed = 11);

/** Best MLP (3 layers 8/8/4, PF-12 counters, 50k interval). */
NamedPredictor makeBestMlp(const ExperimentContext &ctx, double p_sla,
                           uint64_t seed = 12);

/** CHARSTAR-equivalent (1 layer, 10 filters, expert-8, 20k). */
NamedPredictor makeCharstar(const ExperimentContext &ctx, double p_sla,
                            uint64_t seed = 13);

/** SRCH (PF-15 counters, 10-bucket histograms) at a granularity. */
NamedPredictor makeSrch(const ExperimentContext &ctx, double p_sla,
                        uint64_t granularity);

/** Aggregate closed-loop results over a set of traces. */
struct SuiteResult
{
    double ppwGainPct = 0.0;
    double rsvPct = 0.0;
    double pgosPct = 0.0;
    double perfRelativePct = 0.0;
    double lowResidencyPct = 0.0;
    std::vector<ClosedLoopResult> perTrace;
};

/**
 * Fold per-trace closed-loop results into a suite: unweighted means
 * summed in @p per_trace order, which the result keeps as perTrace.
 */
SuiteResult summarizeSuite(std::vector<ClosedLoopResult> per_trace);

/**
 * Evaluate one predictor closed-loop across traces; aggregates are
 * unweighted means across traces, as in the paper's suite averages.
 * Traces run concurrently on the thread pool, each on a
 * predictor.clone(); results, sums and registry exports follow
 * trace_indices order, so the outcome is the same at any
 * PSCA_THREADS. The predictor itself is never run. The loops run
 * through ctx.replays, whose size lands in the replay.table_tries and
 * replay.table_bytes gauges.
 */
SuiteResult evaluateSuite(const ExperimentContext &ctx,
                          const GatePredictor &predictor,
                          const std::vector<size_t> &trace_indices,
                          double p_sla);

/**
 * Post-silicon app-specific retraining (Sec. 7.3): combine a 4-tree
 * forest trained on HDTR with a 4-tree forest trained on the target
 * application's other workloads.
 */
NamedPredictor makeAppSpecificRf(const ExperimentContext &ctx,
                                 const std::vector<TraceRecord> &app,
                                 double p_sla, uint64_t seed = 15);

} // namespace psca

#endif // PSCA_CORE_PIPELINE_HH
