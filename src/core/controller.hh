/**
 * @file
 * The closed adaptation loop (Figs. 1 and 3): during execution, the
 * telemetry system snapshots counters every 10k instructions; at each
 * prediction-granularity boundary the microcontroller runs the
 * adaptation model appropriate to the current cluster configuration
 * on the just-finished block's (cycle-normalized) counters, and the
 * resulting decision is applied two blocks later — one full block of
 * slack for transport and inference.
 *
 * Two predictor adapters cover the model families: DualModelPredictor
 * wraps a pair of (scaler, model) for the high-perf/low-power
 * telemetry distributions; SrchPredictor wraps the Dubach-style
 * histogram models that consume the block's raw sub-interval rows.
 */

#ifndef PSCA_CORE_CONTROLLER_HH
#define PSCA_CORE_CONTROLLER_HH

#include <memory>
#include <optional>
#include <string>

#include "core/builder.hh"
#include "core/metrics.hh"
#include "core/sla.hh"
#include "ml/model.hh"
#include "ml/srch.hh"
#include "sim/core.hh"

namespace psca {

/** Controller-facing decision interface. */
class GatePredictor
{
  public:
    virtual ~GatePredictor() = default;

    /** Prediction granularity in instructions. */
    virtual uint64_t granularity() const = 0;

    /**
     * Decide the configuration two blocks ahead.
     *
     * @param sub_rows Raw counter-delta rows of the finished block's
     *        10k sub-intervals.
     * @param sub_cycles Cycles of each sub-interval.
     * @param mode Cluster configuration the block executed in.
     * @return true to gate (low-power mode).
     */
    virtual bool decide(const std::vector<const float *> &sub_rows,
                        const std::vector<float> &sub_cycles,
                        CoreMode mode) = 0;

    /** Firmware ops per prediction, for budget checking. */
    virtual uint32_t opsPerInference() const = 0;

    virtual std::string name() const = 0;

    /**
     * A fresh instance for one run: the same models and settings,
     * none of this instance's per-run state, so a run on the clone
     * starts like a run on a separate chip. Immutable models are
     * shared, not copied, so concurrent clones can run on different
     * threads.
     */
    virtual std::unique_ptr<GatePredictor> clone() const = 0;
};

/**
 * The controller's block front end (Sec. 4.1): sum the selected record
 * columns over a block's sub-interval rows and divide by the block's
 * cycles. Native predictors pass size_t columns, firmware packages
 * their stored uint32_t ones.
 */
template <typename Col>
std::vector<float>
blockFeatures(const std::vector<const float *> &rows,
              const std::vector<float> &cycles,
              const std::vector<Col> &columns)
{
    std::vector<float> agg(columns.size(), 0.0f);
    double total = 0.0;
    for (size_t t = 0; t < rows.size(); ++t) {
        for (size_t j = 0; j < columns.size(); ++j)
            agg[j] += rows[t][columns[j]];
        total += cycles[t];
    }
    const float inv =
        total > 0.0 ? static_cast<float>(1.0 / total) : 0.0f;
    for (auto &v : agg)
        v *= inv;
    return agg;
}

/**
 * Input sanitation of z-scaled model inputs (always on): faulted
 * telemetry can hand the model NaN/Inf or values far outside the
 * trained distribution. A non-finite value vetoes the decision (false:
 * the caller fails safe to high-performance mode) and counts
 * controller.sanitize_vetoes; finite values beyond a generous z-score
 * envelope no healthy snapshot reaches are clamped to it and counted
 * in controller.sanitized_inputs.
 */
bool sanitizeScaled(std::vector<float> &scaled);

/** One mode's scaler+model slot. */
struct ScaledModel
{
    FeatureScaler scaler;
    std::shared_ptr<Model> model;
};

/**
 * Standard dual-model predictor: per-mode z-scaled aggregate counters
 * into a per-mode model (Sec. 4.1 trains one model per telemetry
 * mode).
 */
class DualModelPredictor : public GatePredictor
{
  public:
    /**
     * @param columns Record-column indices forming the model inputs.
     */
    DualModelPredictor(ScaledModel high, ScaledModel low,
                       std::vector<size_t> columns,
                       uint64_t granularity, std::string name);

    uint64_t granularity() const override { return granularity_; }
    bool decide(const std::vector<const float *> &sub_rows,
                const std::vector<float> &sub_cycles,
                CoreMode mode) override;
    uint32_t opsPerInference() const override;
    std::string name() const override { return name_; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<DualModelPredictor>(*this);
    }

    const ScaledModel &highSlot() const { return high_; }
    const ScaledModel &lowSlot() const { return low_; }

  private:
    ScaledModel high_;
    ScaledModel low_;
    std::vector<size_t> columns_;
    uint64_t granularity_;
    std::string name_;
};

/** SRCH predictor: per-mode histogram models on raw sub-rows. */
class SrchPredictor : public GatePredictor
{
  public:
    SrchPredictor(std::shared_ptr<SrchModel> high,
                  std::shared_ptr<SrchModel> low,
                  std::vector<size_t> columns, uint64_t granularity,
                  std::string name);

    uint64_t granularity() const override { return granularity_; }
    bool decide(const std::vector<const float *> &sub_rows,
                const std::vector<float> &sub_cycles,
                CoreMode mode) override;
    uint32_t opsPerInference() const override;
    std::string name() const override { return name_; }
    std::unique_ptr<GatePredictor> clone() const override
    {
        return std::make_unique<SrchPredictor>(*this);
    }

  private:
    std::shared_ptr<SrchModel> high_;
    std::shared_ptr<SrchModel> low_;
    std::vector<size_t> columns_;
    uint64_t granularity_;
    std::string name_;
};

/**
 * Replays one workload block by block for closed-loop control: the
 * per-block simulate / snapshot / fault-inject / account machinery
 * behind PassReplayer, the walker of runClosedLoop() and of the serve
 * loop (src/serve). The caller picks each block's cluster mode (the
 * applied decision) and receives the controller's telemetry view of
 * the finished block; ground-truth deltas feed energy/performance
 * accounting regardless of injected telemetry faults, exactly as in
 * the batch loop. Each sub-interval is one IntervalReplay::step(),
 * the recorder's replay.
 *
 * Determinism: fault draws are keyed by the workload's stable
 * identity mixed with the sub-interval index, so a given
 * PSCA_FAULTS + PSCA_FAULT_SEED produces a bit-identical fault
 * sequence at any PSCA_THREADS. With no fault site armed a block's
 * view and adds are a pure function of the mode schedule from the
 * start of the replay, which is what lets PassReplayer store and
 * serve them.
 */
class BlockReplayer
{
  public:
    /**
     * @param k Sub-intervals per block (granularity / interval).
     */
    BlockReplayer(const Workload &workload, const BuildConfig &cfg,
                  size_t k);
    // rowPtrs() points into this object's own rows.
    BlockReplayer(const BlockReplayer &) = delete;
    BlockReplayer &operator=(const BlockReplayer &) = delete;

    /**
     * Simulate the next block in @p mode. The controller's
     * (fault-injected) telemetry view lands in subRows()/subCycles();
     * per-interval energy/perf accounting accumulates into @p acc.
     */
    void runBlock(CoreMode mode, PpwAccumulator &acc);

    /** Telemetry view of the last block's sub-intervals. */
    const std::vector<std::vector<float>> &subRows() const
    {
        return subRows_;
    }
    const std::vector<float> &subCycles() const { return subCycles_; }

    /**
     * subRows() as the row-pointer list predictors consume. Built once:
     * the rows never reallocate, so a block costs no allocation.
     */
    const std::vector<const float *> &rowPtrs() const
    {
        return rowPtrs_;
    }

    /** The last block's per-interval accumulator adds, in order. */
    const std::vector<IntervalAdd> &lastAdds() const { return adds_; }

  private:
    BuildConfig cfg_;
    size_t k_;
    bool faultsOn_;
    uint64_t traceKey_;
    IntervalReplay replay_;
    std::vector<uint64_t> view_;
    std::vector<std::vector<float>> subRows_;
    std::vector<const float *> rowPtrs_;
    std::vector<float> subCycles_;
    std::vector<IntervalAdd> adds_;
    std::vector<float> carryRow_;
    float carryCycles_ = 0.0f;
    uint64_t block_ = 0;
};

/**
 * The closed-loop replay walker (DESIGN.md §9): passes over one
 * workload, each from the top of the trace on a fresh core, served
 * from an in-memory schedule trie. A block's view and accounting are a
 * pure function of the mode path since the pass start, so a node holds
 * one block's result after its path: the k telemetry rows and the k
 * PpwAccumulator adds, whose cycles are the view's cycles. The
 * all-HighPerf spine is the pass's reference record: its nodes hold no
 * rows, and no adds until a replay or the memo computed them; until
 * then a served spine block owes them.
 *
 * A served block's adds are replayed into the caller's accumulator in
 * their original order, so the sums are bit-identical to a replay. On
 * the first miss of a pass a BlockReplayer catches up along the served
 * path, each block checked bit-equal to its node (the one premise
 * check) and owed adds paid, then runs live and appends nodes. Served
 * blocks simulate nothing, so sim.* counts only real simulation. An
 * armed fault site (a faulted view is not a function of the schedule)
 * or PSCA_SIM_MEMO=0 bypasses the trie: a plain replay from block 0.
 * The trie lives as long as the object (an ExperimentContext's
 * ReplayTable keeps it across suites) and stops at kMaxNodes nodes;
 * the core lives for one pass.
 */
class PassReplayer
{
  public:
    /**
     * Node cap per trie. A node costs 16 B plus k adds of 16 B and, off
     * the spine, k rows of 4 B per counter: 112 B at k = 2 with the
     * CLI's eight counters; 256 B at k = 2 and 496 B at k = 4 with the
     * quick campaign's 26 (spine nodes 48 B and 80 B).
     */
    static constexpr size_t kMaxNodes = 8192;

    /**
     * @param k Sub-intervals per block (granularity / interval).
     * @param memo_hash The workload's memoTraceHash() under @p cfg,
     *        when the caller already has it; otherwise the first memo
     *        settle computes it.
     */
    PassReplayer(const Workload &workload, const BuildConfig &cfg,
                 size_t k,
                 std::optional<uint64_t> memo_hash = std::nullopt);

    /**
     * Whether passes begun now bypass the trie: a fault site is armed
     * or PSCA_SIM_MEMO=0.
     */
    static bool bypassed();

    /**
     * Begin a pass on a fresh core; the last one must be settled.
     *
     * @param reference The workload's record under the config, the
     *        pass's spine; it must outlive the pass.
     */
    void startPass(const TraceRecord &reference);

    /** Serve or simulate the pass's next block in @p mode. */
    void runBlock(CoreMode mode, PpwAccumulator &acc);

    /**
     * Pay the pass's owed adds into @p acc, in block order: from the
     * sim memo's HighPerf entry, or on a miss by the catch-up replay.
     * Call it before reading @p acc; the pass may go on afterwards.
     */
    void settle(PpwAccumulator &acc);

    /**
     * settle(), then free the pass's core and trim the trie's arenas
     * to size: only the trie stays.
     */
    void endPass(PpwAccumulator &acc);

    /**
     * Telemetry view of the last block, as BlockReplayer's; valid until
     * the next runBlock().
     */
    const std::vector<const float *> &rowPtrs() const
    {
        return rowPtrs_;
    }
    const std::vector<float> &subCycles() const { return subCycles_; }

    /** Nodes in the trie (the pass-start root excluded). */
    size_t nodes() const { return nodes_.size() - 1; }

    /** Bytes the trie's arenas hold. */
    size_t bytes() const;

    /** Stable fault-stream identity of this workload. */
    uint64_t traceKey() const { return traceKey_; }

    const Workload &workload() const { return workload_; }
    const BuildConfig &config() const { return cfg_; }
    size_t k() const { return k_; }

  private:
    static constexpr uint32_t kNone = UINT32_MAX;

    struct Node
    {
        uint32_t child[2] = {kNone, kNone}; //!< by CoreMode
        uint32_t rows = kNone; //!< row block in rows_; none on the spine
        CoreMode mode = CoreMode::HighPerf;
        bool owed = false; //!< adds not computed yet (spine only)
    };

    void simulate(CoreMode mode, PpwAccumulator &acc);
    /** Replay the served path live, paying owed adds into @p acc. */
    void catchUp(PpwAccumulator &acc);
    bool settleFromMemo(PpwAccumulator &acc); //!< false on a miss
    /**
     * The premise check: block @p b, replayed or from the memo, equals
     * what the pass showed for it. An owed node takes @p adds.
     */
    void confirm(size_t b, uint32_t node,
                 const std::vector<const float *> &rows,
                 const std::vector<float> &cycles,
                 const std::vector<IntervalAdd> &adds);
    /** Append a child of the cursor; an off-spine one gets rows. */
    uint32_t addChild(CoreMode mode, bool spine);
    IntervalAdd *addsOf(uint32_t node)
    {
        return adds_.data() + node * k_;
    }
    float *rowsOf(const Node &node)
    {
        return rows_.data() + node.rows * k_ * cfg_.counterIds.size();
    }
    void showNode(size_t b, uint32_t node);

    Workload workload_;
    BuildConfig cfg_;
    size_t k_;
    uint64_t traceKey_;
    std::optional<uint64_t> memoHash_; //!< memoTraceHash, given or on first use
    const TraceRecord *ref_ = nullptr; //!< this pass's spine
    bool bypass_ = false;
    size_t owed_ = 0;            //!< trailing path_ blocks owing adds
    std::vector<Node> nodes_;    //!< [0] is the pass-start root
    std::vector<float> rows_;    //!< k x counters per off-spine node
    std::vector<IntervalAdd> adds_; //!< k per node
    std::vector<uint32_t> path_; //!< nodes served this pass
    uint32_t cursor_ = 0;        //!< node of the last block
    std::unique_ptr<BlockReplayer> live_;
    std::vector<const float *> rowPtrs_;
    std::vector<float> subCycles_;
};

/** Outcome of one closed-loop adaptive run. */
struct ClosedLoopResult
{
    /** PPW gain over the non-adaptive high-performance run, percent. */
    double ppwGainPct = 0.0;
    /** Average performance relative to high-perf mode, percent. */
    double perfRelativePct = 100.0;
    /** Fraction of blocks executed in low-power mode. */
    double lowResidency = 0.0;
    /** Offline-quality metrics of the predictions actually made. */
    ConfusionCounts confusion;
    double pgos = 0.0;
    double rsv = 0.0;
    uint64_t numPredictions = 0;
    uint64_t modeSwitches = 0;
    /** Microcontroller ops consumed by inference. */
    uint64_t ucOps = 0;
};

/**
 * Run one workload under predictive cluster gating.
 *
 * @param workload The trace to execute.
 * @param reference Its dual-mode record (ground-truth labels and the
 *        non-adaptive baseline for PPW).
 * @param predictor The adaptation model pair.
 * @param cfg Recording configuration. It must be the reference's:
 *        the loop is one PassReplayer pass, so until it first gates
 *        the predictor reads the reference's high-performance rows,
 *        and a loop that never gates settles from the memo
 *        (DESIGN.md §9); a mismatch found there is fatal.
 * @param sla SLA used for labels and RSV windows.
 */
ClosedLoopResult runClosedLoop(const Workload &workload,
                               const TraceRecord &reference,
                               GatePredictor &predictor,
                               const BuildConfig &cfg,
                               const SlaSpec &sla);

/**
 * runClosedLoop() without exportClosedLoopStats(). During the run the
 * registry sees only order-independent updates (counter adds and
 * histogram samples), so concurrent runs leave the same stats as
 * serial ones; evaluateSuite() exports each result afterwards in
 * trace order.
 *
 * @param walker The walker to run the loop's pass on, whose trie it
 *        keeps; it must be this workload's under @p cfg at the
 *        predictor's k. Null runs it on a walker of its own.
 */
ClosedLoopResult simulateClosedLoop(const Workload &workload,
                                    const TraceRecord &reference,
                                    GatePredictor &predictor,
                                    const BuildConfig &cfg,
                                    const SlaSpec &sla,
                                    PassReplayer *walker = nullptr);

/**
 * Publish one run's outcome to the stat registry: the prediction and
 * transition counters, the controller.confusion family (whose gauges
 * derive from running totals, so export order matters), and the
 * controller.last_rsv / last_pgos gauges.
 */
void exportClosedLoopStats(const ClosedLoopResult &result);

} // namespace psca

#endif // PSCA_CORE_CONTROLLER_HH
