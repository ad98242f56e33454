#include "core/controller.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <optional>

#include "common/fault.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "sim/core.hh"
#include "sim/memo.hh"
#include "uc/budget.hh"

namespace psca {

bool
sanitizeScaled(std::vector<float> &scaled)
{
    constexpr float kMaxAbsZ = 24.0f;
    size_t clamped = 0;
    for (auto &z : scaled) {
        if (!std::isfinite(z)) {
            obs::StatRegistry::instance()
                .counter("controller.sanitize_vetoes")
                .add();
            return false;
        }
        if (z > kMaxAbsZ) {
            z = kMaxAbsZ;
            ++clamped;
        } else if (z < -kMaxAbsZ) {
            z = -kMaxAbsZ;
            ++clamped;
        }
    }
    if (clamped > 0) {
        obs::StatRegistry::instance()
            .counter("controller.sanitized_inputs")
            .add(clamped);
    }
    return true;
}

DualModelPredictor::DualModelPredictor(ScaledModel high,
                                       ScaledModel low,
                                       std::vector<size_t> columns,
                                       uint64_t granularity,
                                       std::string name)
    : high_(std::move(high)), low_(std::move(low)),
      columns_(std::move(columns)), granularity_(granularity),
      name_(std::move(name))
{}

bool
DualModelPredictor::decide(const std::vector<const float *> &sub_rows,
                           const std::vector<float> &sub_cycles,
                           CoreMode mode)
{
    const ScaledModel &slot =
        mode == CoreMode::HighPerf ? high_ : low_;
    const std::vector<float> agg =
        blockFeatures(sub_rows, sub_cycles, columns_);
    std::vector<float> scaled(agg.size());
    slot.scaler.applyRow(agg.data(), scaled.data());
    if (!sanitizeScaled(scaled))
        return false;
    return slot.model->predict(scaled.data());
}

uint32_t
DualModelPredictor::opsPerInference() const
{
    return std::max(high_.model->opsPerInference(),
                    low_.model->opsPerInference());
}

SrchPredictor::SrchPredictor(std::shared_ptr<SrchModel> high,
                             std::shared_ptr<SrchModel> low,
                             std::vector<size_t> columns,
                             uint64_t granularity, std::string name)
    : high_(std::move(high)), low_(std::move(low)),
      columns_(std::move(columns)), granularity_(granularity),
      name_(std::move(name))
{}

bool
SrchPredictor::decide(const std::vector<const float *> &sub_rows,
                      const std::vector<float> &sub_cycles,
                      CoreMode mode)
{
    const auto &model = mode == CoreMode::HighPerf ? high_ : low_;

    // Build per-sub-interval normalized rows in model column order.
    std::vector<std::vector<float>> rows(sub_rows.size());
    std::vector<const float *> row_ptrs;
    for (size_t t = 0; t < sub_rows.size(); ++t) {
        rows[t].resize(columns_.size());
        const float inv = sub_cycles[t] > 0.0f
            ? 1.0f / sub_cycles[t]
            : 0.0f;
        for (size_t j = 0; j < columns_.size(); ++j)
            rows[t][j] = sub_rows[t][columns_[j]] * inv;
        row_ptrs.push_back(rows[t].data());
    }

    std::vector<float> features(model->encoder().numFeatures());
    model->encoder().encode(row_ptrs, features.data());
    // Same fail-safe as DualModelPredictor: a non-finite feature
    // (corrupt telemetry) vetoes to high-performance mode.
    for (const float f : features) {
        if (!std::isfinite(f)) {
            obs::StatRegistry::instance()
                .counter("controller.sanitize_vetoes")
                .add();
            return false;
        }
    }
    return model->predict(features.data());
}

uint32_t
SrchPredictor::opsPerInference() const
{
    return std::max(high_->opsPerInference(),
                    low_->opsPerInference());
}

BlockReplayer::BlockReplayer(const Workload &workload,
                             const BuildConfig &cfg, size_t k)
    : cfg_(cfg), k_(k),
      // Fault injection corrupts only the controller's telemetry
      // view (subRows_/subCycles_); ground-truth deltas still feed
      // energy and performance accounting. Draws are keyed by the
      // workload's deterministic identity mixed with the sub-interval
      // index, so fault sequences are identical at any thread count.
      faultsOn_(FaultRegistry::instance().anyEnabled()),
      traceKey_(mixSeeds(
          workload.genome.seed,
          mixSeeds(workload.inputSeed, workload.traceIndex))),
      replay_(workload, cfg, CoreMode::HighPerf),
      power_(cfg.power, cfg.core.clockGhz),
      subRows_(k, std::vector<float>(cfg.counterIds.size())),
      subCycles_(k), adds_(k), carryRow_(cfg.counterIds.size(), 0.0f)
{
    rowPtrs_.reserve(k_);
    for (const std::vector<float> &row : subRows_)
        rowPtrs_.push_back(row.data());
}

BlockReplayer::BlockStats
BlockReplayer::runBlock(CoreMode mode, PpwAccumulator &acc)
{
    auto &reg = obs::StatRegistry::instance();
    replay_.setMode(mode);
    const CoreMode block_mode = replay_.mode();
    const uint64_t b = block_++;
    BlockStats totals;

    for (size_t t = 0; t < k_; ++t) {
        const IntervalStats stats = replay_.step();
        totals.instructions += stats.instructions;
        totals.cycles += stats.cycles;
        const std::vector<uint64_t> &delta = replay_.delta();
        bool dropped = false;
        if (faultsOn_) {
            view_ = delta;
            dropped = applyTelemetryFaults(
                view_, mixSeeds(traceKey_, b * k_ + t));
        }
        if (dropped) {
            // Snapshot lost in flight: the controller reuses its
            // previous view of this lane rather than reading
            // garbage (zeros at the very start of the run).
            subRows_[t] = carryRow_;
            subCycles_[t] = carryCycles_;
            reg.counter("controller.snapshot_carryforwards").add();
        } else {
            const auto &src = faultsOn_ ? view_ : delta;
            for (size_t j = 0; j < cfg_.counterIds.size(); ++j)
                subRows_[t][j] =
                    static_cast<float>(src[cfg_.counterIds[j]]);
            subCycles_[t] = static_cast<float>(stats.cycles);
            if (faultsOn_) {
                carryRow_ = subRows_[t];
                carryCycles_ = subCycles_[t];
            }
        }
        IntervalAdd &add = adds_[t];
        add = {stats.instructions, stats.cycles,
               power_.intervalEnergyNj(delta, stats.cycles, block_mode)};
        acc.add(add.instructions, add.cycles, add.energyNj);
    }
    return totals;
}

PassReplayer::PassReplayer(const Workload &workload,
                           const BuildConfig &cfg, size_t k)
    : workload_(workload), cfg_(cfg), k_(k), nodes_(1), rowPtrs_(k),
      subCycles_(k)
{}

void
PassReplayer::startPass()
{
    // Same condition as BlockReplayer::faultsOn_: an armed site makes
    // the view depend on more than the schedule.
    bypass_ = FaultRegistry::instance().anyEnabled() ||
        !SimMemo::instance().enabled();
    live_.reset();
    path_.clear();
    cursor_ = 0;
}

void
PassReplayer::runBlock(CoreMode mode, PpwAccumulator &acc)
{
    const uint32_t next = live_ || bypass_
        ? kNone
        : nodes_[cursor_].child[static_cast<size_t>(mode)];
    if (next == kNone) {
        simulate(mode, acc);
        return;
    }
    const Node &node = nodes_[next];
    for (const BlockReplayer::IntervalAdd &a : node.adds)
        acc.add(a.instructions, a.cycles, a.energyNj);
    showNode(node);
    cursor_ = next;
    path_.push_back(next);
    obs::StatRegistry::instance()
        .counter("replay.trie_served_blocks")
        .add();
}

namespace {

template <typename T>
bool
sameBits(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

} // namespace

void
PassReplayer::simulate(CoreMode mode, PpwAccumulator &acc)
{
    obs::ScopedPhase phase("block_replay");
    auto &reg = obs::StatRegistry::instance();
    if (!live_) {
        // Catch up along the served path. Its adds already reached
        // @p acc, so the replay accounts into a scratch accumulator;
        // every block must reproduce its node bit for bit.
        live_ = std::make_unique<BlockReplayer>(workload_, cfg_, k_);
        PpwAccumulator scratch;
        for (size_t b = 0; b < path_.size(); ++b) {
            const Node &node = nodes_[path_[b]];
            live_->runBlock(node.mode, scratch);
            const Node replayed = liveNode(node.mode);
            PSCA_ASSERT(sameBits(replayed.rows, node.rows) &&
                            sameBits(replayed.cycles, node.cycles) &&
                            sameBits(replayed.adds, node.adds),
                        "block ", b, " of a pass over '", workload_.name,
                        "' differs from its schedule-trie node");
        }
        if (!path_.empty())
            reg.counter("replay.trie_catchup_blocks").add(path_.size());
    }
    live_->runBlock(mode, acc);

    if (bypass_ || cursor_ == kNone || nodes() >= kMaxNodes) {
        // Not recorded: the rest of this pass stays live.
        cursor_ = kNone;
        rowPtrs_ = live_->rowPtrs();
        subCycles_ = live_->subCycles();
        return;
    }
    const auto idx = static_cast<uint32_t>(nodes_.size());
    nodes_[cursor_].child[static_cast<size_t>(mode)] = idx;
    nodes_.push_back(liveNode(mode));
    cursor_ = idx;
    showNode(nodes_.back());
    reg.gauge("replay.trie_nodes").set(static_cast<double>(nodes()));
}

PassReplayer::Node
PassReplayer::liveNode(CoreMode mode) const
{
    Node node;
    node.mode = mode;
    node.rows.reserve(k_ * cfg_.counterIds.size());
    for (const std::vector<float> &row : live_->subRows())
        node.rows.insert(node.rows.end(), row.begin(), row.end());
    node.cycles = live_->subCycles();
    node.adds = live_->lastAdds();
    return node;
}

void
PassReplayer::showNode(const Node &node)
{
    // Node rows are separate heap blocks, so growing nodes_ leaves
    // these pointers valid.
    const size_t n_ctr = cfg_.counterIds.size();
    for (size_t t = 0; t < k_; ++t)
        rowPtrs_[t] = node.rows.data() + t * n_ctr;
    subCycles_ = node.cycles;
}

namespace {

/**
 * Premise check of the deferred high-performance prefix: the telemetry
 * view (@p row, @p cycles) of interval @p t, as the replayer or the
 * memo produces it, is bit-equal to the reference's HighPerf record,
 * which the predictor consumed in its place. The recorder and the
 * replayer share IntervalReplay, so only a reference recorded under
 * another BuildConfig can fail it.
 */
void
checkAgainstRecord(const TraceRecord &reference, size_t t,
                   const float *row, float cycles)
{
    PSCA_ASSERT(cycles == reference.cyclesHigh[t] &&
                    std::memcmp(row, reference.rowHigh(t),
                                reference.numCounters * sizeof(float)) ==
                        0,
                "interval ", t, " of '", reference.name,
                "' differs from its reference record: the reference "
                "was not recorded under this BuildConfig");
}

/**
 * Settle the accounting of a loop that never gated from the memo's
 * full-width HighPerf deltas: per interval exactly the add that
 * BlockReplayer::runBlock() would make, in the same order.
 *
 * @param n Intervals to settle (whole blocks).
 * @return false on a memo miss (or with the memo disabled); @p acc is
 *         then untouched.
 */
bool
settleFromMemo(const Workload &workload, const TraceRecord &reference,
               const BuildConfig &cfg, size_t n, PpwAccumulator &acc)
{
    const SimMemo &memo = SimMemo::instance();
    if (!memo.enabled())
        return false;
    const MemoKey key{memoTraceHash(workload, cfg),
                      coreConfigHash(cfg.core), CoreMode::HighPerf};
    MemoIntervals intervals;
    if (!memo.lookup(key, intervals) ||
        intervals.size() != reference.numIntervals())
    {
        return false;
    }

    const PowerModel power(cfg.power, cfg.core.clockGhz);
    const uint16_t cycles_idx = CounterRegistry::index(Ctr::Cycles);
    std::vector<float> row(cfg.counterIds.size());
    for (size_t t = 0; t < n; ++t) {
        const std::vector<uint64_t> &delta = intervals[t];
        const uint64_t cyc = delta[cycles_idx];
        for (size_t j = 0; j < row.size(); ++j)
            row[j] = static_cast<float>(delta[cfg.counterIds[j]]);
        checkAgainstRecord(reference, t, row.data(),
                           static_cast<float>(cyc));
        acc.add(cfg.intervalInstr, cyc,
                power.intervalEnergyNj(delta, cyc, CoreMode::HighPerf));
    }
    obs::StatRegistry::instance().counter("memo.closed_loop_settles").add();
    return true;
}

} // namespace

ClosedLoopResult
simulateClosedLoop(const Workload &workload, const TraceRecord &reference,
                   GatePredictor &predictor, const BuildConfig &cfg,
                   const SlaSpec &sla)
{
    PSCA_ASSERT(predictor.granularity() % cfg.intervalInstr == 0,
                "granularity must be a multiple of the interval");
    PSCA_ASSERT(reference.numCounters == cfg.counterIds.size(),
                "reference '", reference.name, "' has ",
                reference.numCounters, " counters, the config ",
                cfg.counterIds.size());
    const size_t k = predictor.granularity() / cfg.intervalInstr;
    const size_t blocks = reference.numIntervals() / k;

    ClosedLoopResult result;
    if (blocks == 0)
        return result;

    obs::ScopedPhase phase("closed_loop_replay");
    auto &reg = obs::StatRegistry::instance();
    obs::Histogram &decision_lat =
        reg.histogram("controller.decision_latency_ns");
    obs::Histogram &ops_hist =
        reg.histogram("controller.ops_per_inference");
    obs::Counter &gate_ctr = reg.counter("controller.gate_decisions");
    obs::Counter &stay_ctr =
        reg.counter("controller.nogate_decisions");

    const auto labels = blockLabels(reference, k, sla.pSla);
    const UcBudget budget;
    const uint64_t ops_budget =
        budget.opsBudget(predictor.granularity());
    reg.gauge("controller.ops_budget")
        .set(static_cast<double>(ops_budget));
    if (predictor.opsPerInference() > ops_budget) {
        reg.counter("controller.budget_overruns").add();
        warn("predictor '", predictor.name(), "' needs ",
             predictor.opsPerInference(), " ops but the ",
             predictor.granularity(), "-instruction budget is ",
             ops_budget);
    }

    std::vector<uint8_t> predictions(blocks, 0); // applied config
    const FaultSite &miss_site = FAULT_SITE("uc.deadline_miss");

    PpwAccumulator adaptive;
    uint64_t low_blocks = 0;
    // Decisions waiting to be applied (decision at block b applies
    // at block b+2).
    std::vector<uint8_t> pending(blocks + 2, 0);

    // Deferred high-performance prefix (DESIGN.md §9): until the first
    // LowPower block the core would replay exactly the reference's
    // HighPerf run, so the predictor reads those blocks from the
    // record and the replayer is built only when the loop first
    // gates. It then replays the served blocks in HighPerf, in order
    // (PpwAccumulator sums stay bit-identical), before going live.
    // Armed fault sites corrupt the live view, so they build it at
    // block 0.
    std::optional<BlockReplayer> replayer;
    auto start_replayer = [&](size_t catch_up) {
        replayer.emplace(workload, cfg, k);
        for (size_t b = 0; b < catch_up; ++b) {
            replayer->runBlock(CoreMode::HighPerf, adaptive);
            for (size_t t = 0; t < k; ++t)
                checkAgainstRecord(reference, b * k + t,
                                   replayer->subRows()[t].data(),
                                   replayer->subCycles()[t]);
        }
    };
    if (FaultRegistry::instance().anyEnabled())
        start_replayer(0);
    std::vector<const float *> record_rows(k);
    std::vector<float> record_cycles(k);
    size_t served = 0;

    for (size_t b = 0; b < blocks; ++b) {
        const CoreMode block_mode = pending[b]
            ? CoreMode::LowPower
            : CoreMode::HighPerf;
        predictions[b] = pending[b];
        low_blocks += pending[b];

        if (!replayer && block_mode == CoreMode::LowPower)
            start_replayer(b);
        const std::vector<const float *> *row_ptrs = &record_rows;
        const std::vector<float> *sub_cycles = &record_cycles;
        if (replayer) {
            replayer->runBlock(block_mode, adaptive);
            row_ptrs = &replayer->rowPtrs();
            sub_cycles = &replayer->subCycles();
        } else {
            for (size_t t = 0; t < k; ++t) {
                record_rows[t] = reference.rowHigh(b * k + t);
                record_cycles[t] = reference.cyclesHigh[b * k + t];
            }
            ++served;
        }

        // Microcontroller inference for block b+2. A deadline miss
        // (injected, or deterministic-on-overrun when the site's
        // param >= 1 and the model's static ops exceed the budget)
        // means the result arrives too late to matter: the
        // controller carries the most recently scheduled decision
        // forward instead of consuming a stale or partial one. An
        // armed site means the replayer exists from block 0.
        bool deadline_missed = false;
        if (miss_site.enabled()) {
            deadline_missed = miss_site.param(0.0) >= 1.0
                ? predictor.opsPerInference() > ops_budget
                : miss_site.fires(mixSeeds(replayer->traceKey(), b));
        }
        if (deadline_missed) {
            reg.counter("controller.deadline_misses").add();
            result.ucOps += predictor.opsPerInference();
            if (b + 2 < pending.size())
                pending[b + 2] = pending[b + 1];
            continue;
        }
        const auto decide_start = std::chrono::steady_clock::now();
        const bool gate =
            predictor.decide(*row_ptrs, *sub_cycles, block_mode);
        decision_lat.add(obs::elapsedNs(decide_start));
        ops_hist.add(predictor.opsPerInference());
        (gate ? gate_ctr : stay_ctr).add();
        result.ucOps += predictor.opsPerInference();
        ++result.numPredictions;
        if (b + 2 < pending.size())
            pending[b + 2] = gate ? 1 : 0;
    }
    reg.counter("sim.closed_loop_deferred_blocks").add(served);

    // A loop that never gated settles from the memo; on a miss it
    // replays in HighPerf after all.
    if (!replayer &&
        !settleFromMemo(workload, reference, cfg, blocks * k, adaptive))
    {
        start_replayer(blocks);
    }

    // Reference (non-adaptive high-performance) totals.
    PpwAccumulator high_only;
    for (size_t b = 0; b < blocks; ++b) {
        for (size_t t = b * k; t < (b + 1) * k; ++t) {
            high_only.add(
                cfg.intervalInstr,
                static_cast<uint64_t>(reference.cyclesHigh[t]),
                reference.energyHighNj[t]);
        }
    }

    result.ppwGainPct =
        high_only.ppw() > 0.0
        ? (adaptive.ppw() / high_only.ppw() - 1.0) * 100.0
        : 0.0;
    result.perfRelativePct = adaptive.cycles()
        ? static_cast<double>(high_only.cycles()) /
            static_cast<double>(adaptive.cycles()) * 100.0
        : 100.0;
    result.lowResidency = static_cast<double>(low_blocks) /
        static_cast<double>(blocks);
    // A settled loop ran HighPerf throughout: no switches.
    result.modeSwitches = replayer ? replayer->modeSwitches() : 0;

    for (size_t b = 0; b < blocks; ++b)
        result.confusion.add(predictions[b] != 0, labels[b] != 0);
    result.pgos = result.confusion.pgos();
    const uint64_t window =
        sla.windowPredictions(cfg.core, predictor.granularity());
    result.rsv = rsvForTrace(predictions, labels, window);
    return result;
}

void
exportClosedLoopStats(const ClosedLoopResult &result)
{
    auto &reg = obs::StatRegistry::instance();
    reg.counter("controller.predictions").add(result.numPredictions);
    reg.counter("controller.mode_transitions")
        .add(result.modeSwitches);
    result.confusion.exportTo(reg, "controller.confusion");
    reg.gauge("controller.last_rsv").set(result.rsv);
    reg.gauge("controller.last_pgos").set(result.pgos);
}

ClosedLoopResult
runClosedLoop(const Workload &workload, const TraceRecord &reference,
              GatePredictor &predictor, const BuildConfig &cfg,
              const SlaSpec &sla)
{
    ClosedLoopResult result =
        simulateClosedLoop(workload, reference, predictor, cfg, sla);
    exportClosedLoopStats(result);
    return result;
}

} // namespace psca
