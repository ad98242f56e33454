#include "core/controller.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <mutex>
#include <optional>
#include <set>
#include <tuple>

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

/** Stable fault-stream identity of @p workload. */
static uint64_t
traceKeyOf(const Workload &workload)
{
    return mixSeeds(workload.genome.seed,
                    mixSeeds(workload.inputSeed, workload.traceIndex));
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
      traceKey_(traceKeyOf(workload)),
      replay_(workload, cfg, CoreMode::HighPerf),
      subRows_(k, std::vector<float>(cfg.counterIds.size())),
      subCycles_(k), adds_(k), carryRow_(cfg.counterIds.size(), 0.0f)
{
    rowPtrs_.reserve(k_);
    for (const std::vector<float> &row : subRows_)
        rowPtrs_.push_back(row.data());
}

void
BlockReplayer::runBlock(CoreMode mode, PpwAccumulator &acc)
{
    auto &reg = obs::StatRegistry::instance();
    replay_.setMode(mode);
    const CoreMode block_mode = replay_.mode();
    const uint64_t b = block_++;

    for (size_t t = 0; t < k_; ++t) {
        replay_.step();
        const std::vector<uint64_t> &delta = replay_.delta();
        bool dropped = false;
        if (faultsOn_) {
            view_ = delta;
            dropped = applyTelemetryFaults(
                view_, mixSeeds(traceKey_, b * k_ + t));
        }
        const IntervalAdd &add = adds_[t] = projectInterval(
            delta, cfg_, block_mode, dropped ? nullptr : subRows_[t].data(),
            faultsOn_ ? &view_ : nullptr);
        if (dropped) {
            // Snapshot lost in flight: the controller reuses its
            // previous view of this lane rather than reading
            // garbage (zeros at the very start of the run).
            subRows_[t] = carryRow_;
            subCycles_[t] = carryCycles_;
            reg.counter("controller.snapshot_carryforwards").add();
        } else {
            subCycles_[t] = static_cast<float>(add.cycles);
            if (faultsOn_) {
                carryRow_ = subRows_[t];
                carryCycles_ = subCycles_[t];
            }
        }
        acc.add(cfg_.intervalInstr, add.cycles, add.energyNj);
    }
}

PassReplayer::PassReplayer(const Workload &workload,
                           const BuildConfig &cfg, size_t k,
                           std::optional<uint64_t> memo_hash)
    : workload_(workload), cfg_(cfg), k_(k),
      traceKey_(traceKeyOf(workload)), memoHash_(memo_hash), nodes_(1),
      adds_(k), rowPtrs_(k), subCycles_(k)
{}

bool
PassReplayer::bypassed()
{
    // Same condition as BlockReplayer::faultsOn_: an armed site makes
    // the view depend on more than the schedule.
    return FaultRegistry::instance().anyEnabled() ||
        !SimMemo::instance().enabled();
}

void
PassReplayer::startPass(const TraceRecord &reference)
{
    PSCA_ASSERT(owed_ == 0, "a pass over '", workload_.name,
                "' ended with unsettled adds");
    PSCA_ASSERT(reference.numCounters == cfg_.counterIds.size(),
                "reference '", reference.name, "' has ",
                reference.numCounters, " counters, the config ",
                cfg_.counterIds.size());
    ref_ = &reference;
    bypass_ = bypassed();
    live_.reset();
    path_.clear();
    cursor_ = 0;
}

void
PassReplayer::runBlock(CoreMode mode, PpwAccumulator &acc)
{
    uint32_t next = kNone;
    if (!live_ && !bypass_) {
        next = nodes_[cursor_].child[static_cast<size_t>(mode)];
        // A rowless node is on the spine, which reaches as far as the
        // record: its blocks are served before any replay ran them.
        if (next == kNone && mode == CoreMode::HighPerf &&
            nodes_[cursor_].rows == kNone && nodes() < kMaxNodes &&
            (path_.size() + 1) * k_ <= ref_->numIntervals())
        {
            next = addChild(mode, /*spine=*/true);
        }
    }
    if (next == kNone) {
        simulate(mode, acc);
        return;
    }
    // Known spine adds are a prefix of the spine, so owed blocks come
    // after every block whose adds already reached @p acc.
    if (nodes_[next].owed) {
        ++owed_;
    } else {
        const IntervalAdd *adds = addsOf(next);
        for (size_t t = 0; t < k_; ++t)
            acc.add(cfg_.intervalInstr, adds[t].cycles, adds[t].energyNj);
    }
    showNode(path_.size(), next);
    cursor_ = next;
    path_.push_back(next);
    obs::StatRegistry::instance()
        .counter("replay.trie_served_blocks")
        .add();
}

void
PassReplayer::settle(PpwAccumulator &acc)
{
    if (owed_ == 0 || settleFromMemo(acc))
        return;
    // A memo miss: the catch-up pays the owed adds. The pass goes on
    // served, so the replayer is not kept.
    obs::ScopedPhase phase("block_replay");
    catchUp(acc);
    live_.reset();
}

void
PassReplayer::endPass(PpwAccumulator &acc)
{
    settle(acc);
    live_.reset();
    ref_ = nullptr;
    nodes_.shrink_to_fit();
    rows_.shrink_to_fit();
    adds_.shrink_to_fit();
}

size_t
PassReplayer::bytes() const
{
    return nodes_.capacity() * sizeof(Node) +
        rows_.capacity() * sizeof(float) +
        adds_.capacity() * sizeof(IntervalAdd);
}

void
PassReplayer::simulate(CoreMode mode, PpwAccumulator &acc)
{
    obs::ScopedPhase phase("block_replay");
    if (!live_)
        catchUp(acc);
    live_->runBlock(mode, acc);
    rowPtrs_ = live_->rowPtrs();
    subCycles_ = live_->subCycles();
    if (bypass_ || cursor_ == kNone || nodes() >= kMaxNodes) {
        cursor_ = kNone; // not recorded: the rest of the pass stays live
        return;
    }
    cursor_ = addChild(mode, /*spine=*/false);
    float *rows = rowsOf(nodes_[cursor_]);
    for (const float *row : rowPtrs_)
        rows = std::copy_n(row, cfg_.counterIds.size(), rows);
    std::copy_n(live_->lastAdds().data(), k_, addsOf(cursor_));
}

void
PassReplayer::catchUp(PpwAccumulator &acc)
{
    live_ = std::make_unique<BlockReplayer>(workload_, cfg_, k_);
    PpwAccumulator scratch;
    const size_t paid = path_.size() - owed_;
    for (size_t b = 0; b < path_.size(); ++b) {
        live_->runBlock(nodes_[path_[b]].mode, b < paid ? scratch : acc);
        confirm(b, path_[b], live_->rowPtrs(), live_->subCycles(),
                live_->lastAdds());
    }
    owed_ = 0;
    if (!path_.empty()) {
        obs::StatRegistry::instance()
            .counter("replay.trie_catchup_blocks")
            .add(path_.size());
    }
}

bool
PassReplayer::settleFromMemo(PpwAccumulator &acc)
{
    // Per interval exactly the add BlockReplayer::runBlock() would
    // make, from the memo's HighPerf deltas of the owed intervals.
    if (!memoHash_)
        memoHash_ = memoTraceHash(workload_, cfg_);
    const MemoKey key{*memoHash_, coreConfigHash(cfg_.core),
                      CoreMode::HighPerf};
    MemoIntervals intervals;
    if (!SimMemo::instance().lookup(key, intervals) ||
        intervals.size() != ref_->numIntervals())
    {
        return false;
    }

    const size_t n_ctr = cfg_.counterIds.size();
    std::vector<float> rows(k_ * n_ctr), cycles(k_);
    std::vector<const float *> row_ptrs(k_);
    std::vector<IntervalAdd> adds(k_);
    std::vector<uint64_t> delta;
    for (size_t b = path_.size() - owed_; b < path_.size(); ++b) {
        for (size_t t = 0; t < k_; ++t) {
            intervals.expand(b * k_ + t, delta);
            row_ptrs[t] = rows.data() + t * n_ctr;
            adds[t] = projectInterval(delta, cfg_, CoreMode::HighPerf,
                                      rows.data() + t * n_ctr);
            cycles[t] = static_cast<float>(adds[t].cycles);
            acc.add(cfg_.intervalInstr, adds[t].cycles,
                    adds[t].energyNj);
        }
        confirm(b, path_[b], row_ptrs, cycles, adds);
    }
    owed_ = 0;
    obs::StatRegistry::instance().counter("replay.memo_settles").add();
    return true;
}

void
PassReplayer::confirm(size_t b, uint32_t node,
                      const std::vector<const float *> &rows,
                      const std::vector<float> &cycles,
                      const std::vector<IntervalAdd> &adds)
{
    // With one IntervalReplay behind the recorder and the replayer, a
    // spine block can only differ from the record if the reference was
    // recorded under another BuildConfig.
    showNode(b, node);
    Node &n = nodes_[node];
    bool same = std::memcmp(cycles.data(), subCycles_.data(),
                            k_ * sizeof(float)) == 0;
    for (size_t t = 0; t < k_; ++t) {
        same = same &&
            std::memcmp(rows[t], rowPtrs_[t],
                        cfg_.counterIds.size() * sizeof(float)) == 0 &&
            (n.owed ||
             (adds[t].cycles == addsOf(node)[t].cycles &&
              std::bit_cast<uint64_t>(adds[t].energyNj) ==
                  std::bit_cast<uint64_t>(addsOf(node)[t].energyNj)));
    }
    PSCA_ASSERT(same, "block ", b, " of a pass over '", workload_.name,
                "' differs from its schedule-trie node",
                n.rows == kNone
                    ? ", the reference record: the reference was not "
                      "recorded under this BuildConfig"
                    : "");
    if (n.owed) {
        std::copy_n(adds.data(), k_, addsOf(node));
        n.owed = false;
    }
}

uint32_t
PassReplayer::addChild(CoreMode mode, bool spine)
{
    const auto idx = static_cast<uint32_t>(nodes_.size());
    Node node;
    node.mode = mode;
    node.owed = spine;
    if (!spine) {
        const size_t block = k_ * cfg_.counterIds.size();
        node.rows = static_cast<uint32_t>(rows_.size() / block);
        rows_.resize(rows_.size() + block);
    }
    nodes_[cursor_].child[static_cast<size_t>(mode)] = idx;
    nodes_.push_back(node);
    adds_.resize(adds_.size() + k_);
    obs::StatRegistry::instance().counter("replay.trie_nodes_added").add();
    return idx;
}

void
PassReplayer::showNode(size_t b, uint32_t node)
{
    // A spine node shows the record; an off-spine one its rows, and as
    // cycles its adds' cycles, which is what BlockReplayer shows.
    const Node &n = nodes_[node];
    const size_t n_ctr = cfg_.counterIds.size();
    for (size_t t = 0; t < k_; ++t) {
        if (n.rows == kNone) {
            rowPtrs_[t] = ref_->rowHigh(b * k_ + t);
            subCycles_[t] = ref_->cyclesHigh[b * k_ + t];
        } else {
            rowPtrs_[t] = rowsOf(n) + t * n_ctr;
            subCycles_[t] = static_cast<float>(addsOf(node)[t].cycles);
        }
    }
}

ClosedLoopResult
simulateClosedLoop(const Workload &workload, const TraceRecord &reference,
                   GatePredictor &predictor, const BuildConfig &cfg,
                   const SlaSpec &sla, PassReplayer *walker)
{
    PSCA_ASSERT(predictor.granularity() % cfg.intervalInstr == 0,
                "granularity must be a multiple of the interval");
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
        // A suite runs one loop per trace: warn once per process for
        // each (predictor, granularity, budget).
        static std::mutex warned_mu;
        static std::set<std::tuple<std::string, uint64_t, uint64_t>> warned;
        const std::lock_guard<std::mutex> lock(warned_mu);
        if (warned.emplace(predictor.name(), predictor.granularity(),
                           ops_budget).second)
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

    // One pass of the replay walker (DESIGN.md §9): until the first
    // LowPower block the predictor reads the reference's HighPerf rows
    // (the trie's spine), and a loop that never gates settles from the
    // memo without a core.
    std::optional<PassReplayer> own;
    if (!walker)
        walker = &own.emplace(workload, cfg, k);
    PSCA_ASSERT(walker->k() == k, "a k=", walker->k(),
                " walker cannot run a k=", k, " loop");
    walker->startPass(reference);

    for (size_t b = 0; b < blocks; ++b) {
        const CoreMode block_mode = pending[b]
            ? CoreMode::LowPower
            : CoreMode::HighPerf;
        predictions[b] = pending[b];
        low_blocks += pending[b];
        result.modeSwitches += pending[b] != (b ? pending[b - 1] : 0);
        walker->runBlock(block_mode, adaptive);

        // Microcontroller inference for block b+2. A deadline miss
        // (injected, or deterministic-on-overrun when the site's
        // param >= 1 and the model's static ops exceed the budget)
        // means the result arrives too late to matter: the
        // controller carries the most recently scheduled decision
        // forward instead of consuming a stale or partial one.
        bool deadline_missed = false;
        if (miss_site.enabled()) {
            deadline_missed = miss_site.param(0.0) >= 1.0
                ? predictor.opsPerInference() > ops_budget
                : miss_site.fires(mixSeeds(walker->traceKey(), b));
        }
        if (deadline_missed) {
            reg.counter("controller.deadline_misses").add();
            result.ucOps += predictor.opsPerInference();
            if (b + 2 < pending.size())
                pending[b + 2] = pending[b + 1];
            continue;
        }
        const auto decide_start = std::chrono::steady_clock::now();
        const bool gate = predictor.decide(
            walker->rowPtrs(), walker->subCycles(), block_mode);
        decision_lat.add(obs::elapsedNs(decide_start));
        ops_hist.add(predictor.opsPerInference());
        (gate ? gate_ctr : stay_ctr).add();
        result.ucOps += predictor.opsPerInference();
        ++result.numPredictions;
        if (b + 2 < pending.size())
            pending[b + 2] = gate ? 1 : 0;
    }
    walker->endPass(adaptive);

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
