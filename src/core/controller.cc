#include "core/controller.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/fault.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"
#include "sim/core.hh"
#include "uc/budget.hh"

namespace psca {

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
    // Aggregate the block and cycle-normalize (Sec. 4.1).
    std::vector<float> agg(columns_.size(), 0.0f);
    double cycles = 0.0;
    for (size_t t = 0; t < sub_rows.size(); ++t) {
        for (size_t j = 0; j < columns_.size(); ++j)
            agg[j] += sub_rows[t][columns_[j]];
        cycles += sub_cycles[t];
    }
    const float inv =
        cycles > 0.0 ? static_cast<float>(1.0 / cycles) : 0.0f;
    for (auto &v : agg)
        v *= inv;

    const ScaledModel &slot =
        mode == CoreMode::HighPerf ? high_ : low_;
    std::vector<float> scaled(agg.size());
    slot.scaler.applyRow(agg.data(), scaled.data());

    // Input sanitation (always on): faulted telemetry can hand the
    // model NaN/Inf or values far outside the trained distribution.
    // Non-finite inputs veto straight to high-performance mode (the
    // fail-safe configuration); finite outliers are clamped to a
    // generous z-score envelope no healthy snapshot reaches.
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
      core_(cfg.core), power_(cfg.power, cfg.core.clockGhz),
      gen_(workload),
      subRows_(k, std::vector<float>(cfg.counterIds.size())),
      subCycles_(k), carryRow_(cfg.counterIds.size(), 0.0f)
{
    core_.reset();
    core_.setMode(CoreMode::HighPerf);
    if (cfg_.warmupInstr > 0)
        core_.run(gen_, cfg_.warmupInstr);
    prev_ = core_.counters().raw();
    deltaAll_.resize(prev_.size());
}

BlockReplayer::BlockStats
BlockReplayer::runBlock(CoreMode mode, PpwAccumulator &acc)
{
    auto &reg = obs::StatRegistry::instance();
    core_.setMode(mode);
    const CoreMode block_mode = core_.mode();
    const uint64_t b = block_++;
    BlockStats totals;

    for (size_t t = 0; t < k_; ++t) {
        const IntervalStats stats =
            core_.run(gen_, cfg_.intervalInstr);
        totals.instructions += stats.instructions;
        totals.cycles += stats.cycles;
        const auto &now = core_.counters().raw();
        for (size_t i = 0; i < now.size(); ++i)
            deltaAll_[i] = now[i] - prev_[i];
        prev_ = now;
        bool dropped = false;
        if (faultsOn_) {
            view_ = deltaAll_;
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
            const auto &src = faultsOn_ ? view_ : deltaAll_;
            for (size_t j = 0; j < cfg_.counterIds.size(); ++j)
                subRows_[t][j] =
                    static_cast<float>(src[cfg_.counterIds[j]]);
            subCycles_[t] = static_cast<float>(stats.cycles);
            if (faultsOn_) {
                carryRow_ = subRows_[t];
                carryCycles_ = subCycles_[t];
            }
        }
        acc.add(stats.instructions, stats.cycles,
                power_.intervalEnergyNj(deltaAll_, stats.cycles,
                                        block_mode));
    }
    return totals;
}

std::vector<const float *>
BlockReplayer::rowPtrs() const
{
    std::vector<const float *> ptrs;
    ptrs.reserve(k_);
    for (size_t t = 0; t < k_; ++t)
        ptrs.push_back(subRows_[t].data());
    return ptrs;
}

uint64_t
BlockReplayer::modeSwitches() const
{
    return core_.counters().value(Ctr::ModeSwitches);
}

ClosedLoopResult
simulateClosedLoop(const Workload &workload, const TraceRecord &reference,
                   GatePredictor &predictor, const BuildConfig &cfg,
                   const SlaSpec &sla)
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

    BlockReplayer replayer(workload, cfg, k);

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
    const uint64_t trace_key = replayer.traceKey();
    const FaultSite &miss_site = FAULT_SITE("uc.deadline_miss");

    PpwAccumulator adaptive;
    uint64_t low_blocks = 0;
    // Decisions waiting to be applied (decision at block b applies
    // at block b+2).
    std::vector<uint8_t> pending(blocks + 2, 0);

    for (size_t b = 0; b < blocks; ++b) {
        const CoreMode block_mode = pending[b]
            ? CoreMode::LowPower
            : CoreMode::HighPerf;
        predictions[b] = pending[b];
        low_blocks += pending[b];

        replayer.runBlock(block_mode, adaptive);

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
                : miss_site.fires(mixSeeds(trace_key, b));
        }
        if (deadline_missed) {
            reg.counter("controller.deadline_misses").add();
            result.ucOps += predictor.opsPerInference();
            if (b + 2 < pending.size())
                pending[b + 2] = pending[b + 1];
            continue;
        }
        const std::vector<const float *> row_ptrs =
            replayer.rowPtrs();
        const auto decide_start = std::chrono::steady_clock::now();
        const bool gate = predictor.decide(
            row_ptrs, replayer.subCycles(), block_mode);
        decision_lat.add(obs::elapsedNs(decide_start));
        ops_hist.add(predictor.opsPerInference());
        (gate ? gate_ctr : stay_ctr).add();
        result.ucOps += predictor.opsPerInference();
        ++result.numPredictions;
        if (b + 2 < pending.size())
            pending[b + 2] = gate ? 1 : 0;
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
    result.modeSwitches = replayer.modeSwitches();

    for (size_t b = 0; b < blocks; ++b)
        result.confusion.add(predictions[b] != 0, labels[b] != 0);
    result.pgos = result.confusion.pgos();
    const uint64_t window = sla.windowPredictions(
        cfg.core.clockGhz * 1e9 *
            static_cast<double>(cfg.core.retireWidth),
        predictor.granularity());
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
