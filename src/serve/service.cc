#include "serve/service.hh"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/fault.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "core/firmware_image.hh"
#include "obs/http.hh"
#include "obs/phase.hh"
#include "obs/stats.hh"

namespace psca {
namespace serve {

namespace {

/**
 * Energy slack, in percent, the A/B gate allows a candidate over the
 * active model at equal-or-better accuracy.
 */
constexpr double kAbEnergySlackPct = 2.0;

/**
 * The /health provider hook is a plain function pointer (obs cannot
 * link against serve), so the live Service instance parks itself here.
 * One service per process — the second constructor wins the pointer,
 * matching the registry/event-sink singletons' latest-wins convention.
 */
Service *g_service = nullptr;

std::string
healthTrampoline()
{
    Service *s = g_service;
    return s ? s->healthJson() : std::string("{\n  \"state\": \"idle\"\n}\n");
}

std::string
fmt3(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/** Estimated energy of executing one block in the chosen mode, from
 *  the reference record's per-interval dual-mode measurements. */
double
blockEnergyNj(const TraceRecord &ref, size_t block, size_t k, bool gated)
{
    const std::vector<float> &e =
        gated ? ref.energyLowNj : ref.energyHighNj;
    double sum = 0.0;
    const size_t begin = block * k;
    for (size_t t = begin; t < begin + k && t < e.size(); ++t)
        sum += e[t];
    return sum;
}

/** Count one lifecycle event in the outcome and its serve.* counter. */
void
tally(uint64_t &field, const char *stat)
{
    ++field;
    obs::StatRegistry::instance().counter(stat).add();
}

} // namespace

const char *
serveStateName(ServeState s)
{
    switch (s) {
      case ServeState::Healthy:
        return "HEALTHY";
      case ServeState::Drifting:
        return "DRIFTING";
      case ServeState::Retraining:
        return "RETRAINING";
      case ServeState::Shadowing:
        return "SHADOWING";
      case ServeState::Promoting:
        return "PROMOTING";
      case ServeState::RolledBack:
        return "ROLLED_BACK";
    }
    return "UNKNOWN";
}

/** Per-segment runtime: the dual-mode reference record (ground truth
 *  and A/B energy estimates), its block labels, and the replayer of
 *  its passes, whose schedule trie has the record as its spine and is
 *  freed with the segment. */
struct Service::SegmentRt
{
    size_t index = 0;
    Workload workload;
    TraceRecord ref;
    std::vector<uint8_t> labels;
    size_t passBlocks = 0;
    std::unique_ptr<PassReplayer> replayer;
    uint64_t passBlockIdx = 0; //!< block within the current pass
};

Service::Service(ServeConfig cfg, BuildConfig build,
                 std::vector<ServeSegment> schedule)
    : cfg_(std::move(cfg)), build_(std::move(build)),
      schedule_(std::move(schedule)),
      k_(static_cast<size_t>(cfg_.granularityInstr /
                             build_.intervalInstr)),
      ring_(cfg_.dir),
      drift_(DriftConfig{cfg_.driftWindow, cfg_.driftZ, 16.0, 4.0,
                         0.25})
{
    PSCA_ASSERT(!schedule_.empty(), "serve: empty schedule");
    for (const ServeSegment &s : schedule_)
        PSCA_ASSERT(s.blocks >= 1, "serve: a segment serves no block");
    PSCA_ASSERT(k_ >= 1 &&
                    cfg_.granularityInstr % build_.intervalInstr == 0,
                "serve: granularity must be a multiple of the "
                "telemetry interval");
    g_service = this;
    obs::setHealthProvider(&healthTrampoline);
    updateHealthView();
}

Service::~Service()
{
    if (g_service == this) {
        obs::setHealthProvider(nullptr);
        g_service = nullptr;
    }
}

void
Service::lifecycleLine(const std::string &line, bool warnLevel)
{
    outcome_.lifecycle.push_back(line);
    emitEvent("serve", warnLevel ? LogLevel::Warn : LogLevel::Info,
              line);
    if (warnLevel)
        warn("serve: ", line);
    else
        inform("serve: ", line);
}

void
Service::transition(ServeState to, const std::string &reason)
{
    const ServeState from = state_;
    state_ = to;
    lifecycleLine("b=" + std::to_string(outcome_.blocks) + " " +
                      serveStateName(from) + "->" +
                      serveStateName(to) + " " + reason,
                  to == ServeState::RolledBack);
    obs::StatRegistry::instance().counter("serve.transitions").add();
    obs::StatRegistry::instance().gauge("serve.state").set(
        static_cast<double>(static_cast<uint8_t>(to)));
    updateHealthView();
}

FirmwarePackage
Service::trainCandidate(const SegmentRt &seg, const std::string &name)
{
    DualTrainOptions opts;
    opts.granularityInstr = cfg_.granularityInstr;
    opts.pSla = 0.90;
    opts.columns = cfg_.columns;
    opts.rsvWindow = 400;
    opts.seed = mixSeeds(cfg_.seed, outcome_.retrains + 1);
    const TrainedDual dual = trainDual(
        {seg.ref}, build_, opts,
        forestFactory(cfg_.forestTrees, cfg_.forestDepth));
    DualModelPredictor predictor(dual.high, dual.low, cfg_.columns,
                                 cfg_.granularityInstr, name);
    return packageFromDual(predictor, cfg_.columns);
}

void
Service::loadActivePredictor()
{
    uint32_t version = 0;
    FirmwarePackage pkg;
    PSCA_ASSERT(ring_.loadActive(pkg, version),
                "serve: no verifiable firmware in the ring");
    activePkg_ = std::move(pkg);
    // Decisions come from the flashed bytes: the VM predictor runs
    // the ring image, not the in-memory model that produced it.
    activeVm_ = std::make_unique<VmPredictor>(activePkg_);
    guard_ = std::make_unique<GuardrailedPredictor>(*activeVm_);
    lastTrips_ = 0;
    drift_.setReference(activePkg_.high.scaler, activePkg_.low.scaler,
                        activePkg_.columns.size());
    obs::StatRegistry::instance()
        .gauge("serve.active_version")
        .set(static_cast<double>(ring_.activeVersion()));
    updateHealthView();
}

bool
Service::bootstrap()
{
    enterSegment(0);
    lifecycleLine("b=0 BOOTSTRAP training initial firmware on " +
                  seg_->workload.name);
    FirmwarePackage pkg = trainCandidate(*seg_, "serve-fw-v1");
    ++outcome_.retrains;
    const uint32_t v = ring_.promote(pkg);
    if (v == 0) {
        ++outcome_.swapFailures;
        lifecycleLine("b=0 BOOTSTRAP failed: initial promote did not "
                      "commit",
                      true);
        return false;
    }
    lifecycleLine("b=0 BOOTSTRAP promoted fw v" + std::to_string(v));
    return true;
}

std::unique_ptr<Service::SegmentRt>
Service::segmentRt(size_t idx, TraceRecording &recording) const
{
    auto rt = std::make_unique<SegmentRt>();
    rt->index = idx;
    rt->workload = schedule_[idx].workload;
    rt->ref = recording.take();
    rt->labels = blockLabels(rt->ref, k_, 0.90);
    rt->passBlocks = rt->ref.numIntervals() / k_;
    PSCA_ASSERT(rt->passBlocks >= 3,
                "serve: workload too short for the closed loop");
    // The walker's memo settles reuse the hash the recording took.
    rt->replayer = std::make_unique<PassReplayer>(
        rt->workload, build_, k_, recording.memoHash());
    return rt;
}

std::unique_ptr<TraceRecording>
Service::recording(size_t idx) const
{
    const Workload &w = schedule_[idx].workload;
    return std::make_unique<TraceRecording>(
        w, build_, static_cast<uint32_t>(idx),
        static_cast<uint32_t>(w.traceIndex));
}

void
Service::enterSegment(size_t idx)
{
    // Settle and free the finished segment (walker, live core, record)
    // before the next takes over: serveSegment() recorded the next one
    // while this one was served, or nothing has recorded it yet.
    if (seg_)
        seg_->replayer->settle(adaptive_);
    seg_.reset();
    if (next_) {
        PSCA_ASSERT(next_->index == idx,
                    "serve: recorded segment is not the one entered");
        seg_ = std::move(next_);
    } else {
        const std::unique_ptr<TraceRecording> rec = recording(idx);
        rec->run();
        seg_ = segmentRt(idx, *rec);
    }
    segIdx_ = idx;
    segBlocksDone_ = 0;
}

void
Service::serveSegment(uint64_t budget)
{
    const uint64_t seg_blocks = schedule_[segIdx_].blocks;
    const size_t next = (segIdx_ + 1) % schedule_.size();
    // Record the next segment beside this one's blocks, but only if
    // this run enters it: the budget must outlast the segment.
    const std::unique_ptr<TraceRecording> rec =
        !next_ && outcome_.blocks + (seg_blocks - segBlocksDone_) < budget
        ? recording(next)
        : nullptr;
    // Task 0 serves the blocks; the recording's two tasks follow it in
    // index order, as TraceRecording requires. At most three cores are
    // live, the serving walker's and the two passes'; regions the
    // tasks open (a retrain's forest fits) run inline in their task.
    ThreadPool::instance().parallelFor(
        rec ? 1 + TraceRecording::kTasks : 1, [&](size_t task) {
            if (task == 0) {
                while (outcome_.blocks < budget &&
                       segBlocksDone_ < seg_blocks && !stopRequested())
                    stepBlock();
                return;
            }
            obs::ScopedPhase phase("record_trace");
            rec->runTask(task - 1);
        });
    if (rec)
        next_ = segmentRt(next, *rec);
}

void
Service::stepBlock()
{
    // Fresh pass: settle the finished one's accounting, replay the
    // segment's trace from the top with a new core, and clear in-flight
    // decisions (they referenced blocks of the finished pass).
    if (seg_->passBlockIdx >= seg_->passBlocks)
        seg_->passBlockIdx = 0;
    if (seg_->passBlockIdx == 0) {
        seg_->replayer->settle(adaptive_);
        seg_->replayer->startPass(seg_->ref);
        pending_[0] = pending_[1] = pending_[2] = 0;
    }

    const bool apply_gate = pending_[0] != 0;
    const CoreMode mode =
        apply_gate ? CoreMode::LowPower : CoreMode::HighPerf;
    seg_->replayer->runBlock(mode, adaptive_);

    // Non-adaptive high-performance baseline over the same intervals,
    // from the reference record (what runClosedLoop compares against).
    const size_t base = seg_->passBlockIdx * k_;
    for (size_t t = base; t < base + k_; ++t)
        referenceHigh_.add(build_.intervalInstr,
                           static_cast<uint64_t>(seg_->ref.cyclesHigh[t]),
                           seg_->ref.energyHighNj[t]);

    const std::vector<const float *> &rows = seg_->replayer->rowPtrs();
    const std::vector<float> &cycles = seg_->replayer->subCycles();

    const bool decision = guard_->decide(rows, cycles, mode);
    const uint64_t trips = guard_->trips();
    uint64_t trips_delta = trips - lastTrips_;
    lastTrips_ = trips;

    pending_[0] = pending_[1];
    pending_[1] = pending_[2];
    pending_[2] = decision ? 1 : 0;

    // Shadow scoring: the candidate sees the identical telemetry and
    // is graded (never applied) against the same ground-truth label
    // the active model's raw decision targets.
    if (state_ == ServeState::Shadowing) {
        const size_t target = seg_->passBlockIdx + 2;
        if (target < seg_->passBlocks) {
            const bool truth = seg_->labels[target] != 0;
            const bool active_raw = guard_->lastInnerDecision();
            const bool shadow_raw =
                shadowVm_->decide(rows, cycles, mode);
            if (active_raw != truth)
                ++abActiveWrong_;
            if (shadow_raw != truth)
                ++abShadowWrong_;
            double shadow_nj = blockEnergyNj(seg_->ref, target, k_,
                                             shadow_raw);
            const FaultSite &corrupt =
                FAULT_SITE("serve.shadow_corrupt");
            if (corrupt.enabled() &&
                corrupt.fires(outcome_.shadowsScored))
            {
                shadow_nj = std::nan("");
                tally(outcome_.shadowCorruptions, "serve.shadow_corruptions");
            }
            abActiveEnergy_ +=
                blockEnergyNj(seg_->ref, target, k_, active_raw);
            abShadowEnergy_ += shadow_nj;
            abBaselineTrips_ += trips_delta;
            ++abScored_;
            ++outcome_.shadowsScored;
            if (abScored_ >= cfg_.abIntervals)
                evaluateShadowGate();
        }
    }

    // Probation accounting, with the injected-regression site adding
    // synthetic trips keyed by (promotion ordinal, probation block).
    if (state_ == ServeState::Promoting) {
        ++probationBlocks_;
        probationTrips_ += trips_delta;
        const FaultSite &regress =
            FAULT_SITE("serve.probation_regress");
        if (regress.enabled() &&
            regress.fires(
                mixSeeds(outcome_.promotions, probationBlocks_)))
        {
            probationTrips_ += static_cast<uint64_t>(regress.param(1.0));
            obs::StatRegistry::instance()
                .counter("serve.probation_injected_trips")
                .add();
        }
        if (probationBlocks_ >= cfg_.probationIntervals)
            evaluateProbation();
    }

    // Drift detection runs on every block; the verdict only acts in
    // HEALTHY outside the cooldown, but windows keep their cadence
    // in every state so the block->window mapping is state-free. The
    // input is the predictors' own front end, so the detector watches
    // exactly the active model's input row.
    drift_.observe(blockFeatures(rows, cycles, activePkg_.columns), mode,
                   trips_delta);
    if (drift_.windowComplete()) {
        const DriftVerdict v = drift_.takeWindow();
        lastMaxZ_ = v.maxAbsMeanZ;
        obs::StatRegistry::instance().counter("serve.drift_windows").add();
        obs::StatRegistry::instance()
            .gauge("drift.max_abs_mean_z")
            .set(v.maxAbsMeanZ);
        obs::StatRegistry::instance().gauge("drift.trip_rate").set(
            v.tripRate);
        if (v.drifted && cfg_.lifecycle &&
            state_ == ServeState::Healthy && cooldown_ == 0)
        {
            tally(outcome_.driftsDetected, "serve.drifts_detected");
            transition(ServeState::Drifting,
                       v.reason + " (feature " +
                           std::to_string(v.worstFeature) +
                           ", |z|=" + fmt3(v.maxAbsMeanZ) +
                           ", trip_rate=" + fmt3(v.tripRate) + ")");
            transition(ServeState::Retraining,
                       "retraining on " + seg_->workload.name);
            const FaultSite &rfail = FAULT_SITE("serve.retrain_fail");
            if (rfail.enabled() && rfail.fires(outcome_.retrains)) {
                tally(outcome_.retrainFailures, "serve.retrain_failures");
                cooldown_ = cfg_.cooldownBlocks;
                transition(ServeState::Healthy,
                           "retrain failed; keeping fw v" +
                               std::to_string(ring_.activeVersion()));
            } else {
                FirmwarePackage pkg = trainCandidate(
                    *seg_, "serve-fw-v" +
                               std::to_string(ring_.latestVersion() +
                                              1));
                tally(outcome_.retrains, "serve.retrains");
                shadowPkg_ =
                    std::make_unique<FirmwarePackage>(std::move(pkg));
                shadowVm_ =
                    std::make_unique<VmPredictor>(*shadowPkg_);
                abScored_ = 0;
                abActiveWrong_ = abShadowWrong_ = 0;
                abActiveEnergy_ = abShadowEnergy_ = 0.0;
                abBaselineTrips_ = 0;
                transition(ServeState::Shadowing,
                           "candidate trained; A/B scoring " +
                               std::to_string(cfg_.abIntervals) +
                               " intervals");
            }
        }
    }

    if (cooldown_ > 0) {
        --cooldown_;
        if (cooldown_ == 0 && state_ == ServeState::RolledBack)
            transition(ServeState::Healthy, "cooldown complete");
    }

    ++outcome_.blocks;
    ++segBlocksDone_;
    ++seg_->passBlockIdx;
}

void
Service::evaluateShadowGate()
{
    const bool finite = std::isfinite(abShadowEnergy_) &&
        std::isfinite(abActiveEnergy_) && abActiveEnergy_ > 0.0;
    const double slack = 1.0 + kAbEnergySlackPct / 100.0;
    const bool wins = finite && abShadowWrong_ <= abActiveWrong_ &&
        abShadowEnergy_ <= abActiveEnergy_ * slack;

    const std::string score = "active(wrong=" +
        std::to_string(abActiveWrong_) +
        ", nj=" + fmt3(abActiveEnergy_) + ") shadow(wrong=" +
        std::to_string(abShadowWrong_) +
        ", nj=" + (finite ? fmt3(abShadowEnergy_)
                          : std::string("corrupt")) +
        ")";

    if (!wins) {
        tally(outcome_.rejections, "serve.rejections");
        shadowVm_.reset();
        shadowPkg_.reset();
        cooldown_ = cfg_.cooldownBlocks;
        transition(ServeState::Healthy,
                   std::string(finite ? "candidate rejected "
                                      : "shadow score corrupted; "
                                        "candidate rejected ") +
                       score);
        return;
    }

    promotedFrom_ = ring_.activeVersion();
    const uint32_t v = ring_.promote(*shadowPkg_);
    shadowVm_.reset();
    shadowPkg_.reset();
    if (v == 0) {
        tally(outcome_.swapFailures, "serve.swap_failures");
        cooldown_ = cfg_.cooldownBlocks;
        transition(ServeState::Healthy,
                   "swap failed; keeping fw v" +
                       std::to_string(promotedFrom_) + " " + score);
        return;
    }
    tally(outcome_.promotions, "serve.promotions");
    lastPromoteBlock_ = outcome_.blocks;
    loadActivePredictor();
    probationBlocks_ = 0;
    probationTrips_ = 0;
    transition(ServeState::Promoting,
               "promoted fw v" + std::to_string(v) + " over v" +
                   std::to_string(promotedFrom_) + " " + score +
                   "; probation " +
                   std::to_string(cfg_.probationIntervals) +
                   " intervals");
}

void
Service::evaluateProbation()
{
    // Integer cross-multiplication: trips-per-block during probation
    // vs the pre-swap (shadow window) baseline, with one window of
    // slack — no float thresholds in the rollback decision.
    const bool regressed = probationTrips_ * cfg_.abIntervals >
        abBaselineTrips_ * cfg_.probationIntervals + cfg_.abIntervals;

    if (!regressed) {
        transition(ServeState::Healthy,
                   "probation passed (trips " +
                       std::to_string(probationTrips_) +
                       " baseline " +
                       std::to_string(abBaselineTrips_) +
                       "); fw v" +
                       std::to_string(ring_.activeVersion()) +
                       " confirmed");
        return;
    }

    const uint32_t bad = ring_.activeVersion();
    tally(outcome_.rollbacks, "serve.rollbacks");
    PSCA_ASSERT(ring_.rollbackTo(promotedFrom_),
                "serve: rollback target lost from the ring");
    lastRollbackBlock_ = outcome_.blocks;
    lastRollbackVersion_ = promotedFrom_;
    loadActivePredictor();
    cooldown_ = cfg_.cooldownBlocks;
    transition(ServeState::RolledBack,
               "probation regression (trips " +
                   std::to_string(probationTrips_) + " baseline " +
                   std::to_string(abBaselineTrips_) +
                   "); rolled back fw v" + std::to_string(bad) +
                   " -> v" + std::to_string(promotedFrom_));
    // Post-rollback audit: the restored image must be byte-identical
    // to what was promoted (checksum vs manifest). CI greps this line.
    PSCA_ASSERT(ring_.verifyImage(promotedFrom_),
                "serve: restored firmware failed verification");
    lifecycleLine("b=" + std::to_string(outcome_.blocks) +
                  " rollback to v" + std::to_string(promotedFrom_) +
                  " verified");
}

void
Service::finishRun()
{
    outcome_.activeVersion = ring_.activeVersion();
    if (seg_)
        seg_->replayer->settle(adaptive_);
    const double ref_ppw = referenceHigh_.ppw();
    outcome_.ppwGainPct = ref_ppw > 0.0
        ? (adaptive_.ppw() / ref_ppw - 1.0) * 100.0
        : 0.0;

    auto &reg = obs::StatRegistry::instance();
    reg.gauge("serve.blocks").set(static_cast<double>(outcome_.blocks));
    reg.gauge("serve.ppw_gain_pct").set(outcome_.ppwGainPct);
    reg.gauge("serve.active_version").set(
        static_cast<double>(outcome_.activeVersion));

    // The deterministic lifecycle artifact: one line per transition,
    // no timestamps, so two runs with the same seed and env diff
    // clean at any PSCA_THREADS.
    std::ofstream out(cfg_.dir + "/lifecycle.txt",
                      std::ios::trunc | std::ios::binary);
    for (const std::string &line : outcome_.lifecycle)
        out << line << '\n';
    out.close();
    updateHealthView();
}

const ServeOutcome &
Service::run(uint64_t max_blocks)
{
    if (ring_.empty()) {
        if (!bootstrap()) {
            finishRun();
            return outcome_;
        }
    } else if (!seg_) {
        enterSegment(0);
        lifecycleLine("b=0 RESUME fw v" +
                      std::to_string(ring_.activeVersion()) +
                      " loaded from ring");
    }
    // Only the first run loads: a resumed run keeps the drift window
    // and guardrail where the stop left them (promotion and rollback
    // reload on their own).
    if (!activeVm_)
        loadActivePredictor();

    uint64_t budget = max_blocks;
    if (budget == 0)
        for (const ServeSegment &s : schedule_)
            budget += s.blocks;

    while (outcome_.blocks < budget) {
        if (stopRequested()) {
            lifecycleLine("b=" + std::to_string(outcome_.blocks) +
                          " STOP requested; exiting cleanly");
            break;
        }
        if (segBlocksDone_ >= schedule_[segIdx_].blocks) {
            const size_t next = (segIdx_ + 1) % schedule_.size();
            enterSegment(next);
            lifecycleLine("b=" + std::to_string(outcome_.blocks) +
                          " SEGMENT " + std::to_string(next) + " " +
                          seg_->workload.name);
        }
        serveSegment(budget);
    }

    finishRun();
    return outcome_;
}

std::string
Service::healthJson() const
{
    std::lock_guard<std::mutex> lock(healthMu_);
    return healthJson_;
}

void
Service::updateHealthView()
{
    std::string j = "{\n";
    j += "  \"state\": \"" + std::string(serveStateName(state_)) +
        "\",\n";
    j += "  \"active_version\": " +
        std::to_string(ring_.activeVersion()) + ",\n";
    j += "  \"shadow_active\": " +
        std::string(shadowPkg_ ? "true" : "false") + ",\n";
    j += "  \"blocks\": " + std::to_string(outcome_.blocks) + ",\n";
    j += "  \"drifts_detected\": " +
        std::to_string(outcome_.driftsDetected) + ",\n";
    j += "  \"promotions\": " + std::to_string(outcome_.promotions) +
        ",\n";
    j += "  \"rollbacks\": " + std::to_string(outcome_.rollbacks) +
        ",\n";
    j += "  \"last_promote_block\": " +
        std::to_string(lastPromoteBlock_) + ",\n";
    j += "  \"last_rollback_block\": " +
        std::to_string(lastRollbackBlock_) + ",\n";
    j += "  \"last_rollback_to\": " +
        std::to_string(lastRollbackVersion_) + ",\n";
    j += "  \"drift_max_abs_mean_z\": " + fmt3(lastMaxZ_) + "\n";
    j += "}\n";
    std::lock_guard<std::mutex> lock(healthMu_);
    healthJson_ = std::move(j);
}

} // namespace serve
} // namespace psca
