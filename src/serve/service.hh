/**
 * @file
 * The online adaptation service (DESIGN.md §15, ROADMAP item 4): runs
 * the closed sim+controller loop indefinitely over a workload
 * schedule while managing the model lifecycle through an explicit
 * health state machine,
 *
 *   HEALTHY -> DRIFTING -> RETRAINING -> SHADOWING -> PROMOTING
 *           -> (ROLLED_BACK | HEALTHY)
 *
 * The live loop always executes the ACTIVE firmware, loaded from the
 * versioned rollback ring (serve/ring.hh) and wrapped in the
 * production guardrail. The drift detector (serve/drift.hh) watches
 * the active model's own input distribution; a drifted window
 * triggers a retrain on the current workload's record through the
 * journaled pipeline (trainDual — checkpoint/resume comes for free;
 * it runs inside the serving task, so its scopes stay in this
 * process). The retrained candidate runs as a SHADOW:
 * scored on the same live telemetry the active model sees, decisions
 * never applied. After ServeConfig::abIntervals scored blocks the
 * candidate is promoted only if it beats the active model's
 * mispredict count without regressing estimated energy by more than
 * a fixed 2%; promotion is a transactional firmware swap into
 * the ring, followed by a probation window that auto-rolls back to
 * the prior image if guardrail trips exceed the pre-swap baseline.
 *
 * Determinism: all control decisions derive from simulated telemetry
 * and seeded substreams — block counters, never wall clock — so one
 * (seed, env) pair produces a byte-identical lifecycle transition
 * sequence and final firmware at any PSCA_THREADS. The transition
 * sequence is written as a deterministic artifact
 * (<dir>/lifecycle.txt) that CI diffs across reruns.
 */

#ifndef PSCA_SERVE_SERVICE_HH
#define PSCA_SERVE_SERVICE_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/guardrail.hh"
#include "core/pipeline.hh"
#include "serve/drift.hh"
#include "serve/ring.hh"

namespace psca {
namespace serve {

/** Lifecycle states (serve.state gauge exports the numeric value). */
enum class ServeState : uint8_t
{
    Healthy = 0,
    Drifting = 1,
    Retraining = 2,
    Shadowing = 3,
    Promoting = 4, //!< swapped; post-swap probation window running
    RolledBack = 5,
};

/** Printable state name ("HEALTHY", ...). */
const char *serveStateName(ServeState s);

/** Service tuning. */
struct ServeConfig
{
    /** Lifecycle management on/off (PSCA_SERVE in `psca serve`).
     *  It gates only the drift verdict: off = no verdict acts, so the
     *  loop runs the bootstrap firmware forever while the drift.* and
     *  serve.* stats still move. */
    bool lifecycle = true;
    size_t driftWindow = 12;        //!< blocks per drift verdict
    double driftZ = 3.0;            //!< feature mean-shift threshold
    size_t abIntervals = 16;        //!< shadow-scored blocks per A/B
    size_t probationIntervals = 16; //!< post-swap probation blocks
    size_t cooldownBlocks = 24;     //!< quiet blocks after any verdict
    uint64_t granularityInstr = 40000;
    uint64_t seed = 1;
    std::string dir; //!< ring + lifecycle artifact directory
    /** Record columns feeding the models (input order). */
    std::vector<size_t> columns{0, 1, 2, 3, 4, 5, 6, 7};
    /** Retrained forest shape (small: retrains happen inline). */
    int forestTrees = 8;
    int forestDepth = 6;
};

/** One schedule entry: a workload served for a number of blocks. */
struct ServeSegment
{
    Workload workload;
    uint64_t blocks = 0;
};

/** Aggregate outcome of a serve run (also exported as serve.*). */
struct ServeOutcome
{
    uint64_t blocks = 0;
    uint64_t driftsDetected = 0;
    uint64_t retrains = 0;
    uint64_t retrainFailures = 0;
    uint64_t shadowsScored = 0;
    uint64_t promotions = 0;
    uint64_t rejections = 0;
    uint64_t rollbacks = 0;
    uint64_t swapFailures = 0;
    uint64_t shadowCorruptions = 0;
    uint32_t activeVersion = 0;
    /** Live PPW gain over the per-segment high-only reference, %. */
    double ppwGainPct = 0.0;
    /** Deterministic lifecycle transition lines, in order. */
    std::vector<std::string> lifecycle;
};

class Service
{
  public:
    /**
     * Bring the service up: open (or bootstrap) the firmware ring
     * under cfg.dir, load + verify the active image, and register
     * the /health provider. @p build must carry the counter ids the
     * packages were trained with.
     */
    Service(ServeConfig cfg, BuildConfig build,
            std::vector<ServeSegment> schedule);
    ~Service();

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Run up to @p max_blocks blocks (0 = the whole schedule),
     * honoring stopRequested() at block boundaries. Each segment's
     * blocks are served while the next segment is recorded beside
     * them, so a stop returns once that recording ends. Writes the
     * lifecycle artifact and exports serve.* stats on return.
     */
    const ServeOutcome &run(uint64_t max_blocks = 0);

    ServeState state() const { return state_; }
    uint32_t activeVersion() const { return ring_.activeVersion(); }
    const FirmwareRing &ring() const { return ring_; }
    const ServeOutcome &outcome() const { return outcome_; }

    /** The /health JSON body (thread-safe; HTTP thread calls it). */
    std::string healthJson() const;

  private:
    struct SegmentRt; //!< per-segment runtime (replayer, labels, ref)

    void transition(ServeState to, const std::string &reason);
    void lifecycleLine(const std::string &line, bool warnLevel = false);
    bool bootstrap();
    FirmwarePackage trainCandidate(const SegmentRt &seg,
                                   const std::string &name);
    void loadActivePredictor();
    /** A recording of schedule entry @p idx's workload. */
    std::unique_ptr<TraceRecording> recording(size_t idx) const;
    /** Segment @p idx's runtime, over @p recording's finished record. */
    std::unique_ptr<SegmentRt> segmentRt(size_t idx,
                                         TraceRecording &recording) const;
    void enterSegment(size_t idx);
    void serveSegment(uint64_t budget);
    void stepBlock();
    void evaluateShadowGate();
    void evaluateProbation();
    void finishRun();
    void updateHealthView();

    ServeConfig cfg_;
    BuildConfig build_;
    std::vector<ServeSegment> schedule_;
    size_t k_; //!< sub-intervals per block

    FirmwareRing ring_;
    DriftDetector drift_;
    ServeState state_ = ServeState::Healthy;
    ServeOutcome outcome_;

    // Active firmware path: package -> VM predictor -> guardrail.
    FirmwarePackage activePkg_;
    std::unique_ptr<VmPredictor> activeVm_;
    std::unique_ptr<GuardrailedPredictor> guard_;
    uint64_t lastTrips_ = 0;

    // Shadow candidate (present only while SHADOWING/PROMOTING).
    std::unique_ptr<FirmwarePackage> shadowPkg_;
    std::unique_ptr<VmPredictor> shadowVm_;

    // Current segment runtime, and the next one's once serveSegment()
    // has recorded it (enterSegment() takes it over).
    std::unique_ptr<SegmentRt> seg_;
    std::unique_ptr<SegmentRt> next_;
    size_t segIdx_ = 0;
    uint64_t segBlocksDone_ = 0;

    // Decision shift register: [0] applies now, [2] just decided.
    uint8_t pending_[3] = {0, 0, 0};

    // A/B scoring window (SHADOWING).
    size_t abScored_ = 0;
    uint64_t abActiveWrong_ = 0;
    uint64_t abShadowWrong_ = 0;
    double abActiveEnergy_ = 0.0;
    double abShadowEnergy_ = 0.0;
    uint64_t abBaselineTrips_ = 0; //!< pre-swap guardrail baseline

    // Probation window (PROMOTING).
    size_t probationBlocks_ = 0;
    uint64_t probationTrips_ = 0;
    uint32_t promotedFrom_ = 0; //!< rollback target

    uint64_t cooldown_ = 0; //!< blocks before drift can re-trigger

    PpwAccumulator adaptive_;
    PpwAccumulator referenceHigh_;

    uint64_t lastPromoteBlock_ = 0;
    uint64_t lastRollbackBlock_ = 0;
    uint32_t lastRollbackVersion_ = 0;
    double lastMaxZ_ = 0.0;

    mutable std::mutex healthMu_;
    std::string healthJson_;
};

} // namespace serve
} // namespace psca

#endif // PSCA_SERVE_SERVICE_HH
