/**
 * @file
 * Telemetry drift detection against the active firmware's training
 * scaler (DESIGN.md §15). Every block's cycle-normalized aggregate
 * feature row is projected into the active scaler's z-space — the
 * exact transform the deployed model sees — and per-feature first and
 * second moments are accumulated over a fixed window of blocks. If
 * the model still matched the telemetry distribution it was trained
 * on, the window-mean z of every feature sits near 0 and the z
 * variance near 1; a sustained mean shift or variance inflation in
 * scaler units is exactly the statistical blindspot the paper's
 * retraining story closes.
 *
 * A second, model-free signal trends the guardrail trip rate against
 * the baseline established right after the reference was set: a model
 * whose mistakes the guardrail keeps catching is drifting even if the
 * input marginals look stable.
 *
 * Determinism: plain sequential double accumulation on the (single)
 * serve loop thread — no wall clock, no sampling — so the verdict
 * sequence is a pure function of the telemetry stream.
 */

#ifndef PSCA_SERVE_DRIFT_HH
#define PSCA_SERVE_DRIFT_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ml/dataset.hh"
#include "sim/config.hh"

namespace psca {
namespace serve {

/** Drift-detector tuning (serve env knobs; see OPERATIONS.md). */
struct DriftConfig
{
    /** Blocks per evaluation window. */
    size_t windowBlocks = 12;
    /** Window-mean |z| above this in any feature = mean drift. */
    double zThreshold = 3.0;
    /** Window z-variance above this in any feature = spread drift. */
    double varThreshold = 16.0;
    /** Trip-rate drift when rate > max(floor, baseline * factor). */
    double tripRateFactor = 4.0;
    double tripRateFloor = 0.25;
};

/** One completed window's verdict. */
struct DriftVerdict
{
    bool drifted = false;
    double maxAbsMeanZ = 0.0;
    double maxVarZ = 0.0;
    size_t worstFeature = 0;
    double tripRate = 0.0;
    std::string reason; //!< "" when healthy
};

class DriftDetector
{
  public:
    explicit DriftDetector(DriftConfig cfg);

    /**
     * Adopt a new reference distribution (the active package's
     * per-mode scalers over @p dims features). Clears the window and
     * the guardrail-trip baseline.
     */
    void setReference(const FeatureScaler &high,
                      const FeatureScaler &low, size_t dims);

    /**
     * Observe one finished block: @p agg is the cycle-normalized
     * aggregate feature row (model column order), @p mode the mode
     * the block executed in (selects the scaler), @p trips_delta the
     * guardrail trips attributed to this block.
     */
    void observe(const std::vector<float> &agg, CoreMode mode,
                 uint64_t trips_delta);

    /** True when a full window is ready to evaluate. */
    bool windowComplete() const
    {
        return dims_ > 0 && count_ >= cfg_.windowBlocks;
    }

    /**
     * Evaluate and reset the completed window. The first window after
     * setReference() establishes the trip-rate baseline and can only
     * drift on the z statistics.
     */
    DriftVerdict takeWindow();

  private:
    DriftConfig cfg_;
    FeatureScaler high_;
    FeatureScaler low_;
    size_t dims_ = 0;
    std::vector<double> sumZ_;
    std::vector<double> sumZ2_;
    size_t count_ = 0;
    uint64_t trips_ = 0;
    double baselineTripRate_ = -1.0; //!< <0 until first window
};

} // namespace serve
} // namespace psca

#endif // PSCA_SERVE_DRIFT_HH
