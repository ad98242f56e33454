/**
 * @file
 * Design-time model evaluation (Sec. 4.3): k-fold cross-validation
 * with application-level partitioning (all telemetry of one app lands
 * entirely in the tuning or the validation set, so code shared across
 * samples cannot leak), sensitivity calibration (Sec. 6.3: pick the
 * decision threshold that keeps tuning-set RSV under a target), and
 * per-fold PGOS/RSV aggregation into mean/std summaries.
 */

#ifndef PSCA_CORE_CROSSVAL_HH
#define PSCA_CORE_CROSSVAL_HH

#include <functional>
#include <memory>
#include <string>

#include "core/metrics.hh"
#include "ml/model.hh"

namespace psca {

/** One fold's app-level index split. */
struct FoldSplit
{
    std::vector<size_t> tuneIdx;
    std::vector<size_t> validIdx;
};

/**
 * Random app-level split.
 *
 * @param tune_fraction Fraction of applications assigned to tuning.
 * @param max_tune_apps Cap on tuning applications (0 = no cap); this
 *        is the Fig. 4 training-set-diversity knob.
 */
FoldSplit appLevelSplit(const Dataset &data, double tune_fraction,
                        uint64_t seed, size_t max_tune_apps = 0);

/** Metrics from evaluating one trained model on one dataset. */
struct EvalResult
{
    ConfusionCounts confusion;
    double pgos = 0.0;
    double rsv = 0.0;
};

/**
 * Evaluate a model's offline predictions on a dataset (already in the
 * model's normalized feature space). RSV windows are per trace.
 */
EvalResult evaluateModel(const Model &model, const Dataset &data,
                         uint64_t rsv_window);

/** The tuning-set RSV calibration holds models to (Sec. 6.3: < 1.0%). */
constexpr double kTargetRsv = 0.01;

/** Share of a fold's applications that tune; the rest validate. */
constexpr double kTuneFraction = 0.8;

/**
 * Sensitivity calibration: raise the decision threshold to the
 * smallest candidate keeping RSV on the tuning set at or below
 * target_rsv.
 */
void calibrateThreshold(Model &model, const Dataset &tune,
                        uint64_t rsv_window,
                        double target_rsv = kTargetRsv);

/** Builds a trained model from normalized tuning data. */
using ModelFactory = std::function<std::unique_ptr<Model>(
    const Dataset &tune, uint64_t fold_seed)>;

/** Cross-validation options. */
struct CrossValOptions
{
    int folds = 8;
    size_t maxTuneApps = 0;    //!< 0 = all (Fig. 4 varies this)
    size_t maxTuneSamples = 0; //!< 0 = all (wall-time knob)
    uint64_t rsvWindow = 1600;
    bool calibrate = true;
    uint64_t seed = 7;
    /**
     * Non-empty: checkpoint each fold under this tag, so an
     * interrupted sweep resumes fold-by-fold. The tag must uniquely
     * identify the model factory and sweep point (the factory is a
     * closure the journal cannot hash); the dataset content and the
     * numeric options above are hashed automatically. Empty (the
     * default): folds are not checkpointed.
     */
    std::string checkpointTag;
};

/** Aggregated cross-validation statistics. */
struct CrossValSummary
{
    double pgosMean = 0.0;
    double pgosStd = 0.0;
    double rsvMean = 0.0;
    double rsvStd = 0.0;
    double accuracyMean = 0.0;
    std::vector<EvalResult> folds;
};

/**
 * Run k folds: app-level split, z-score scaling fit on tuning data,
 * model training, optional threshold calibration, validation metrics.
 */
CrossValSummary crossValidate(const Dataset &data,
                              const ModelFactory &factory,
                              const CrossValOptions &opts);

} // namespace psca

#endif // PSCA_CORE_CROSSVAL_HH
