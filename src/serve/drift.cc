#include "serve/drift.hh"

#include <cmath>

namespace psca {
namespace serve {

DriftDetector::DriftDetector(DriftConfig cfg) : cfg_(cfg)
{
    if (cfg_.windowBlocks < 2)
        cfg_.windowBlocks = 2;
}

void
DriftDetector::setReference(const FeatureScaler &high,
                            const FeatureScaler &low, size_t dims)
{
    high_ = high;
    low_ = low;
    dims_ = dims;
    sumZ_.assign(dims_, 0.0);
    sumZ2_.assign(dims_, 0.0);
    count_ = 0;
    trips_ = 0;
    baselineTripRate_ = -1.0;
}

void
DriftDetector::observe(const std::vector<float> &agg, CoreMode mode,
                       uint64_t trips_delta)
{
    if (dims_ == 0 || agg.size() < dims_)
        return;
    const FeatureScaler &scaler =
        mode == CoreMode::HighPerf ? high_ : low_;
    std::vector<float> z(dims_);
    scaler.applyRow(agg.data(), z.data());
    for (size_t j = 0; j < dims_; ++j) {
        const double zj = std::isfinite(z[j]) ? z[j] : 0.0;
        sumZ_[j] += zj;
        sumZ2_[j] += zj * zj;
    }
    ++count_;
    trips_ += trips_delta;
}

DriftVerdict
DriftDetector::takeWindow()
{
    DriftVerdict v;
    if (count_ == 0)
        return v;
    const double n = static_cast<double>(count_);
    for (size_t j = 0; j < dims_; ++j) {
        const double mean = sumZ_[j] / n;
        const double var = sumZ2_[j] / n - mean * mean;
        if (std::fabs(mean) >= v.maxAbsMeanZ) {
            v.maxAbsMeanZ = std::fabs(mean);
            v.worstFeature = j;
        }
        if (var > v.maxVarZ)
            v.maxVarZ = var;
    }
    v.tripRate = static_cast<double>(trips_) / n;

    const bool first_window = baselineTripRate_ < 0.0;
    if (first_window)
        baselineTripRate_ = v.tripRate;

    if (v.maxAbsMeanZ > cfg_.zThreshold) {
        v.drifted = true;
        v.reason = "feature mean shift";
    } else if (v.maxVarZ > cfg_.varThreshold) {
        v.drifted = true;
        v.reason = "feature variance inflation";
    } else if (!first_window &&
               v.tripRate > std::max(cfg_.tripRateFloor,
                                     baselineTripRate_ *
                                         cfg_.tripRateFactor))
    {
        v.drifted = true;
        v.reason = "guardrail trip-rate trend";
    }

    sumZ_.assign(dims_, 0.0);
    sumZ2_.assign(dims_, 0.0);
    count_ = 0;
    trips_ = 0;
    return v;
}

} // namespace serve
} // namespace psca
