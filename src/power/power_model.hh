/**
 * @file
 * Event-based power model in the style of Haj-Yihia et al.'s Skylake
 * power model (the model the paper uses): per-interval power is a
 * mode-dependent static component plus a weighted sum of event
 * counts, normalized by interval cycles. Weights are calibrated so
 * the gated (low-power) configuration consumes ~35% less power than
 * the two-cluster configuration on average, matching Sec. 3.
 */

#ifndef PSCA_POWER_POWER_MODEL_HH
#define PSCA_POWER_POWER_MODEL_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "telemetry/counters.hh"

namespace psca {

/** Event weights and static terms of the linear power model. */
struct PowerModelConfig
{
    // Static (leakage + ungated clock tree) power in watts.
    double staticHighPerf = 3.6;
    double staticLowPower = 2.05; //!< cluster 2 clock-gated

    // Dynamic energy per event, in nanojoules.
    double perUopIssued = 0.095;
    double perFpOp = 0.06;     //!< additional for FP ops
    double perL1dAccess = 0.035;
    double perL2Access = 0.30;
    double perLlcAccess = 0.85;
    double perMemAccess = 3.6;
    double perBranchMispred = 0.55;
    double perFetchUop = 0.028;
    double perWrongPathUop = 0.09;
    double perModeSwitch = 35.0;

    bool operator==(const PowerModelConfig &) const = default;
};

/** Computes interval power and performance-per-watt summaries. */
class PowerModel
{
  public:
    explicit PowerModel(const PowerModelConfig &cfg = PowerModelConfig{},
                        double clock_ghz = 2.0)
        : cfg_(cfg), clockGhz_(clock_ghz)
    {}

    /**
     * Average power (watts) over one interval.
     *
     * @param delta Counter deltas for the interval.
     * @param cycles Interval duration in cycles.
     * @param mode Cluster configuration during the interval.
     */
    double intervalPowerWatts(const std::vector<uint64_t> &delta,
                              uint64_t cycles, CoreMode mode) const;

    /** Energy (nanojoules) over one interval. */
    double intervalEnergyNj(const std::vector<uint64_t> &delta,
                            uint64_t cycles, CoreMode mode) const;

    const PowerModelConfig &config() const { return cfg_; }

  private:
    PowerModelConfig cfg_;
    double clockGhz_;
};

/**
 * Accumulates instructions/cycles/energy across a run and reports
 * performance-per-watt. PPW here is (instructions per second) per
 * watt, which reduces to instructions per joule.
 */
class PpwAccumulator
{
  public:
    /** Fold in one interval. */
    void
    add(uint64_t instructions, uint64_t cycles, double energy_nj)
    {
        instructions_ += instructions;
        cycles_ += cycles;
        energyNj_ += energy_nj;
    }

    uint64_t instructions() const { return instructions_; }
    uint64_t cycles() const { return cycles_; }
    double energyNj() const { return energyNj_; }

    double
    ipc() const
    {
        return cycles_ ? static_cast<double>(instructions_) /
                static_cast<double>(cycles_)
                       : 0.0;
    }

    /** Instructions per joule (proportional to PPW). */
    double
    ppw() const
    {
        return energyNj_ > 0.0
            ? static_cast<double>(instructions_) / (energyNj_ * 1e-9)
            : 0.0;
    }

  private:
    uint64_t instructions_ = 0;
    uint64_t cycles_ = 0;
    double energyNj_ = 0.0;
};

} // namespace psca

#endif // PSCA_POWER_POWER_MODEL_HH
