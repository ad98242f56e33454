/**
 * @file
 * Service level agreement specification (Sec. 3.1): low-power mode
 * must achieve at least pSla of high-performance-mode IPC over every
 * tSla window, guaranteed for at least `guarantee` of windows.
 */

#ifndef PSCA_CORE_SLA_HH
#define PSCA_CORE_SLA_HH

#include <cstdint>

#include "sim/config.hh"

namespace psca {

/** An SLA contract. */
struct SlaSpec
{
    /** Minimum low-power/high-perf IPC ratio (paper default 0.90). */
    double pSla = 0.90;
    /** Measurement window in seconds (paper: 1 ms). */
    double tSlaSeconds = 1e-3;
    /** Fraction of windows that must meet the threshold (99%). */
    double guarantee = 0.99;

    /**
     * Number of predictions per SLA window: W = R * T_SLA * (1/L)
     * with R the peak instruction throughput (paper example: 16 GIPS,
     * 1 ms, 10k-instruction predictions -> W = 1600).
     *
     * @param peak_ips Peak instructions per second.
     * @param granularity_instr Prediction interval L.
     */
    uint64_t
    windowPredictions(double peak_ips,
                      uint64_t granularity_instr) const
    {
        const double w = peak_ips * tSlaSeconds /
            static_cast<double>(granularity_instr);
        return w < 1.0 ? 1 : static_cast<uint64_t>(w);
    }

    /** The window at @p core's peak rate (clock x retire width). */
    uint64_t
    windowPredictions(const CoreConfig &core,
                      uint64_t granularity_instr) const
    {
        return windowPredictions(
            core.clockGhz * 1e9 * static_cast<double>(core.retireWidth),
            granularity_instr);
    }
};

} // namespace psca

#endif // PSCA_CORE_SLA_HH
