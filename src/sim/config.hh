/**
 * @file
 * Static configuration of the clustered core and its memory system.
 * Defaults model the paper's scaled Skylake derivative: two 4-wide
 * out-of-order clusters (8-wide in high-performance mode), private
 * per-cluster memory execution units, and a Skylake-like cache
 * hierarchy.
 */

#ifndef PSCA_SIM_CONFIG_HH
#define PSCA_SIM_CONFIG_HH

#include <cstdint>

namespace psca {

/** Cluster configuration chosen by the adaptation model. */
enum class CoreMode : uint8_t
{
    HighPerf, //!< both clusters active, 8-wide issue
    LowPower  //!< cluster 2 clock-gated, 4-wide issue, ~35% less power
};

/** Display name of a core mode. */
inline const char *
coreModeName(CoreMode mode)
{
    return mode == CoreMode::HighPerf ? "high_perf" : "low_power";
}

/** One cache level's geometry and hit latency. */
struct CacheConfig
{
    uint32_t sizeBytes;
    uint32_t ways;
    uint32_t lineBytes = 64;
    uint32_t hitLatency;

    bool operator==(const CacheConfig &) const = default;
};

/** Full core + memory-system configuration. */
struct CoreConfig
{
    // Pipeline.
    int fetchWidth = 8;         //!< uops fetched/decoded per cycle
    int frontendDepth = 5;      //!< fetch-to-dispatch stages
    int retireWidth = 8;
    int robSize = 224;
    int rsSizePerCluster = 48;  //!< reservation-station entries
    int sqSize = 56;            //!< store-queue entries
    int issueWidthPerCluster = 4;
    int loadPortsPerCluster = 2;
    int mshrsPerCluster = 10;   //!< outstanding misses per MEU
    int interClusterFwdDelay = 2;
    int mispredictPenalty = 14; //!< redirect cycles after resolve

    // Cluster-gating transition (Sec. 3): register transfers execute
    // as microcode on cluster 1 while the core keeps running.
    int gateMicrocodeUops = 32; //!< worst-case register transfers
    int gateOverheadCycles = 12;
    int ungateOverheadCycles = 2;

    // Execution latencies per op class (issue-to-ready).
    int latIntAlu = 1;
    int latIntMul = 3;
    int latIntDiv = 20;
    int latFpAdd = 4;
    int latFpMul = 4;
    int latFpDiv = 14;
    int latFpFma = 5;
    int latStore = 1;
    int latBranch = 1;

    // Memory system.
    CacheConfig l1i{32 * 1024, 8, 64, 3};
    CacheConfig l1d{32 * 1024, 8, 64, 4};
    CacheConfig l2{1024 * 1024, 16, 64, 14};
    CacheConfig llc{8 * 1024 * 1024, 16, 64, 42};
    uint32_t memLatency = 190;
    /** One DRAM fill per this many cycles (shared by both modes). */
    uint32_t dramSlotCycles = 8;
    uint32_t uopCacheUops = 2048; //!< uop-cache capacity
    uint32_t tlbEntries = 64;
    uint32_t tlbMissPenalty = 20;
    uint32_t pageBytes = 4096;
    int storeForwardLatency = 5;

    // Clocking (used by the SLA window and budget maths, Sec. 5).
    double clockGhz = 2.0;

    bool operator==(const CoreConfig &) const = default;
};

} // namespace psca

#endif // PSCA_SIM_CONFIG_HH
