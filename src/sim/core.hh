/**
 * @file
 * ClusteredCore: the timing model of the paper's scaled-Skylake core
 * with two 4-wide out-of-order clusters and cluster gating (Fig. 2).
 *
 * The model is timestamp-propagation style (as in interval/Sniper
 * core models): each micro-op's fetch, dispatch, issue, completion,
 * and retire cycles are computed from operand readiness and bounded
 * structural resources (ROB, per-cluster reservation stations and
 * issue ports, load ports, MSHRs, store queue, retire bandwidth,
 * DRAM fill bandwidth). This reproduces the first-order IPC contrast
 * between 8-wide (both clusters) and 4-wide (cluster 2 gated)
 * operation that the paper's gating labels depend on, at simulation
 * speeds that allow corpus-scale dataset generation.
 *
 * Cluster-gating transitions follow Sec. 3: switching to low-power
 * mode drains steering, transfers up to 32 live registers via
 * microcode on cluster 1, then clock-gates cluster 2 (tens of
 * cycles); ungating is a few cycles.
 *
 * Hot path (DESIGN.md §9): the generator-driven run() replays the
 * generator's emit buffer in place (TraceGenerator::next()), batches
 * all per-uop telemetry into a plain-struct accumulator flushed once
 * per interval (counters that depend only on the stream are derived
 * there, not bumped per uop), and addresses every circular structure
 * with wrap counters instead of modulo. Both run() overloads feed the
 * same processUop().
 */

#ifndef PSCA_SIM_CORE_HH
#define PSCA_SIM_CORE_HH

#include <cstdint>
#include <vector>

#include "sim/bandwidth.hh"
#include "sim/bpred.hh"
#include "sim/cache.hh"
#include "sim/config.hh"
#include "telemetry/counters.hh"
#include "trace/generator.hh"

namespace psca {

/** Timing summary of one run() call (one adaptation interval). */
struct IntervalStats
{
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    CoreMode mode = CoreMode::HighPerf;

    double
    ipc() const
    {
        return cycles ? static_cast<double>(instructions) /
                static_cast<double>(cycles)
                      : 0.0;
    }
};

/**
 * Interval-local telemetry accumulator. All counter updates the core
 * itself performs are commutative integer adds, so batching them in
 * plain fixed-size arrays and flushing once per interval yields
 * byte-identical totals while keeping CounterRegistry lookups and
 * the 936-entry counter vector off the per-uop path. (The memory
 * hierarchy still writes Counters directly; its indices are cached
 * at construction.) Counters that depend only on the uop stream
 * (decode, dispatch, issue and retire totals, per-class retire
 * counts) are not accumulated at all: every uop is issued exactly
 * once, so flush() derives them from opcIssued.
 */
struct HotCtrs
{
    uint64_t scalar[kNumScalarCtrs] = {};
    uint64_t cluster[kNumClusters][kNumClusterCtrs] = {};
    uint64_t robOccHist[16] = {};
    uint64_t rsOccHist[kNumClusters][16] = {};
    uint64_t sqOccHist[16] = {};
    uint64_t loadLatHist[16] = {};
    uint64_t fetchBundleHist[9] = {};
    uint64_t issueBundleHist[kNumClusters][5] = {};
    uint64_t depWaitHist[16] = {};
    uint64_t uopsPcRegion[64] = {};
    uint64_t brMispredPcRegion[64] = {};
    uint64_t opcIssued[kNumClusters][kNumOpClasses] = {};

    void
    inc(Ctr c, uint64_t n = 1)
    {
        scalar[static_cast<size_t>(c)] += n;
    }

    void
    inc(ClusterCtr c, int cl, uint64_t n = 1)
    {
        cluster[cl][static_cast<size_t>(c)] += n;
    }

    /**
     * Add every accumulated count, and the stream counters derived
     * from opcIssued, into out; then zero self.
     */
    void flush(Counters &out);
};

/** The two-cluster out-of-order core with cluster gating. */
class ClusteredCore
{
  public:
    explicit ClusteredCore(const CoreConfig &cfg = CoreConfig{});

    /** Full machine reset (caches, predictor, timestamps, counters). */
    void reset();

    /**
     * Request a cluster configuration; applies the microcoded
     * transition cost when the mode actually changes.
     */
    void setMode(CoreMode mode);

    CoreMode mode() const { return mode_; }

    /**
     * Execute exactly n micro-ops from the generator.
     * @return Cycles/instructions for this interval.
     */
    IntervalStats run(TraceGenerator &gen, uint64_t n);

    /**
     * Execute n micro-ops from the generator as a warm-up: the same
     * machine state, counters and sim.* work stats as run(gen, n),
     * except that it counts as one sim.warmups, not one sim.intervals.
     */
    void warmUp(TraceGenerator &gen, uint64_t n);

    /**
     * Execute the n micro-ops at ops: the same interval as feeding
     * that stream through a generator. Production replay streams
     * through the generator overload; this one lets tests replay
     * streams no kernel emits.
     */
    IntervalStats run(const MicroOp *ops, uint64_t n);

    /** Telemetry accumulated since reset(). */
    const Counters &counters() const { return counters_; }
    Counters &counters() { return counters_; }

    /** Retire-time horizon (total cycles since reset). */
    uint64_t currentCycle() const { return lastRetireTime_; }

    const CoreConfig &config() const { return cfg_; }

  private:
    /** Counter values snapshotted at interval start. */
    struct IntervalSnapshot
    {
        uint64_t startCycle = 0;
        uint64_t busy0 = 0;
        uint64_t busy1 = 0;
        uint64_t l1dHit = 0;
        uint64_t l1dMiss = 0;
        uint64_t l2Miss = 0;
        uint64_t llcMiss = 0;
        uint64_t branches = 0;
        uint64_t branchMiss = 0;
    };

    IntervalSnapshot beginInterval();
    IntervalStats endInterval(const IntervalSnapshot &snap, uint64_t n,
                              uint64_t elapsed_ns, bool warmup);
    IntervalStats runStream(TraceGenerator &gen, uint64_t n, bool warmup);
    void processUop(const MicroOp &op);
    int steer(const MicroOp &op);
    int execLatency(OpClass cls) const;

    CoreConfig cfg_;
    CoreMode mode_ = CoreMode::HighPerf;
    Counters counters_;
    HotCtrs hot_;
    MemoryHierarchy mem_;
    TournamentBpred bpred_;

    // Register timestamp state.
    uint64_t regReady_[kNumArchRegs] = {};
    uint64_t regLastWriter_[kNumArchRegs] = {}; //!< writer seq number
    uint8_t regCluster_[kNumArchRegs] = {};

    // In-order structures. Circular indices are wrap counters (a
    // branch, not %: the sizes are runtime-configured, so % would
    // compile to a hardware divide on the per-uop path).
    uint64_t seq_ = 0;
    size_t robSlot_ = 0;
    std::vector<uint64_t> robRetire_;
    // Retire is in order: each reservation starts at or after
    // lastRetireTime_, the previous one's cycle (see InOrderSlots).
    InOrderSlots retireSlots_;
    uint64_t lastRetireTime_ = 0;

    // Frontend state.
    uint64_t fetchCycle_ = 0;
    int fetchedThisCycle_ = 0;
    uint64_t lastFetchLine_ = ~0ULL;

    // Per-cluster backend resources.
    BandwidthRing issueRing_[kNumClusters];
    BandwidthRing loadPorts_[kNumClusters];
    MshrPool mshrs_[kNumClusters];
    std::vector<uint64_t> rsIssueTime_[kNumClusters];
    size_t rsSlot_[kNumClusters] = {};
    uint64_t busyIssueCycles_[kNumClusters] = {};
    int steerBalance_ = 0;

    // Store queue and forwarding.
    std::vector<uint64_t> sqFreeTime_;
    size_t sqSlot_ = 0;
    struct FwdEntry
    {
        uint64_t addr = ~0ULL;
        uint64_t readyTime = 0;
    };
    std::vector<FwdEntry> fwdTable_;

    // Gating transition barrier.
    uint64_t minDispatchTime_ = 0;

    // Interval bookkeeping.
    uint64_t intervalIssued_ = 0;
};

} // namespace psca

#endif // PSCA_SIM_CORE_HH
