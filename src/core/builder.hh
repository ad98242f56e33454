/**
 * @file
 * Dataset construction (Sec. 4.1): each workload trace is simulated
 * once per cluster configuration; telemetry counters, cycles, and
 * energy are snapshotted every 10k instructions. Records store raw
 * per-interval counter deltas so features can be re-aggregated to any
 * coarser prediction granularity ("sum over successive intervals and
 * re-normalize") and labels can be recomputed for any SLA threshold
 * (the post-silicon relabeling of Sec. 7.3).
 *
 * One TraceRecording records a trace, as two tasks (hash + HighPerf
 * pass, LowPower pass) that recordTrace() runs as a region of their
 * own and the serve loop runs beside its serving task. Every interval
 * — recorded, replayed by the closed loop, or settled from the memo —
 * is projected from its full-width counter delta by projectInterval().
 *
 * Ground truth: y_t = 1 iff low-power-mode IPC in interval t is at
 * least pSla of high-performance-mode IPC; the training sample pairs
 * counters x_t with label y_{t+2} (Fig. 3's pipeline timing).
 *
 * Records are cached on disk keyed by a hash of the workload and
 * configuration, since corpus-scale dual-mode simulation is the
 * dominant cost of every experiment.
 */

#ifndef PSCA_CORE_BUILDER_HH
#define PSCA_CORE_BUILDER_HH

#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "ml/dataset.hh"
#include "power/power_model.hh"
#include "sim/config.hh"
#include "sim/core.hh"
#include "trace/corpus.hh"

namespace psca {

/** Recording configuration. */
struct BuildConfig
{
    uint64_t intervalInstr = 10000;
    uint64_t warmupInstr = 50000;
    /** Registry ids of the counters to record per interval. */
    std::vector<uint16_t> counterIds;
    CoreConfig core;
    PowerModelConfig power;

    bool operator==(const BuildConfig &) const = default;
};

/** Dual-mode telemetry record of one trace. */
struct TraceRecord
{
    std::string name;
    uint32_t appId = 0;
    uint32_t traceId = 0;
    uint16_t numCounters = 0;

    /** Raw counter deltas, intervals x numCounters, per mode. */
    std::vector<float> deltaHigh;
    std::vector<float> deltaLow;
    std::vector<float> cyclesHigh; //!< per interval
    std::vector<float> cyclesLow;
    std::vector<float> energyHighNj;
    std::vector<float> energyLowNj;

    size_t numIntervals() const { return cyclesHigh.size(); }

    const float *
    rowHigh(size_t t) const
    {
        return deltaHigh.data() + t * numCounters;
    }

    const float *
    rowLow(size_t t) const
    {
        return deltaLow.data() + t * numCounters;
    }
};

/**
 * One replay of a workload on a fresh core, one telemetry interval per
 * step(): the core is reset, set to @p mode and warmed up for
 * cfg.warmupInstr before the first interval. The recorder
 * (TraceRecording) and the closed-loop replayer (BlockReplayer) both
 * run on it, so a closed loop that stays in HighPerf reproduces its
 * reference record by construction.
 */
class IntervalReplay
{
  public:
    IntervalReplay(const Workload &workload, const BuildConfig &cfg,
                   CoreMode mode);

    /** Simulate the next interval in the current mode. */
    IntervalStats step();

    /** Full-width counter deltas of the last step(). */
    const std::vector<uint64_t> &delta() const { return delta_; }

    /** Mode of the next step() (applies the transition cost). */
    void setMode(CoreMode mode) { core_.setMode(mode); }
    CoreMode mode() const { return core_.mode(); }

  private:
    uint64_t intervalInstr_;
    ClusteredCore core_;
    TraceGenerator gen_;
    std::vector<uint64_t> prev_;
    std::vector<uint64_t> delta_;
};

/**
 * One interval's accounting: with cfg.intervalInstr instructions, the
 * arguments of one PpwAccumulator::add().
 */
struct IntervalAdd
{
    uint64_t cycles = 0;
    double energyNj = 0.0;
};

/**
 * Project a full-width counter delta onto one telemetry interval: the
 * cfg.counterIds row into @p row (unless null) and the interval's add,
 * whose cycles are the Cycles delta and whose energy is charged in
 * @p mode. The recorder, BlockReplayer and PassReplayer's memo settle
 * all call it, so a replayed block matches its record bit for bit.
 *
 * @param view Where the row is read instead of @p delta (a
 *        fault-injected copy); the add always reads @p delta.
 */
IntervalAdd projectInterval(const std::vector<uint64_t> &delta,
                            const BuildConfig &cfg, CoreMode mode,
                            float *row,
                            const std::vector<uint64_t> *view = nullptr);

/**
 * The trace half of the workload's SimMemo keys under @p cfg: the
 * streamed content hash of its warmup and whole intervals, mixed with
 * the warmup/interval split. Costs one generator pass, no simulation;
 * the record.trace_hash_passes counter counts them.
 */
uint64_t memoTraceHash(const Workload &workload, const BuildConfig &cfg);

/**
 * One trace's dual-mode recording, as two tasks the caller runs in
 * index order in one parallel region: task 0 takes the memo's trace
 * hash (memoTraceHash(), skipped with the memo off) and records the
 * HighPerf pass; task 1 waits for that hash and records the LowPower
 * pass. Each pass fills only its mode's vectors, from the simulation
 * memo when it holds them under the hash, else by streaming the trace
 * through a fresh core (memory does not grow with its length) and
 * storing them in the memo; the bytes are the same either way.
 *
 * Task 1's wait cannot deadlock while task 0 has the lower index in
 * the region: ThreadPool claims indices in increasing order, so when
 * task 1 starts, task 0 is running on another thread or done, and a
 * one-thread pool or a nested region runs them in order on one thread.
 * A failed hash rethrows in both. The workload and config must outlive
 * the object.
 */
class TraceRecording
{
  public:
    static constexpr size_t kTasks = 2;

    /** Start @p workload's record, counted in record.traces. */
    TraceRecording(const Workload &workload, const BuildConfig &cfg,
                   uint32_t app_id, uint32_t trace_id);
    TraceRecording(const TraceRecording &) = delete;
    TraceRecording &operator=(const TraceRecording &) = delete;

    /** Run task @p task, 0 or 1, once each. */
    void runTask(size_t task);

    /** Both tasks as one two-task region, in a record_trace phase. */
    void run();

    /** Task 0's hash, empty with the memo off (waits for it). */
    std::optional<uint64_t> memoHash() const { return hashed_.get(); }

    /** The finished record; both tasks must have run. */
    TraceRecord take();

  private:
    void recordPass(CoreMode mode, std::optional<uint64_t> trace_hash);

    const Workload &workload_;
    const BuildConfig &cfg_;
    TraceRecord record_;
    std::packaged_task<std::optional<uint64_t>()> hash_;
    std::shared_future<std::optional<uint64_t>> hashed_;
};

/** Record one workload in both modes: one TraceRecording, run(). */
TraceRecord recordTrace(const Workload &workload,
                        const BuildConfig &cfg, uint32_t app_id,
                        uint32_t trace_id);

/**
 * "<cacheDirectory()>/<stem>_<key as 16 hex digits>.bin": the name of
 * a cache file keyed by @p key.
 */
std::string cacheFilePath(const std::string &stem, uint64_t key);

/**
 * Load a cache file (DESIGN.md §10, "Sealed files"): a sealed file
 * whose payload starts with its @p key, then what @p parse reads (it
 * returns a failure reason or nullptr). True on an intact hit, counted
 * in "<stats>_hits". Any failed check, or a fired
 * persist.cache_corrupt fault, quarantines the file and counts
 * "<stats>_quarantined" (and "<stats>_quarantine_collisions"); the
 * caller then rebuilds and stores.
 */
bool loadCacheFile(const std::string &path, uint64_t magic,
                   uint32_t version, uint64_t key,
                   const std::string &stats,
                   const std::function<const char *(BinaryReader &)> &parse);

/**
 * Publish the cache file loadCacheFile() reads, in one transactional
 * write: header, @p key, @p fill's payload, trailer. A failed write
 * counts "<stats>_write_failures" and returns false.
 */
bool storeCacheFile(const std::string &path, uint64_t magic,
                    uint32_t version, uint64_t key,
                    const std::string &stats,
                    const std::function<void(BinaryWriter &)> &fill);

/**
 * Stable hash of everything that affects a corpus's records: the key
 * that names and seals recordCorpus()'s "<tag>_<hex>.bin" cache file.
 */
uint64_t corpusConfigHash(const std::vector<Workload> &workloads,
                          const BuildConfig &cfg);

/**
 * Record a list of workloads, using/maintaining the on-disk cache.
 *
 * @param cache_tag Human-readable cache file prefix (e.g. "hdtr").
 * @param app_ids Parallel app-id list (same length as workloads).
 */
std::vector<TraceRecord> recordCorpus(
    const std::vector<Workload> &workloads,
    const std::vector<uint32_t> &app_ids, const BuildConfig &cfg,
    const std::string &cache_tag);

/** Feature/label assembly options. */
struct AssemblyOptions
{
    /** Prediction granularity; multiple of the record interval. */
    uint64_t granularityInstr = 10000;
    double pSla = 0.90;
    /** Which mode's telemetry forms the features. */
    CoreMode telemetryMode = CoreMode::LowPower;
    /** Record-column subset to keep (empty = all columns). */
    std::vector<size_t> columns;
};

/**
 * Assemble an ML dataset from records: aggregate intervals to the
 * requested granularity, cycle-normalize, and pair x_t with y_{t+2}.
 */
Dataset assembleDataset(const std::vector<TraceRecord> &records,
                        const AssemblyOptions &opts,
                        uint64_t interval_instr);

/** Ground-truth gate labels of one record at block granularity k. */
std::vector<uint8_t> blockLabels(const TraceRecord &record, size_t k,
                                 double p_sla);

/** Instruction-weighted ideal low-power residency (Fig. 7). */
double idealLowPowerResidency(const std::vector<TraceRecord> &records,
                              double p_sla);

} // namespace psca

#endif // PSCA_CORE_BUILDER_HH
