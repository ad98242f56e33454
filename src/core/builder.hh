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
 * (recordTrace) and the closed-loop replayer (BlockReplayer) both run
 * on it, so a closed loop that stays in HighPerf reproduces its
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
 * The trace half of the workload's SimMemo keys under @p cfg: the
 * streamed content hash of its warmup and whole intervals, mixed with
 * the warmup/interval split. Costs one generator pass, no simulation;
 * the record.trace_hash_passes counter counts them.
 */
uint64_t memoTraceHash(const Workload &workload, const BuildConfig &cfg);

/**
 * The hash a recording keys its memo entries with: memoTraceHash()
 * while the memo is on, else empty (and no generator pass is spent).
 */
std::optional<uint64_t> recordingTraceHash(const Workload &workload,
                                           const BuildConfig &cfg);

/**
 * The start of every recording: @p workload's record with its header
 * set and no interval yet, counted in record.traces. Two
 * recordTracePass() calls, one per mode, fill it.
 */
TraceRecord newTraceRecord(const Workload &workload,
                           const BuildConfig &cfg, uint32_t app_id,
                           uint32_t trace_id);

/**
 * One fixed-mode pass of a recording: simulate @p workload in @p mode
 * on a fresh core and append that mode's counter deltas, cycles and
 * energy to @p record (the High or the Low vectors). The deltas come
 * from the simulation memo when it holds them under @p trace_hash (the
 * recordingTraceHash()); otherwise the trace streams through the
 * core's bounded chunked path, so memory does not grow with its
 * length, and the memo stores them. Records are byte-identical either
 * way. The two modes' passes write disjoint fields, so they may run
 * concurrently on one record.
 */
void recordTracePass(const Workload &workload, const BuildConfig &cfg,
                     std::optional<uint64_t> trace_hash, CoreMode mode,
                     TraceRecord &record);

/**
 * Simulate one workload in both modes and record telemetry: the
 * recordingTraceHash(), then both recordTracePass() calls as one
 * two-task region.
 *
 * @param memo_hash When given, receives the memoTraceHash() the
 *        recording computed for its memo keys; left empty with the
 *        memo off, which skips that pass.
 */
TraceRecord recordTrace(const Workload &workload,
                        const BuildConfig &cfg, uint32_t app_id,
                        uint32_t trace_id,
                        std::optional<uint64_t> *memo_hash = nullptr);

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
