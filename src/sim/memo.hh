/**
 * @file
 * Content-hashed simulation memo cache. A fixed-mode replay of a
 * trace is a pure function of (trace content, core
 * configuration, mode): the same stream replayed on the same machine
 * state produces the same per-interval telemetry deltas, bit for
 * bit. The memo cache stores those deltas on disk keyed by that
 * triple, so dataset builds, cross-validation fan-outs, and benches
 * that re-simulate identical traces skip straight to the telemetry.
 *
 * Invalidation (DESIGN.md §9): the trace key is
 * streamContentHash() mixed with the warmup/interval split,
 * so any change to the generator stream or interval boundaries
 * misses; the config key hashes every CoreConfig field, so any
 * timing-model parameter change misses; kMemoVersion is bumped when
 * the *meaning* of a counter or the timing model itself changes.
 * Entries are one file per key, written atomically (temp + rename),
 * safe under concurrent writers at any PSCA_THREADS.
 *
 * PSCA_SIM_MEMO=0 disables the cache; it lives under cacheDirectory()
 * (common/journal.hh), beside the corpus cache and the journal.
 *
 * Integrity: entries are sealed files (DESIGN.md §10, "Sealed
 * files"); one that fails a check is quarantined and the simulation
 * reruns — a corrupt cache can degrade build time, never results.
 * Transient IO errors (fault site persist.io_error) are retried with
 * bounded exponential backoff before falling back to resimulation.
 */

#ifndef PSCA_SIM_MEMO_HH
#define PSCA_SIM_MEMO_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/config.hh"

namespace psca {

/** Identity of one fixed-mode simulation of one decoded trace. */
struct MemoKey
{
    uint64_t traceHash = 0;  //!< decoded stream + interval split
    uint64_t configHash = 0; //!< coreConfigHash() of the CoreConfig
    CoreMode mode = CoreMode::HighPerf;
};

/**
 * Stable hash over every CoreConfig field. Exhaustive by hand: a
 * field added to CoreConfig must be added here, or stale memo
 * entries would survive a timing-relevant config change.
 */
uint64_t coreConfigHash(const CoreConfig &cfg);

/**
 * The per-interval result of a fixed-mode simulation, held sparse as
 * on disk: each interval's nonzero telemetry-counter deltas as
 * (index, value) entries, about 147 of the kNumTelemetryCounters per
 * interval (1.5 KB instead of a 7.5 KB full-width vector). Interval
 * i's entries are [offsets_[i], offsets_[i + 1]) of one index and one
 * value array. Cycles are recoverable as the Ctr::Cycles delta.
 */
class MemoIntervals
{
  public:
    size_t size() const { return offsets_.size() - 1; }

    /** Reserve room for n intervals holding entries entries in all. */
    void reserve(size_t n, size_t entries);

    /** Append one interval from its full-width delta vector. */
    void append(const std::vector<uint64_t> &full_delta);

    /** Open an empty interval at the end; push() fills it. */
    void openInterval() { offsets_.push_back(index_.size()); }

    /** Add one entry to the last interval. */
    void
    push(uint16_t idx, uint64_t value)
    {
        index_.push_back(idx);
        value_.push_back(value);
        ++offsets_.back();
    }

    /** Write interval i full width into scratch (resized to fit). */
    void expand(size_t i, std::vector<uint64_t> &scratch) const;

    /** Interval i's counter indices, parallel to values(i). */
    std::span<const uint16_t>
    indices(size_t i) const
    {
        return {index_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
    }

    /** Interval i's nonzero deltas, parallel to indices(i). */
    std::span<const uint64_t>
    values(size_t i) const
    {
        return {value_.data() + offsets_[i], offsets_[i + 1] - offsets_[i]};
    }

  private:
    std::vector<size_t> offsets_{0};
    std::vector<uint16_t> index_;
    std::vector<uint64_t> value_;
};

/** Process-wide memo cache under cacheDirectory(). */
class SimMemo
{
  public:
    static SimMemo &instance();

    /** False when PSCA_SIM_MEMO=0 disabled the cache. */
    bool enabled() const { return enabled_; }

    /**
     * Fetch the memoized intervals for key.
     * @return true on a hit (out is replaced), false on miss or when
     *         the cache is disabled.
     */
    bool lookup(const MemoKey &key, MemoIntervals &out) const;

    /** Persist intervals under key (atomic; no-op when disabled). */
    void store(const MemoKey &key, const MemoIntervals &intervals) const;

    /** On-disk location for a key (tests). */
    std::string pathFor(const MemoKey &key) const;

  private:
    SimMemo();

    std::string dir_;
    bool enabled_ = true;
};

} // namespace psca

#endif // PSCA_SIM_MEMO_HH
