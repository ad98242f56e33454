/**
 * @file
 * Process-wide performance-statistics registry: named counters,
 * gauges, and log2-bucketed value/duration histograms (elbencho-style
 * buckets with min/max, exact integer moment sums for mean/variance,
 * and percentile queries), dumped as a machine-readable JSON run
 * report or a human text table at the end of a run.
 *
 * Design constraints (see DESIGN.md, "Observability overhead" and
 * §8 "Concurrency architecture"):
 *
 *  - Stat objects are looked up by name once (the registry's map is
 *    mutex-guarded for registration) and then mutated through a
 *    stable reference; objects are never deallocated, so cached
 *    references stay valid for the process lifetime, including
 *    across reset().
 *  - Mutation is safe under the parallel execution layer
 *    (common/parallel.hh). Counters are sharded per thread: add() is
 *    one relaxed fetch_add on a cache line no other running thread
 *    touches, so the hot path stays an uncontended add and the final
 *    value() (read after the pool joins) is the exact deterministic
 *    sum regardless of thread count. Gauges are relaxed atomics.
 *    Histograms take a private mutex per add(): they are recorded at
 *    decision granularity (once per tens of thousands of simulated
 *    instructions), where an uncontended lock is noise. Moments are
 *    kept as exact 128-bit integer sums (value and value squared), so
 *    mean/variance are order-invariant, covered by the bit-identity
 *    contract, and merge deterministically across shards: any merge
 *    order of per-shard snapshots reproduces the single-registry
 *    report byte for byte (DESIGN.md §12).
 *  - Every stat is mergeable: Counter/Gauge/Histogram values combine
 *    through StatSnapshot (obs/snapshot.hh) with commutative,
 *    associative rules (sum / max / exact bucket+moment sums), the
 *    primitive the distributed coordinator consumes.
 */

#ifndef PSCA_OBS_STATS_HH
#define PSCA_OBS_STATS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace psca {

class BinaryReader;
class BinaryWriter;

namespace obs {

/**
 * Exact 128-bit accumulator for histogram moments. Addition is
 * commutative and associative (mod 2^128 on overflow, which takes
 * ~4e9 samples at the moment clamp), so accumulation order — and
 * snapshot merge order — can never perturb the derived mean/variance.
 */
using Uint128 = unsigned __int128;

struct HistogramSnapshot;

/**
 * Monotonically increasing event count, sharded so concurrent
 * writers on different threads land on different cache lines. The
 * shard is picked by a per-thread round-robin id, so up to kShards
 * threads mutate completely contention-free; value() sums shards.
 */
class Counter
{
  public:
    /** Shards (power of two); more threads than this share lines. */
    static constexpr size_t kShards = 16;

    void
    add(uint64_t n = 1)
    {
        shards_[shardIndex()].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    uint64_t
    value() const
    {
        uint64_t sum = 0;
        for (const auto &s : shards_)
            sum += s.value.load(std::memory_order_relaxed);
        return sum;
    }

    void
    reset()
    {
        for (auto &s : shards_)
            s.value.store(0, std::memory_order_relaxed);
    }

  private:
    /** This thread's shard slot, assigned round-robin on first use. */
    static size_t shardIndex();

    struct alignas(64) Shard
    {
        std::atomic<uint64_t> value{0};
    };

    std::array<Shard, kShards> shards_{};
};

/** Last-written instantaneous value (residencies, budgets, rates). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Log2-bucketed histogram of non-negative integer values (durations
 * in nanoseconds, operation counts, sizes).
 *
 * Buckets 0..7 hold the exact values 0..7; above that each power of
 * two is split into kBucketFraction sub-buckets, so the relative
 * bucket width is 1/kBucketFraction (25%) everywhere — percentile
 * queries are exact in the linear region and within one bucket width
 * (a factor of 1.25) beyond it. Alongside the buckets the histogram
 * keeps exact min/max and exact integer moment sums (values saturate
 * at 2^kMaxLog2 for the moments, matching the bucket clamp), from
 * which mean/variance derive deterministically.
 */
class Histogram
{
  public:
    /** Sub-buckets per power of two (must be a power of two). */
    static constexpr uint32_t kBucketFraction = 4;
    /** log2 of the largest non-clamped value (~2^47 ns = 39 hours). */
    static constexpr uint32_t kMaxLog2 = 48;
    /** Linear region: values < 2 * kBucketFraction map to themselves. */
    static constexpr uint64_t kLinearMax = 2 * kBucketFraction;
    static constexpr size_t kNumBuckets =
        kLinearMax + (kMaxLog2 - 3) * kBucketFraction;

    /** Values at-or-above this saturate in the moment sums. */
    static constexpr uint64_t kMomentClamp = 1ULL << kMaxLog2;

    void
    add(uint64_t v)
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++buckets_[bucketIndex(v)];
        ++count_;
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
        const uint64_t m = v < kMomentClamp ? v : kMomentClamp;
        sum_ += m;
        sumSq_ += static_cast<Uint128>(m) * m;
    }

    uint64_t
    count() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return count_;
    }

    uint64_t
    min() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return count_ ? min_ : 0;
    }

    uint64_t
    max() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return max_;
    }

    double mean() const;

    /** Population variance (E[x^2] - E[x]^2, clamped at 0). */
    double variance() const;

    double stddev() const;

    /**
     * Value at-or-above p percent of samples (p in (0, 100]): the
     * midpoint of the bucket containing the rank, clamped to the
     * exact [min, max]. Returns 0 on an empty histogram.
     */
    uint64_t percentile(double p) const;

    uint64_t
    bucketCount(size_t idx) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return buckets_[idx];
    }

    /** Bucket of a value; values >= 2^kMaxLog2 clamp to the last. */
    static size_t
    bucketIndex(uint64_t v)
    {
        if (v < kLinearMax)
            return static_cast<size_t>(v);
        const uint32_t hi =
            static_cast<uint32_t>(std::bit_width(v)) - 1;
        if (hi >= kMaxLog2)
            return kNumBuckets - 1;
        const uint64_t sub =
            (v >> (hi - 2)) & (kBucketFraction - 1);
        return kLinearMax +
            static_cast<size_t>(hi - 3) * kBucketFraction +
            static_cast<size_t>(sub);
    }

    /** Smallest value mapping to a bucket. */
    static uint64_t
    bucketLowerBound(size_t idx)
    {
        if (idx < kLinearMax)
            return idx;
        const uint32_t hi = 3 +
            static_cast<uint32_t>((idx - kLinearMax) / kBucketFraction);
        const uint64_t sub = (idx - kLinearMax) % kBucketFraction;
        return (1ULL << hi) + (sub << (hi - 2));
    }

    /** Largest value mapping to a bucket (clamp bucket: UINT64_MAX). */
    static uint64_t
    bucketUpperBound(size_t idx)
    {
        return idx + 1 < kNumBuckets ? bucketLowerBound(idx + 1) - 1
                                     : UINT64_MAX;
    }

    void reset();

    /** Consistent copy of every field for merging/serialization. */
    HistogramSnapshot snapshot() const;

    /** Fold another histogram's samples in (sharded aggregation). */
    void merge(const HistogramSnapshot &other);

    /** Binary round-trip in the serialize.hh cache idiom. */
    void serialize(BinaryWriter &out) const;
    void deserialize(BinaryReader &in);

  private:
    friend struct HistogramSnapshot;

    mutable std::mutex mu_; //!< guards every field below
    uint64_t count_ = 0;
    uint64_t min_ = UINT64_MAX;
    uint64_t max_ = 0;
    Uint128 sum_ = 0;   //!< exact sum of (clamped) values
    Uint128 sumSq_ = 0; //!< exact sum of (clamped) squares
    std::array<uint64_t, kNumBuckets> buckets_{};
};

/**
 * Plain-data copy of a Histogram, the unit of cross-shard merging.
 * merge() is commutative and associative, so folding N shards in any
 * order yields bit-identical state — and therefore byte-identical
 * derived mean/variance/percentiles in reports.
 */
struct HistogramSnapshot
{
    uint64_t count = 0;
    uint64_t min = UINT64_MAX;
    uint64_t max = 0;
    Uint128 sum = 0;
    Uint128 sumSq = 0;
    std::array<uint64_t, Histogram::kNumBuckets> buckets{};

    double mean() const;
    double variance() const;
    double stddev() const;

    /** Same bucket-midpoint percentile as Histogram::percentile(). */
    uint64_t percentile(double p) const;

    void merge(const HistogramSnapshot &other);

    void serialize(BinaryWriter &out) const;

    /** False (with the reader failed) on a bucket-layout mismatch. */
    bool deserialize(BinaryReader &in);
};

/**
 * The process-wide registry of named stats. Names are dotted paths
 * ("controller.decision_latency_ns"); dumps sort them, so related
 * stats group naturally.
 */
class StatRegistry
{
  public:
    /**
     * Registries are constructible standalone (shard-local
     * aggregation, tests); instance() remains the process-wide one
     * that reports and hot-path call sites use.
     */
    StatRegistry() = default;

    static StatRegistry &instance();

    /** Find-or-create; the reference is valid for process lifetime. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);

    /** Lookup without creating (nullptr when absent). */
    const Counter *findCounter(const std::string &name) const;

    /** Zero every stat's value; registered objects stay alive. */
    void reset();

    /**
     * Visit every stat (sorted by name, under the registry lock; the
     * callbacks must not touch the registry). Values are read at
     * visit time — quiesce writers first for an exact snapshot.
     */
    void forEachCounter(
        const std::function<void(const std::string &, uint64_t)> &fn)
        const;
    void forEachGauge(
        const std::function<void(const std::string &, double)> &fn)
        const;
    void forEachHistogram(
        const std::function<void(const std::string &,
                                 const Histogram &)> &fn) const;

    /**
     * Write the full run report (counters, gauges, histogram
     * summaries, and the phase tree) as one JSON object.
     */
    void writeJson(std::ostream &os,
                   const std::string &report_name) const;

    /**
     * writeJson() to a file; fatal() when the file cannot open.
     * @return false when the stream errored after opening (full
     *         disk, quota) — the file on disk is truncated JSON.
     */
    bool dumpJson(const std::string &path,
                  const std::string &report_name) const;

    /** Human-readable table + phase tree. */
    void dumpText(std::ostream &os) const;

  private:
    mutable std::mutex mu_; //!< guards the maps during registration
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * The report's "phases" array ("[\n    {...}\n  ]", report
 * indentation), shared by StatRegistry::writeJson and the /phases
 * endpoint. Takes the tracer's tree lock for the traversal.
 */
void writePhaseTreeJson(std::ostream &os);

} // namespace obs
} // namespace psca

#endif // PSCA_OBS_STATS_HH
