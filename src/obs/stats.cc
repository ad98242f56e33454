#include "obs/stats.hh"

#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>

#include "common/logging.hh"
#include "common/serialize.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/phase.hh"
#include "obs/snapshot.hh"

namespace psca {
namespace obs {

size_t
Counter::shardIndex()
{
    // Round-robin shard assignment: the first kShards threads each
    // get a private cache line; beyond that, threads share lines but
    // stay correct (the adds are atomic).
    static std::atomic<size_t> next_id{0};
    thread_local const size_t id =
        next_id.fetch_add(1, std::memory_order_relaxed) %
        Counter::kShards;
    return id;
}

namespace {

/** 128-bit sums fit doubles' range (2^128 < 1e39) exactly enough. */
double
u128ToDouble(Uint128 v)
{
    return static_cast<double>(v);
}

void
putU128(BinaryWriter &out, Uint128 v)
{
    out.put<uint64_t>(static_cast<uint64_t>(v));
    out.put<uint64_t>(static_cast<uint64_t>(v >> 64));
}

Uint128
getU128(BinaryReader &in)
{
    const uint64_t lo = in.get<uint64_t>();
    const uint64_t hi = in.get<uint64_t>();
    return (static_cast<Uint128>(hi) << 64) | lo;
}

} // namespace

double
HistogramSnapshot::mean() const
{
    return count ? u128ToDouble(sum) / static_cast<double>(count)
                 : 0.0;
}

double
HistogramSnapshot::variance() const
{
    if (!count)
        return 0.0;
    const double n = static_cast<double>(count);
    const double m = u128ToDouble(sum) / n;
    const double v = u128ToDouble(sumSq) / n - m * m;
    return v > 0.0 ? v : 0.0;
}

double
HistogramSnapshot::stddev() const
{
    return std::sqrt(variance());
}

uint64_t
HistogramSnapshot::percentile(double p) const
{
    if (count == 0)
        return 0;
    if (p <= 0.0)
        return min;
    if (p >= 100.0)
        return max;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(count)));
    if (rank < 1)
        rank = 1;
    if (rank > count)
        rank = count;

    uint64_t cum = 0;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        cum += buckets[i];
        if (cum >= rank) {
            const uint64_t lo = Histogram::bucketLowerBound(i);
            const uint64_t hi = i + 1 < Histogram::kNumBuckets
                ? Histogram::bucketUpperBound(i)
                : max;
            uint64_t mid = lo + (hi - lo) / 2;
            // The exact extrema beat the bucket resolution.
            if (mid < min)
                mid = min;
            if (mid > max)
                mid = max;
            return mid;
        }
    }
    return max;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    count += other.count;
    // An empty shard carries min=UINT64_MAX / max=0: the identity
    // element for both folds, so no emptiness check is needed.
    if (other.min < min)
        min = other.min;
    if (other.max > max)
        max = other.max;
    sum += other.sum;
    sumSq += other.sumSq;
    for (size_t i = 0; i < buckets.size(); ++i)
        buckets[i] += other.buckets[i];
}

void
HistogramSnapshot::serialize(BinaryWriter &out) const
{
    out.put(count);
    out.put(min);
    out.put(max);
    putU128(out, sum);
    putU128(out, sumSq);
    out.put<uint64_t>(Histogram::kNumBuckets);
    for (uint64_t b : buckets)
        out.put(b);
}

bool
HistogramSnapshot::deserialize(BinaryReader &in)
{
    count = in.get<uint64_t>();
    min = in.get<uint64_t>();
    max = in.get<uint64_t>();
    sum = getU128(in);
    sumSq = getU128(in);
    const uint64_t n = in.get<uint64_t>();
    if (!in.good() || n != Histogram::kNumBuckets)
        return false;
    for (auto &b : buckets)
        b = in.get<uint64_t>();
    return in.good();
}

double
Histogram::mean() const
{
    return snapshot().mean();
}

double
Histogram::variance() const
{
    return snapshot().variance();
}

double
Histogram::stddev() const
{
    return snapshot().stddev();
}

uint64_t
Histogram::percentile(double p) const
{
    return snapshot().percentile(p);
}

HistogramSnapshot
Histogram::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    HistogramSnapshot s;
    s.count = count_;
    s.min = min_;
    s.max = max_;
    s.sum = sum_;
    s.sumSq = sumSq_;
    s.buckets = buckets_;
    return s;
}

void
Histogram::merge(const HistogramSnapshot &other)
{
    std::lock_guard<std::mutex> lock(mu_);
    count_ += other.count;
    if (other.min < min_)
        min_ = other.min;
    if (other.max > max_)
        max_ = other.max;
    sum_ += other.sum;
    sumSq_ += other.sumSq;
    for (size_t i = 0; i < buckets_.size(); ++i)
        buckets_[i] += other.buckets[i];
}

void
Histogram::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    count_ = 0;
    min_ = UINT64_MAX;
    max_ = 0;
    sum_ = 0;
    sumSq_ = 0;
    buckets_.fill(0);
}

void
Histogram::serialize(BinaryWriter &out) const
{
    snapshot().serialize(out);
}

void
Histogram::deserialize(BinaryReader &in)
{
    HistogramSnapshot s;
    const bool ok = s.deserialize(in);
    PSCA_ASSERT(ok,
                "histogram bucket-count mismatch (stale format?)");
    std::lock_guard<std::mutex> lock(mu_);
    count_ = s.count;
    min_ = s.min;
    max_ = s.max;
    sum_ = s.sum;
    sumSq_ = s.sumSq;
    buckets_ = s.buckets;
}

StatRegistry &
StatRegistry::instance()
{
    static StatRegistry registry;
    return registry;
}

Counter &
StatRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Gauge &
StatRegistry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = gauges_[name];
    if (!slot)
        slot = std::make_unique<Gauge>();
    return *slot;
}

Histogram &
StatRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

const Counter *
StatRegistry::findCounter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = counters_.find(name);
    return it == counters_.end() ? nullptr : it->second.get();
}

void
StatRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, g] : gauges_)
        g->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

void
StatRegistry::forEachCounter(
    const std::function<void(const std::string &, uint64_t)> &fn)
    const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, c] : counters_)
        fn(name, c->value());
}

void
StatRegistry::forEachGauge(
    const std::function<void(const std::string &, double)> &fn) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, g] : gauges_)
        fn(name, g->value());
}

void
StatRegistry::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)>
        &fn) const
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &[name, h] : histograms_)
        fn(name, *h);
}

namespace {

void
writePhaseJson(std::ostream &os, const PhaseNode &node,
               const std::string &indent)
{
    const uint64_t calls =
        node.calls.load(std::memory_order_relaxed);
    const uint64_t wall_ns =
        node.wallNs.load(std::memory_order_relaxed);
    os << indent << "{\"name\": \"" << jsonEscape(node.name)
       << "\", \"calls\": " << calls << ", \"wall_ms\": ";
    jsonNumber(os, static_cast<double>(wall_ns) / 1e6);
    if (node.children.empty()) {
        os << "}";
        return;
    }
    os << ", \"children\": [\n";
    for (size_t i = 0; i < node.children.size(); ++i) {
        writePhaseJson(os, *node.children[i], indent + "  ");
        if (i + 1 < node.children.size())
            os << ",";
        os << "\n";
    }
    os << indent << "]}";
}

void
writePhaseText(std::ostream &os, const PhaseNode &node, int depth)
{
    for (int i = 0; i < depth; ++i)
        os << "  ";
    char buf[64];
    std::snprintf(
        buf, sizeof(buf), "%10.3f ms  x%-8llu ",
        static_cast<double>(
            node.wallNs.load(std::memory_order_relaxed)) /
            1e6,
        static_cast<unsigned long long>(
            node.calls.load(std::memory_order_relaxed)));
    os << buf << node.name << "\n";
    for (const auto &child : node.children)
        writePhaseText(os, *child, depth + 1);
}

} // namespace

void
StatRegistry::writeJson(std::ostream &os,
                        const std::string &report_name) const
{
    // Delegating the stat sections to the snapshot codec guarantees a
    // merged-snapshot report and a live-registry report are the same
    // bytes (the §12 merge contract); capture() takes the registry
    // lock internally.
    StatSnapshot snap;
    snap.capture(*this);
    os << "{\n";
    os << "  \"report\": \"" << jsonEscape(report_name) << "\",\n";
    os << "  \"schema\": 1,\n";
    snap.writeSections(os, /*trailing_comma=*/true);

    // Structured events ride along only when something was logged, so
    // an event-free run's report keeps the pre-§12 byte layout.
    EventLog::instance().writeReportSection(os);

    os << "  \"phases\": ";
    writePhaseTreeJson(os);
    os << "\n}\n";
}

void
writePhaseTreeJson(std::ostream &os)
{
    os << "[\n";
    // Freeze the phase tree for the whole traversal: a straggler
    // scope closing on another thread must not mutate nodes mid-dump.
    const auto tree_lock = PhaseTracer::instance().lockTree();
    const PhaseNode &root = PhaseTracer::instance().root();
    for (size_t i = 0; i < root.children.size(); ++i) {
        writePhaseJson(os, *root.children[i], "    ");
        if (i + 1 < root.children.size())
            os << ",";
        os << "\n";
    }
    os << "  ]";
}

bool
StatRegistry::dumpJson(const std::string &path,
                       const std::string &report_name) const
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot open run-report file '", path, "'");
    writeJson(out, report_name);
    out.flush();
    return static_cast<bool>(out);
}

void
StatRegistry::dumpText(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    if (!counters_.empty()) {
        os << "counters:\n";
        for (const auto &[name, c] : counters_)
            os << "  " << std::left << std::setw(42) << name
               << std::right << std::setw(16) << c->value() << "\n";
    }
    if (!gauges_.empty()) {
        os << "gauges:\n";
        for (const auto &[name, g] : gauges_) {
            char buf[40];
            std::snprintf(buf, sizeof(buf), "%16.6g", g->value());
            os << "  " << std::left << std::setw(42) << name
               << std::right << buf << "\n";
        }
    }
    if (!histograms_.empty()) {
        os << "histograms:"
           << "              count       mean        p50        p95"
           << "        p99        max\n";
        for (const auto &[name, h] : histograms_) {
            char buf[128];
            std::snprintf(
                buf, sizeof(buf),
                "%10llu %10.1f %10llu %10llu %10llu %10llu",
                static_cast<unsigned long long>(h->count()),
                h->mean(),
                static_cast<unsigned long long>(h->percentile(50.0)),
                static_cast<unsigned long long>(h->percentile(95.0)),
                static_cast<unsigned long long>(h->percentile(99.0)),
                static_cast<unsigned long long>(h->max()));
            os << "  " << std::left << std::setw(36) << name
               << std::right << buf << "\n";
        }
    }
    const auto tree_lock = PhaseTracer::instance().lockTree();
    const PhaseNode &root = PhaseTracer::instance().root();
    if (!root.children.empty()) {
        os << "phases:\n";
        for (const auto &child : root.children)
            writePhaseText(os, *child, 1);
    }
}

} // namespace obs
} // namespace psca
