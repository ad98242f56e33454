#include "obs/snapshot.hh"

#include <atomic>
#include <ostream>

#include "common/serialize.hh"
#include "obs/json.hh"

namespace psca {
namespace obs {

void
StatSnapshot::capture(const StatRegistry &reg)
{
    counters.clear();
    gauges.clear();
    histograms.clear();
    reg.forEachCounter([this](const std::string &name, uint64_t v) {
        counters[name] = v;
    });
    reg.forEachGauge([this](const std::string &name, double v) {
        gauges[name] = v;
    });
    reg.forEachHistogram(
        [this](const std::string &name, const Histogram &h) {
            histograms[name] = h.snapshot();
        });
}

void
StatSnapshot::merge(const StatSnapshot &other)
{
    for (const auto &[name, v] : other.counters)
        counters[name] += v;
    for (const auto &[name, v] : other.gauges) {
        const auto it = gauges.find(name);
        if (it == gauges.end())
            gauges[name] = v;
        else if (v > it->second)
            it->second = v;
    }
    for (const auto &[name, h] : other.histograms)
        histograms[name].merge(h);
}

void
StatSnapshot::serialize(BinaryWriter &out) const
{
    out.put<uint64_t>(counters.size());
    for (const auto &[name, v] : counters) {
        out.putString(name);
        out.put(v);
    }
    out.put<uint64_t>(gauges.size());
    for (const auto &[name, v] : gauges) {
        out.putString(name);
        out.put(v);
    }
    out.put<uint64_t>(histograms.size());
    for (const auto &[name, h] : histograms) {
        out.putString(name);
        h.serialize(out);
    }
}

bool
StatSnapshot::deserialize(BinaryReader &in)
{
    counters.clear();
    gauges.clear();
    histograms.clear();
    const uint64_t nc = in.get<uint64_t>();
    for (uint64_t i = 0; i < nc && in.good(); ++i) {
        const std::string name = in.getString();
        counters[name] = in.get<uint64_t>();
    }
    const uint64_t ng = in.get<uint64_t>();
    for (uint64_t i = 0; i < ng && in.good(); ++i) {
        const std::string name = in.getString();
        gauges[name] = in.get<double>();
    }
    const uint64_t nh = in.get<uint64_t>();
    for (uint64_t i = 0; i < nh && in.good(); ++i) {
        const std::string name = in.getString();
        if (!histograms[name].deserialize(in))
            return false;
    }
    return in.good();
}

namespace {

void
writeHistogramJson(std::ostream &os, const HistogramSnapshot &h,
                   const std::string &indent)
{
    os << "{\n";
    os << indent << "  \"count\": " << h.count << ",\n";
    os << indent << "  \"min\": " << (h.count ? h.min : 0) << ",\n";
    os << indent << "  \"max\": " << h.max << ",\n";
    os << indent << "  \"mean\": ";
    jsonNumber(os, h.mean());
    os << ",\n" << indent << "  \"stddev\": ";
    jsonNumber(os, h.stddev());
    os << ",\n";
    os << indent << "  \"p50\": " << h.percentile(50.0) << ",\n";
    os << indent << "  \"p95\": " << h.percentile(95.0) << ",\n";
    os << indent << "  \"p99\": " << h.percentile(99.0) << ",\n";
    os << indent << "  \"buckets\": [";
    bool first = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
        if (h.buckets[i] == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << "[" << Histogram::bucketLowerBound(i) << ", "
           << h.buckets[i] << "]";
    }
    os << "]\n" << indent << "}";
}

} // namespace

void
StatSnapshot::writeSections(std::ostream &os,
                            bool trailing_comma) const
{
    os << "  \"counters\": {";
    bool first = true;
    for (const auto &[name, v] : counters) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": " << v;
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"gauges\": {";
    first = true;
    for (const auto &[name, v] : gauges) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": ";
        jsonNumber(os, v);
        first = false;
    }
    os << (first ? "" : "\n  ") << "},\n";

    os << "  \"histograms\": {";
    first = true;
    for (const auto &[name, h] : histograms) {
        os << (first ? "\n" : ",\n") << "    \"" << jsonEscape(name)
           << "\": ";
        writeHistogramJson(os, h, "    ");
        first = false;
    }
    os << (first ? "" : "\n  ") << "}";
    os << (trailing_comma ? ",\n" : "\n");
}

void
StatSnapshot::writeJson(std::ostream &os,
                        const std::string &report_name) const
{
    os << "{\n";
    os << "  \"report\": \"" << jsonEscape(report_name) << "\",\n";
    os << "  \"schema\": 1,\n";
    writeSections(os, /*trailing_comma=*/false);
    os << "}\n";
}

namespace {
std::atomic<LiveSnapshotAugmenter> g_augmenter{nullptr};
} // namespace

void
setLiveSnapshotAugmenter(LiveSnapshotAugmenter fn)
{
    g_augmenter.store(fn, std::memory_order_release);
}

LiveSnapshotAugmenter
liveSnapshotAugmenter()
{
    return g_augmenter.load(std::memory_order_acquire);
}

} // namespace obs
} // namespace psca
