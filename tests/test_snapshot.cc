/**
 * @file
 * Tests for mergeable stat snapshots (obs/snapshot.hh): shard merges
 * are commutative/associative and reproduce the single-registry
 * report byte for byte (including histogram percentiles and exact
 * integer moments), and the binary payload codec round-trips exactly
 * and rejects a truncated payload.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "obs/snapshot.hh"
#include "obs/stats.hh"

using namespace psca;
using obs::Histogram;
using obs::StatRegistry;
using obs::StatSnapshot;

namespace {

std::string
jsonOf(const StatSnapshot &snap)
{
    std::ostringstream os;
    snap.writeJson(os, "shard_merge_test");
    return os.str();
}

/**
 * Record a deterministic workload into @p reg; when @p shards is
 * non-null, each sample also lands in one of the shard registries
 * (round-robin), so merging the shards must reproduce @p reg.
 */
void
recordWorkload(StatRegistry &reg, std::vector<StatRegistry> *shards)
{
    Rng rng(0x5eedULL);
    for (size_t i = 0; i < 4000; ++i) {
        StatRegistry *shard =
            shards ? &(*shards)[i % shards->size()] : nullptr;
        const uint64_t v = rng.below(1u << 20);
        reg.histogram("work.latency_ns").add(v);
        if (shard)
            shard->histogram("work.latency_ns").add(v);
        const uint64_t small = rng.below(7);
        reg.histogram("work.batch").add(small);
        if (shard)
            shard->histogram("work.batch").add(small);
        reg.counter("work.items").add();
        if (shard)
            shard->counter("work.items").add();
        if (i % 3 == 0) {
            reg.counter("work.retries").add(2);
            if (shard)
                shard->counter("work.retries").add(2);
        }
    }
    // Gauges merge by max: give every shard the same configuration
    // value (the common case: shards agree on run parameters).
    reg.gauge("work.threads").set(4.0);
    if (shards) {
        for (auto &s : *shards)
            s.gauge("work.threads").set(4.0);
    }
}

} // namespace

TEST(SnapshotMerge, AllMergeOrdersAreByteIdentical)
{
    StatRegistry reference;
    std::vector<StatRegistry> shards(4);
    recordWorkload(reference, &shards);

    StatSnapshot want;
    want.capture(reference);
    const std::string want_json = jsonOf(want);
    // The workload must exercise the nontrivial report fields.
    EXPECT_NE(want_json.find("\"p50\""), std::string::npos);
    EXPECT_NE(want_json.find("\"p95\""), std::string::npos);
    EXPECT_NE(want_json.find("\"p99\""), std::string::npos);
    EXPECT_NE(want_json.find("\"stddev\""), std::string::npos);

    std::vector<StatSnapshot> parts(4);
    for (size_t i = 0; i < parts.size(); ++i)
        parts[i].capture(shards[i]);

    std::vector<size_t> order = {0, 1, 2, 3};
    size_t permutations = 0;
    do {
        StatSnapshot merged;
        for (size_t idx : order)
            merged.merge(parts[idx]);
        EXPECT_EQ(jsonOf(merged), want_json)
            << "merge order " << order[0] << order[1] << order[2]
            << order[3];
        ++permutations;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(permutations, 24u);
}

TEST(SnapshotMerge, FourThreadRunPartitionedByNameMerges)
{
    // A 4-thread recording into one registry, then partitioned stat-
    // by-stat into 4 shard snapshots and merged back in shuffled
    // order: the distributed-aggregation path a coordinator uses.
    ThreadPool::configure(4);
    StatRegistry reg;
    ThreadPool::instance().parallelFor(64, [&](size_t i) {
        Rng rng(taskSeed(0xabcdULL, i));
        for (int k = 0; k < 100; ++k) {
            reg.histogram("fold.latency_ns").add(rng.below(1u << 16));
            reg.counter("fold.samples").add();
        }
        reg.counter("fold.done").add();
    });

    StatSnapshot full;
    full.capture(reg);
    const std::string want = jsonOf(full);

    StatSnapshot parts[4];
    size_t slot = 0;
    for (const auto &kv : full.counters)
        parts[slot++ % 4].counters.insert(kv);
    for (const auto &kv : full.gauges)
        parts[slot++ % 4].gauges.insert(kv);
    for (const auto &kv : full.histograms)
        parts[slot++ % 4].histograms.insert(kv);

    StatSnapshot merged;
    for (size_t idx : {2, 0, 3, 1})
        merged.merge(parts[idx]);
    EXPECT_EQ(jsonOf(merged), want);
}

TEST(SnapshotMerge, HistogramMomentsMergeExactly)
{
    // The exact-integer moment sums make the merged mean/variance
    // equal (==, not nearly) whichever shard each sample landed in.
    Histogram all;
    Histogram a, b;
    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        const uint64_t v = rng.below(1ULL << 30);
        all.add(v);
        (i % 2 ? a : b).add(v);
    }
    obs::HistogramSnapshot ab = a.snapshot();
    ab.merge(b.snapshot());
    obs::HistogramSnapshot ba = b.snapshot();
    ba.merge(a.snapshot());

    const obs::HistogramSnapshot want = all.snapshot();
    for (const auto *got : {&ab, &ba}) {
        EXPECT_EQ(got->count, want.count);
        EXPECT_EQ(got->min, want.min);
        EXPECT_EQ(got->max, want.max);
        EXPECT_EQ(got->mean(), want.mean());
        EXPECT_EQ(got->variance(), want.variance());
        EXPECT_EQ(got->stddev(), want.stddev());
        for (double p : {50.0, 95.0, 99.0})
            EXPECT_EQ(got->percentile(p), want.percentile(p));
    }
}

TEST(SnapshotMerge, EmptyShardIsIdentity)
{
    Histogram h;
    h.add(5);
    h.add(500);
    obs::HistogramSnapshot got = h.snapshot();
    got.merge(obs::HistogramSnapshot{}); // empty: min=MAX, max=0
    const obs::HistogramSnapshot want = h.snapshot();
    EXPECT_EQ(got.count, want.count);
    EXPECT_EQ(got.min, want.min);
    EXPECT_EQ(got.max, want.max);
    EXPECT_EQ(got.mean(), want.mean());
}

TEST(SnapshotMerge, GaugesTakeMax)
{
    StatSnapshot a, b;
    a.gauges["g"] = 2.5;
    b.gauges["g"] = 7.0;
    b.gauges["only_b"] = -1.0;
    StatSnapshot m1 = a;
    m1.merge(b);
    StatSnapshot m2 = b;
    m2.merge(a);
    EXPECT_EQ(m1.gauges["g"], 7.0);
    EXPECT_EQ(m2.gauges["g"], 7.0);
    EXPECT_EQ(m1.gauges["only_b"], -1.0);
    EXPECT_EQ(jsonOf(m1), jsonOf(m2));
}

TEST(SnapshotCodec, PayloadRoundTripIsExact)
{
    StatRegistry reg;
    recordWorkload(reg, nullptr);
    StatSnapshot snap;
    snap.capture(reg);

    BinaryWriter w;
    snap.serialize(w);
    const std::string bytes = w.takeBuffer();

    BinaryReader in(bytes.data(), bytes.size());
    StatSnapshot back;
    ASSERT_TRUE(back.deserialize(in));
    EXPECT_EQ(jsonOf(back), jsonOf(snap));

    // A payload cut in half is rejected, not half-read.
    BinaryReader half(bytes.data(), bytes.size() / 2);
    EXPECT_FALSE(StatSnapshot().deserialize(half));
}
