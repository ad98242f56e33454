/**
 * @file
 * Tests for dual-mode recording, label construction (Fig. 3 timing),
 * granularity re-aggregation, and the disk cache.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "core/builder.hh"
#include "obs/stats.hh"
#include "test_util.hh"

using namespace psca;

namespace {

BuildConfig
smallConfig()
{
    return test::smallConfig({Ctr::InstRetired, Ctr::L1dMiss,
                              Ctr::UopsStalledOnDep, Ctr::BranchMispred});
}

Workload
kernelWorkload(KernelParams kp, uint64_t len, const char *name)
{
    return test::kernelWorkload(kp, len, name, 31);
}

/** Exact equality of two record lists, float bits included. */
void
expectSameRecords(const std::vector<TraceRecord> &a,
                  const std::vector<TraceRecord> &b)
{
    ASSERT_EQ(a.size(), b.size());
    auto bits = [](const std::vector<float> &v) {
        return std::string(reinterpret_cast<const char *>(v.data()),
                           v.size() * sizeof(float));
    };
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].appId, b[i].appId);
        EXPECT_EQ(a[i].traceId, b[i].traceId);
        EXPECT_EQ(a[i].numCounters, b[i].numCounters);
        EXPECT_EQ(bits(a[i].deltaHigh), bits(b[i].deltaHigh));
        EXPECT_EQ(bits(a[i].deltaLow), bits(b[i].deltaLow));
        EXPECT_EQ(bits(a[i].cyclesHigh), bits(b[i].cyclesHigh));
        EXPECT_EQ(bits(a[i].cyclesLow), bits(b[i].cyclesLow));
        EXPECT_EQ(bits(a[i].energyHighNj), bits(b[i].energyHighNj));
        EXPECT_EQ(bits(a[i].energyLowNj), bits(b[i].energyLowNj));
    }
}

/** Overwrite the bytes at @p offset of @p path in place. */
void
patchFile(const std::string &path, std::streamoff offset,
          const void *bytes, size_t n)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(offset);
    f.write(static_cast<const char *>(bytes),
            static_cast<std::streamsize>(n));
}

} // namespace

TEST(Builder, RecordShapes)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Ilp, .chains = 4}, 80000, "shapes");
    const TraceRecord r = recordTrace(w, cfg, 3, 7);
    EXPECT_EQ(r.numIntervals(), 8u);
    EXPECT_EQ(r.numCounters, 4u);
    EXPECT_EQ(r.deltaHigh.size(), 8u * 4u);
    EXPECT_EQ(r.appId, 3u);
    EXPECT_EQ(r.traceId, 7u);
}

TEST(Builder, InstRetiredDeltaMatchesInterval)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Branchy, .workingSetBytes = 1 << 20},
        60000, "delta");
    const TraceRecord r = recordTrace(w, cfg, 0, 0);
    for (size_t t = 0; t < r.numIntervals(); ++t) {
        EXPECT_FLOAT_EQ(r.rowHigh(t)[0], 10000.0f);
        EXPECT_FLOAT_EQ(r.rowLow(t)[0], 10000.0f);
    }
}

TEST(Builder, GateFriendlyKernelLabelsOne)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::PointerChase, .workingSetBytes = 32 << 20},
        80000, "gate");
    const TraceRecord r = recordTrace(w, cfg, 0, 0);
    const auto labels = blockLabels(r, 1, 0.90);
    size_t gates = 0;
    for (uint8_t y : labels)
        gates += y;
    EXPECT_GE(gates, labels.size() - 1);
}

TEST(Builder, WidthHungryKernelLabelsZero)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Ilp, .chains = 14}, 80000, "hungry");
    const TraceRecord r = recordTrace(w, cfg, 0, 0);
    const auto labels = blockLabels(r, 1, 0.90);
    size_t gates = 0;
    for (uint8_t y : labels)
        gates += y;
    EXPECT_LE(gates, 1u);
}

TEST(Builder, SlaThresholdMonotonic)
{
    // Lowering pSla can only enable more gating (Table 5 relabeling).
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Stencil, .workingSetBytes = 8 << 20},
        100000, "sla");
    const TraceRecord r = recordTrace(w, cfg, 0, 0);
    size_t prev = 0;
    for (double p : {0.95, 0.90, 0.80, 0.70}) {
        const auto labels = blockLabels(r, 1, p);
        size_t gates = 0;
        for (uint8_t y : labels)
            gates += y;
        EXPECT_GE(gates, prev);
        prev = gates;
    }
}

TEST(Builder, AssemblePairsXtWithYtPlus2)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Ilp, .chains = 4}, 100000, "t2");
    const TraceRecord r = recordTrace(w, cfg, 5, 0);
    AssemblyOptions opts;
    opts.granularityInstr = 10000;
    const Dataset d = assembleDataset({r}, opts, cfg.intervalInstr);
    // 10 intervals -> samples for t = 0..7 (t+2 must exist).
    EXPECT_EQ(d.numSamples(), r.numIntervals() - 2);
    const auto labels = blockLabels(r, 1, opts.pSla);
    for (size_t t = 0; t < d.numSamples(); ++t)
        EXPECT_EQ(d.y[t], labels[t + 2]);
    EXPECT_EQ(d.appId[0], 5u);
}

TEST(Builder, CoarserGranularityAggregates)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Stream, .workingSetBytes = 1 << 20,
         .computePerElem = 2},
        200000, "agg");
    const TraceRecord r = recordTrace(w, cfg, 0, 0);

    AssemblyOptions fine, coarse;
    fine.granularityInstr = 10000;
    coarse.granularityInstr = 40000;
    const Dataset df = assembleDataset({r}, fine, cfg.intervalInstr);
    const Dataset dc = assembleDataset({r}, coarse, cfg.intervalInstr);
    EXPECT_EQ(dc.numSamples(), r.numIntervals() / 4 - 2);
    EXPECT_GT(df.numSamples(), dc.numSamples());
    // Cycle-normalized feature 0 (inst retired / cycles = IPC) must
    // stay in a plausible band after aggregation.
    for (size_t i = 0; i < dc.numSamples(); ++i) {
        EXPECT_GT(dc.row(i)[0], 0.0f);
        EXPECT_LE(dc.row(i)[0], 4.01f);
    }
}

TEST(Builder, ColumnSubsetSelected)
{
    const BuildConfig cfg = smallConfig();
    const Workload w = kernelWorkload(
        {.kind = KernelKind::Ilp, .chains = 4}, 80000, "cols");
    const TraceRecord r = recordTrace(w, cfg, 0, 0);
    AssemblyOptions opts;
    opts.columns = {1, 3};
    const Dataset d = assembleDataset({r}, opts, cfg.intervalInstr);
    EXPECT_EQ(d.numFeatures, 2u);
}

TEST(Builder, CacheRoundTrip)
{
    setenv("PSCA_CACHE_DIR", "/tmp/psca_test_cache", 1);
    std::filesystem::remove_all("/tmp/psca_test_cache");

    const BuildConfig cfg = smallConfig();
    std::vector<Workload> ws{
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 4}, 60000,
                       "cache_a"),
        kernelWorkload({.kind = KernelKind::FpSerial, .fp = true},
                       60000, "cache_b")};
    const auto first = recordCorpus(ws, {0, 1}, cfg, "test");
    const auto second = recordCorpus(ws, {0, 1}, cfg, "test");
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].name, second[i].name);
        EXPECT_EQ(first[i].cyclesHigh, second[i].cyclesHigh);
        EXPECT_EQ(first[i].deltaLow, second[i].deltaLow);
    }
    unsetenv("PSCA_CACHE_DIR");
}

TEST(Builder, DamagedCacheIsQuarantinedAndReRecorded)
{
    namespace fs = std::filesystem;
    const std::string dir = "/tmp/psca_test_cache_damage";
    setenv("PSCA_CACHE_DIR", dir.c_str(), 1);
    fs::remove_all(dir);

    const BuildConfig cfg = smallConfig();
    std::vector<Workload> ws{
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 4}, 60000,
                       "damage_a"),
        kernelWorkload({.kind = KernelKind::FpSerial, .fp = true},
                       60000, "damage_b")};
    const auto first = recordCorpus(ws, {0, 1}, cfg, "damage");
    std::string cache;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().starts_with("damage_"))
            cache = e.path().string();
    ASSERT_FALSE(cache.empty());
    const auto size = static_cast<std::streamoff>(fs::file_size(cache));

    const std::vector<std::pair<const char *, std::function<void()>>>
        damages{
            {"flipped payload byte",
             [&] {
                 std::ifstream in(cache, std::ios::binary);
                 in.seekg(size / 2);
                 char b = static_cast<char>(in.get() ^ 0x5a);
                 in.close();
                 patchFile(cache, size / 2, &b, 1);
             }},
            {"truncated",
             [&] {
                 fs::resize_file(cache,
                                 static_cast<uintmax_t>(size - 3));
             }},
            {"rewritten version",
             [&] {
                 const uint32_t version = 3;
                 patchFile(cache, 8, &version, sizeof(version));
             }},
        };
    auto &quarantined =
        obs::StatRegistry::instance().counter("record.cache_quarantined");
    for (const auto &[what, damage] : damages) {
        damage();
        const uint64_t before = quarantined.value();
        const auto again = recordCorpus(ws, {0, 1}, cfg, "damage");
        EXPECT_EQ(quarantined.value(), before + 1) << what;
        EXPECT_TRUE(fs::exists(cache + ".quarantined")) << what;
        EXPECT_EQ(static_cast<std::streamoff>(fs::file_size(cache)), size)
            << what;
        expectSameRecords(first, again);
        fs::remove(cache + ".quarantined");
    }
    unsetenv("PSCA_CACHE_DIR");
}

TEST(Builder, IdealResidencyBounds)
{
    const BuildConfig cfg = smallConfig();
    const TraceRecord gate = recordTrace(
        kernelWorkload({.kind = KernelKind::PointerChase,
                        .workingSetBytes = 32 << 20},
                       60000, "res_g"),
        cfg, 0, 0);
    const TraceRecord hungry = recordTrace(
        kernelWorkload({.kind = KernelKind::Ilp, .chains = 14}, 60000,
                       "res_h"),
        cfg, 1, 1);
    EXPECT_GT(idealLowPowerResidency({gate}, 0.9), 0.8);
    EXPECT_LT(idealLowPowerResidency({hungry}, 0.9), 0.2);
    const double mixed = idealLowPowerResidency({gate, hungry}, 0.9);
    EXPECT_GT(mixed, 0.3);
    EXPECT_LT(mixed, 0.7);
}
