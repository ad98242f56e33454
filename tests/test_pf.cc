/**
 * @file
 * Tests for the screens and Perona-Freeman counter selection on
 * synthetic records with known structure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <set>

#include "common/fault.hh"
#include "common/journal.hh"
#include "common/rng.hh"
#include "core/pf_selection.hh"
#include "core/pipeline.hh"
#include "obs/stats.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

namespace {

/**
 * Build a record whose counters follow a recipe: each counter is
 * either dead (always zero), a noisy copy of one of `groups`
 * independent signals, or independent noise.
 */
TraceRecord
syntheticRecord(const std::vector<int> &recipe, size_t intervals,
                uint64_t seed)
{
    // recipe[j] = -1 for dead, otherwise a signal-group id.
    Rng rng(seed);
    TraceRecord rec;
    rec.numCounters = static_cast<uint16_t>(recipe.size());
    const int num_groups =
        1 + *std::max_element(recipe.begin(), recipe.end());
    for (size_t t = 0; t < intervals; ++t) {
        std::vector<double> signal(
            static_cast<size_t>(num_groups));
        for (auto &s : signal)
            s = rng.gaussian(10.0, 3.0);
        for (size_t j = 0; j < recipe.size(); ++j) {
            const float v = recipe[j] < 0
                ? 0.0f
                : static_cast<float>(
                      signal[static_cast<size_t>(recipe[j])] +
                      rng.gaussian(0.0, 0.05));
            rec.deltaLow.push_back(v);
            rec.deltaHigh.push_back(v);
        }
        rec.cyclesLow.push_back(1.0f);
        rec.cyclesHigh.push_back(1.0f);
        rec.energyLowNj.push_back(0.0f);
        rec.energyHighNj.push_back(0.0f);
    }
    return rec;
}

PfConfig
openConfig()
{
    PfConfig cfg;
    cfg.stdDevCullFraction = 0.0;
    cfg.zeroFractionPerTrace = 0.5;
    cfg.flaggedTraceFraction = 0.5;
    return cfg;
}

} // namespace

TEST(PfSelection, ActivityScreenDropsDeadCounters)
{
    // Counters 2 and 5 are dead.
    const std::vector<int> recipe{0, 1, -1, 2, 3, -1};
    const TraceRecord rec = syntheticRecord(recipe, 300, 1);
    PfConfig cfg = openConfig();
    cfg.numToSelect = 4;
    const PfResult res =
        pfCounterSelection({rec}, cfg, CoreMode::LowPower);
    EXPECT_EQ(res.afterActivityScreen, 4u);
    for (uint16_t s : res.selected) {
        EXPECT_NE(s, 2);
        EXPECT_NE(s, 5);
    }
}

TEST(PfSelection, RedundantGroupYieldsOneRepresentative)
{
    // Three copies of signal 0, two of signal 1, one of 2 and 3.
    const std::vector<int> recipe{0, 0, 0, 1, 1, 2, 3};
    const TraceRecord rec = syntheticRecord(recipe, 400, 2);
    PfConfig cfg = openConfig();
    cfg.numToSelect = 4;
    const PfResult res =
        pfCounterSelection({rec}, cfg, CoreMode::LowPower);
    // Grouping may conservatively fold a borderline signal into a
    // neighbour, but every pick must represent a distinct signal.
    ASSERT_GE(res.selected.size(), 3u);
    std::set<int> signals;
    for (uint16_t s : res.selected)
        signals.insert(recipe[s]);
    EXPECT_EQ(signals.size(), res.selected.size());
}

TEST(PfSelection, StdDevScreenCullsQuietCounters)
{
    // Counter 0 carries signal; counters 1-3 are near-constant.
    Rng rng(3);
    TraceRecord rec;
    rec.numCounters = 4;
    for (size_t t = 0; t < 300; ++t) {
        rec.deltaLow.push_back(
            static_cast<float>(rng.gaussian(100.0, 30.0)));
        for (int j = 0; j < 3; ++j)
            rec.deltaLow.push_back(
                static_cast<float>(rng.gaussian(100.0, 0.01)));
        for (int j = 0; j < 4; ++j)
            rec.deltaHigh.push_back(rec.deltaLow[t * 4 +
                                                 static_cast<size_t>(j)]);
        rec.cyclesLow.push_back(1.0f);
        rec.cyclesHigh.push_back(1.0f);
        rec.energyLowNj.push_back(0.0f);
        rec.energyHighNj.push_back(0.0f);
    }
    PfConfig cfg = openConfig();
    cfg.stdDevCullFraction = 0.75;
    cfg.numToSelect = 1;
    const PfResult res =
        pfCounterSelection({rec}, cfg, CoreMode::LowPower);
    ASSERT_FALSE(res.selected.empty());
    EXPECT_EQ(res.selected[0], 0);
}

TEST(PfSelection, RankDepthBoundedByIndependentSignals)
{
    const std::vector<int> recipe{0, 0, 1, 1, 2, 2, 3, 3};
    const TraceRecord rec = syntheticRecord(recipe, 400, 4);
    PfConfig cfg = openConfig();
    cfg.numToSelect = 8;
    const PfResult res =
        pfCounterSelection({rec}, cfg, CoreMode::LowPower);
    // Only 4 independent signals exist; duplicates must be grouped
    // away rather than ranked.
    EXPECT_LE(res.selected.size(), 4u);
    std::set<int> signals;
    for (uint16_t s : res.selected)
        signals.insert(recipe[s]);
    EXPECT_EQ(signals.size(), res.selected.size());
}

TEST(PfSelection, DeterministicGivenRecords)
{
    const std::vector<int> recipe{0, 1, 2, 3, 0, 1};
    const TraceRecord rec = syntheticRecord(recipe, 300, 5);
    PfConfig cfg = openConfig();
    cfg.numToSelect = 4;
    const auto a = pfCounterSelection({rec}, cfg, CoreMode::LowPower);
    const auto b = pfCounterSelection({rec}, cfg, CoreMode::LowPower);
    EXPECT_EQ(a.selected, b.selected);
}

TEST(PfSelection, PinnedOnAWideRecord)
{
    // 40 counters over 12 signals, some dead: the rounds read their
    // covariance out of one matrix over all survivors, which must
    // rank exactly as a covariance of each round's remaining rows.
    std::vector<int> recipe;
    for (int j = 0; j < 40; ++j)
        recipe.push_back(j % 10 == 9 ? -1 : (j * 7) % 12);
    const TraceRecord rec = syntheticRecord(recipe, 240, 6);
    PfConfig cfg = openConfig();
    cfg.numToSelect = 10;
    const PfResult res =
        pfCounterSelection({rec}, cfg, CoreMode::LowPower);
    EXPECT_EQ(res.selected, (std::vector<uint16_t>{1, 0, 23, 22, 8, 3, 6,
                                                   16, 17, 33}));
}

namespace {

namespace fs = std::filesystem;

/** A PF pass small enough for a unit test. */
ScaleConfig
tinyScale()
{
    ScaleConfig scale;
    scale.pfApps = 4;
    scale.pfTraceLen = 60000;
    return scale;
}

std::vector<std::string>
planFiles(const std::string &dir)
{
    std::vector<std::string> files;
    for (const auto &e : fs::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.starts_with("plan_") && name.ends_with(".bin"))
            files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * One cache directory for the whole suite, so the pf936 corpus is
 * recorded once. Each test starts without a plan.
 */
class PlanCache : public ::testing::Test
{
  protected:
    static void SetUpTestSuite()
    {
        dir_ = (fs::temp_directory_path() / "psca_test_plan_cache")
                   .string();
        fs::remove_all(dir_);
        setenv("PSCA_CACHE_DIR", dir_.c_str(), 1);
    }
    static void TearDownTestSuite()
    {
        unsetenv("PSCA_CACHE_DIR");
        fs::remove_all(dir_);
    }
    void SetUp() override
    {
        FaultRegistry::instance().configure("");
        fs::create_directories(dir_);
        for (const auto &e : fs::directory_iterator(dir_))
            if (e.path().filename().string().starts_with("plan_"))
                fs::remove(e.path());
    }
    void TearDown() override { FaultRegistry::instance().configure(""); }

    static std::string dir_;
};

std::string PlanCache::dir_;

} // namespace

TEST_F(PlanCache, SecondPassIsAHitWithoutTheCorpus)
{
    const uint64_t hits0 = counterValue("record.plan_cache_hits");
    const std::vector<uint16_t> first =
        runPfSelectionPass(tinyScale(), PfConfig{});
    ASSERT_FALSE(first.empty());
    EXPECT_EQ(counterValue("record.plan_cache_hits"), hits0);
    ASSERT_EQ(planFiles(dir_).size(), 1u);

    const uint64_t corpus_hits0 = counterValue("record.cache_hits");
    const uint64_t traces0 = counterValue("record.traces");
    const std::vector<uint16_t> second =
        runPfSelectionPass(tinyScale(), PfConfig{});
    EXPECT_EQ(second, first);
    EXPECT_EQ(counterValue("record.plan_cache_hits"), hits0 + 1);
    // Neither loaded nor recorded: the pf936 corpus was not touched.
    EXPECT_EQ(counterValue("record.cache_hits"), corpus_hits0);
    EXPECT_EQ(counterValue("record.traces"), traces0);
}

TEST_F(PlanCache, StoredPlanRetiresScreenOneCheckpoints)
{
    // Screen 1's checkpoint files, by name, in the journal's directory.
    Journal &journal = Journal::instance();
    ASSERT_TRUE(journal.enabled());
    char prefix[40];
    std::snprintf(prefix, sizeof(prefix), "ckpt_%016llx_",
                  static_cast<unsigned long long>(
                      Journal::scopeHash(kPfScreenScope)));
    const auto screenCheckpoints = [&] {
        std::vector<std::string> names;
        const fs::path dir = fs::path(journal.journalPath()).parent_path();
        for (const auto &e : fs::directory_iterator(dir)) {
            const std::string name = e.path().filename().string();
            if (name.starts_with(prefix))
                names.push_back(name);
        }
        std::sort(names.begin(), names.end());
        return names;
    };

    // A first miss records the pf936 corpus if no test has yet.
    const std::vector<uint16_t> first =
        runPfSelectionPass(tinyScale(), PfConfig{});
    for (const std::string &plan : planFiles(dir_))
        fs::remove(plan);

    // The second miss finds none of screen 1's units checkpointed: the
    // first one's stored plan retired them. It retires its own in turn,
    // and leaves no checkpoint file behind.
    const std::vector<std::string> before = screenCheckpoints();
    const JournalStats s0 = journal.stats();
    const uint64_t hits0 = counterValue("record.plan_cache_hits");
    EXPECT_EQ(runPfSelectionPass(tinyScale(), PfConfig{}), first);
    const JournalStats s1 = journal.stats();
    EXPECT_EQ(counterValue("record.plan_cache_hits"), hits0);
    EXPECT_EQ(s1.unitsSkipped, s0.unitsSkipped);
    EXPECT_EQ(s1.unitsExecuted, s0.unitsExecuted + tinyScale().pfApps);
    EXPECT_EQ(s1.scopesRetired, s0.scopesRetired + 1);
    const std::vector<std::string> after = screenCheckpoints();
    EXPECT_TRUE(std::includes(before.begin(), before.end(),
                              after.begin(), after.end()));

    // The rerun loads the plan.
    EXPECT_EQ(runPfSelectionPass(tinyScale(), PfConfig{}), first);
    EXPECT_EQ(counterValue("record.plan_cache_hits"), hits0 + 1);
}

TEST_F(PlanCache, FlippedByteIsQuarantinedAndRecomputed)
{
    const std::vector<uint16_t> first =
        runPfSelectionPass(tinyScale(), PfConfig{});
    const auto files = planFiles(dir_);
    ASSERT_EQ(files.size(), 1u);
    const std::string plan = files[0];
    const auto size = fs::file_size(plan);
    {
        std::fstream f(plan, std::ios::in | std::ios::out |
                                 std::ios::binary);
        const auto at = static_cast<std::streamoff>(size / 2);
        f.seekg(at);
        const char b = static_cast<char>(f.get() ^ 0x5a);
        f.seekp(at);
        f.put(b);
    }

    const uint64_t quarantined0 =
        counterValue("record.plan_cache_quarantined");
    const uint64_t hits0 = counterValue("record.plan_cache_hits");
    const std::vector<uint16_t> again =
        runPfSelectionPass(tinyScale(), PfConfig{});
    EXPECT_EQ(again, first);
    EXPECT_EQ(counterValue("record.plan_cache_quarantined"),
              quarantined0 + 1);
    EXPECT_EQ(counterValue("record.plan_cache_hits"), hits0);
    EXPECT_TRUE(fs::exists(plan + ".quarantined"));
    EXPECT_EQ(fs::file_size(plan), size);
    fs::remove(plan + ".quarantined");
}

TEST_F(PlanCache, InjectedCorruptionIsQuarantinedAndRecomputed)
{
    const std::vector<uint16_t> first =
        runPfSelectionPass(tinyScale(), PfConfig{});
    const auto files = planFiles(dir_);
    ASSERT_EQ(files.size(), 1u);

    // The site fires on every cache file, the pf936 corpus's too.
    FaultRegistry::instance().configure("persist.cache_corrupt:1", 3);
    const uint64_t quarantined0 =
        counterValue("record.plan_cache_quarantined");
    const std::vector<uint16_t> again =
        runPfSelectionPass(tinyScale(), PfConfig{});
    FaultRegistry::instance().configure("");
    EXPECT_EQ(again, first);
    EXPECT_EQ(counterValue("record.plan_cache_quarantined"),
              quarantined0 + 1);
    EXPECT_TRUE(fs::exists(files[0] + ".quarantined"));
    EXPECT_TRUE(fs::exists(files[0]));
    fs::remove(files[0] + ".quarantined");
}

TEST_F(PlanCache, ConfigChangeMissesAndWritesASecondPlan)
{
    runPfSelectionPass(tinyScale(), PfConfig{});
    ASSERT_EQ(planFiles(dir_).size(), 1u);

    PfConfig narrow;
    narrow.numToSelect = 16;
    const uint64_t hits0 = counterValue("record.plan_cache_hits");
    const std::vector<uint16_t> ids =
        runPfSelectionPass(tinyScale(), narrow);
    EXPECT_LE(ids.size(), 16u);
    EXPECT_EQ(counterValue("record.plan_cache_hits"), hits0);
    EXPECT_EQ(planFiles(dir_).size(), 2u);

    // Each config now hits its own plan.
    EXPECT_EQ(runPfSelectionPass(tinyScale(), narrow), ids);
    EXPECT_EQ(counterValue("record.plan_cache_hits"), hits0 + 1);
}
