/**
 * @file
 * Tests for app-level cross-validation splitting, model evaluation,
 * and sensitivity calibration.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/crossval.hh"
#include "ml/mlp.hh"
#include "ml/tree.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

TEST(AppSplit, AppsNeverStraddle)
{
    const Dataset d = groupedData(20, 30, 1);
    const FoldSplit split = appLevelSplit(d, 0.8, 42);
    std::set<uint32_t> tune_apps, valid_apps;
    for (size_t i : split.tuneIdx)
        tune_apps.insert(d.appId[i]);
    for (size_t i : split.validIdx)
        valid_apps.insert(d.appId[i]);
    for (uint32_t a : tune_apps)
        EXPECT_EQ(valid_apps.count(a), 0u);
    EXPECT_EQ(split.tuneIdx.size() + split.validIdx.size(),
              d.numSamples());
}

TEST(AppSplit, TuneFractionApproximate)
{
    const Dataset d = groupedData(50, 10, 2);
    const FoldSplit split = appLevelSplit(d, 0.8, 7);
    EXPECT_NEAR(static_cast<double>(split.tuneIdx.size()) /
                    static_cast<double>(d.numSamples()),
                0.8, 0.1);
}

TEST(AppSplit, MaxTuneAppsCapsDiversity)
{
    // The Fig. 4 knob: limit the number of tuning applications.
    const Dataset d = groupedData(40, 10, 3);
    const FoldSplit split = appLevelSplit(d, 0.8, 7, 5);
    std::set<uint32_t> tune_apps;
    for (size_t i : split.tuneIdx)
        tune_apps.insert(d.appId[i]);
    EXPECT_EQ(tune_apps.size(), 5u);
}

TEST(AppSplit, DifferentSeedsDifferentFolds)
{
    const Dataset d = groupedData(20, 10, 4);
    const FoldSplit a = appLevelSplit(d, 0.8, 1);
    const FoldSplit b = appLevelSplit(d, 0.8, 2);
    EXPECT_NE(a.tuneIdx, b.tuneIdx);
}

TEST(Calibration, RaisesThresholdUntilRsvMet)
{
    // A model that always gates on a mostly-no-gate dataset: only a
    // high threshold can stop it.
    Dataset d = groupedData(10, 40, 5);
    for (auto &y : d.y)
        y = 0;
    MlpConfig cfg;
    cfg.epochs = 1;
    auto model = trainMlp(d, cfg);
    // Force the scores high by construction: skip training effects
    // and verify the calibration moves the threshold monotonically.
    calibrateThreshold(*model, d, 8, 0.0);
    EXPECT_GE(model->threshold(), 0.5);
}

TEST(CrossVal, RunsAllFolds)
{
    const Dataset d = groupedData(25, 20, 6);
    CrossValOptions opts;
    opts.folds = 4;
    opts.rsvWindow = 8;
    const CrossValSummary s = crossValidate(
        d,
        [](const Dataset &tune, uint64_t seed) {
            MlpConfig cfg;
            cfg.epochs = 10;
            cfg.seed = seed;
            return std::unique_ptr<Model>(trainMlp(tune, cfg).release());
        },
        opts);
    EXPECT_EQ(s.folds.size(), 4u);
    EXPECT_GT(s.pgosMean, 0.6); // learnable linear task
    EXPECT_GE(s.pgosStd, 0.0);
}

TEST(CrossVal, MaxTuneSamplesRespected)
{
    const Dataset d = groupedData(25, 40, 7);
    CrossValOptions opts;
    opts.folds = 2;
    opts.maxTuneSamples = 50;
    opts.rsvWindow = 8;
    size_t seen = 0;
    crossValidate(
        d,
        [&](const Dataset &tune, uint64_t) {
            seen = std::max(seen, tune.numSamples());
            ForestConfig fc;
            fc.numTrees = 2;
            fc.maxDepth = 4;
            return std::unique_ptr<Model>(
                std::make_unique<RandomForest>(tune, fc).release());
        },
        opts);
    EXPECT_LE(seen, 50u);
}

TEST(EvaluateModel, CountsMatchManual)
{
    const Dataset d = groupedData(5, 20, 8);
    ForestConfig fc;
    fc.numTrees = 4;
    fc.maxDepth = 6;
    RandomForest model(d, fc);
    const EvalResult r = evaluateModel(model, d, 8);
    EXPECT_EQ(r.confusion.total(), d.numSamples());
    EXPECT_GE(r.pgos, 0.0);
    EXPECT_LE(r.pgos, 1.0);
    EXPECT_GE(r.rsv, 0.0);
    EXPECT_LE(r.rsv, 1.0);
}
