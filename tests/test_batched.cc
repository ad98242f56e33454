/**
 * @file
 * Bit-identity tests for the SIMD-batched kernels (DESIGN.md §14):
 * every model's scoreBatch/predictBatch must match the scalar
 * score/predict path bitwise under whatever SIMD level is active (the
 * scalar-fallback CI job re-runs this binary with PSCA_SIMD=scalar).
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/simd.hh"
#include "ml/linear.hh"
#include "ml/mlp.hh"
#include "ml/svm.hh"
#include "ml/tree.hh"

using namespace psca;

namespace {

Dataset
syntheticDataset(size_t features, size_t samples, uint64_t seed)
{
    Dataset data;
    data.numFeatures = features;
    Rng rng(seed);
    std::vector<float> row(features);
    for (size_t i = 0; i < samples; ++i) {
        double sum = 0.0;
        for (auto &v : row) {
            v = static_cast<float>(rng.uniform() * 4.0 - 2.0);
            sum += v;
        }
        const uint8_t label = sum + rng.uniform() > 0.0 ? 1 : 0;
        data.addSample(row.data(), label,
                       static_cast<uint32_t>(i % 7),
                       static_cast<uint32_t>(i % 13));
    }
    return data;
}

/** Batched scores/decisions must equal the scalar path bitwise. */
void
expectBatchMatchesScalar(const Model &model, const Dataset &data)
{
    const int n = static_cast<int>(data.numSamples());
    std::vector<double> batch(static_cast<size_t>(n));
    model.scoreBatch(data.x.data(), n, batch.data());
    for (int i = 0; i < n; ++i) {
        const double scalar = model.score(data.row(
            static_cast<size_t>(i)));
        ASSERT_EQ(scalar, batch[static_cast<size_t>(i)])
            << model.describe() << " sample " << i;
    }

    std::vector<float> decisions(static_cast<size_t>(n));
    model.predictBatch(data.x.data(), n, decisions.data());
    for (int i = 0; i < n; ++i) {
        const bool pred = model.predict(data.row(
            static_cast<size_t>(i)));
        ASSERT_EQ(pred, decisions[static_cast<size_t>(i)] != 0.0f)
            << model.describe() << " sample " << i;
    }
}

} // namespace

TEST(PredictBatch, ForestMatchesScalar)
{
    const Dataset data = syntheticDataset(12, 403, 101);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 6;
    fc.seed = 5;
    RandomForest model(data, fc);
    model.setThreshold(0.55);
    expectBatchMatchesScalar(model, data);
}

TEST(PredictBatch, MlpMatchesScalar)
{
    const Dataset data = syntheticDataset(12, 403, 202);
    MlpConfig mc;
    mc.hiddenLayers = {8, 8, 4};
    mc.epochs = 5;
    mc.seed = 5;
    const auto model = trainMlp(data, mc);
    expectBatchMatchesScalar(*model, data);
}

TEST(PredictBatch, LogisticRegressionMatchesScalar)
{
    const Dataset data = syntheticDataset(12, 403, 303);
    LogRegConfig lc;
    LogisticRegression model(data, lc);
    expectBatchMatchesScalar(model, data);
}

TEST(PredictBatch, LinearSvmEnsembleMatchesScalar)
{
    const Dataset data = syntheticDataset(12, 403, 404);
    LinearSvmConfig sc;
    sc.epochs = 2;
    LinearSvmEnsemble model(data, sc);
    expectBatchMatchesScalar(model, data);
}

TEST(PredictBatch, Chi2SvmMatchesScalar)
{
    const Dataset data = syntheticDataset(12, 203, 505);
    Chi2SvmConfig sc;
    sc.maxSupportVectors = 64;
    sc.epochs = 1;
    Chi2Svm model(data, sc);
    expectBatchMatchesScalar(model, data);
}

TEST(PredictBatch, ForestBatchIsThreadSafe)
{
    // The flattened-forest cache builds lazily behind a once_flag;
    // concurrent first calls (as in parallel cross-validation) must
    // all see a complete table.
    const Dataset data = syntheticDataset(12, 512, 606);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 6;
    fc.seed = 9;
    RandomForest model(data, fc);

    const int n = static_cast<int>(data.numSamples());
    std::vector<std::vector<double>> results(
        4, std::vector<double>(static_cast<size_t>(n)));
    std::vector<std::thread> threads;
    for (auto &out : results)
        threads.emplace_back([&model, &data, n, &out] {
            model.scoreBatch(data.x.data(), n, out.data());
        });
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < n; ++i) {
        const double want =
            model.score(data.row(static_cast<size_t>(i)));
        for (const auto &out : results)
            ASSERT_EQ(want, out[static_cast<size_t>(i)]);
    }
}

TEST(PredictBatch, ReportsActiveSimdLevel)
{
    // Sanity on the dispatch gates: the resolved level is one of the
    // two supported tokens, and PSCA_SIMD=scalar CI runs see scalar.
    const char *level = simd::levelName(simd::activeLevel());
    EXPECT_TRUE(std::string(level) == "avx2" ||
                std::string(level) == "scalar");
    const char *want = std::getenv("PSCA_SIMD");
    if (want && std::string(want) == "scalar") {
        EXPECT_STREQ(level, "scalar");
    }
}
