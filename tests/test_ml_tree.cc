/**
 * @file
 * Tests for CART decision trees and random forests, including the
 * Table 3 cost accounting (133 ops for a depth-16 tree, 538/1,074
 * ops and 20.48/40.96 KB for the 8/16-tree forests).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/tree.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

namespace {

Dataset
axisData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = 4;
    for (size_t i = 0; i < n; ++i) {
        float row[4];
        for (auto &v : row)
            v = static_cast<float>(rng.uniform(-1, 1));
        // Label depends on two features with an interaction.
        const bool y = row[1] > 0.2f || (row[3] < -0.5f && row[0] > 0);
        d.addSample(row, y ? 1 : 0, static_cast<uint32_t>(i % 5), 0);
    }
    return d;
}

} // namespace

TEST(DecisionTree, FitsAxisAlignedData)
{
    const Dataset d = axisData(2000, 1);
    TreeConfig cfg;
    cfg.maxDepth = 8;
    DecisionTree tree(d, {}, cfg);
    EXPECT_GT(accuracy(tree, d), 0.95);
}

TEST(DecisionTree, RespectsMaxDepth)
{
    const Dataset d = axisData(2000, 2);
    TreeConfig cfg;
    cfg.maxDepth = 2;
    DecisionTree tree(d, {}, cfg);
    // Depth-2 tree has at most 7 nodes.
    EXPECT_LE(tree.nodes().size(), 7u);
}

TEST(DecisionTree, PureLeafProbabilities)
{
    const Dataset d = axisData(2000, 3);
    TreeConfig cfg;
    cfg.maxDepth = 10;
    DecisionTree tree(d, {}, cfg);
    for (const auto &node : tree.nodes()) {
        EXPECT_GE(node.prob, 0.0f);
        EXPECT_LE(node.prob, 1.0f);
    }
}

TEST(DecisionTree, HandlesConstantLabels)
{
    Dataset d;
    d.numFeatures = 2;
    for (int i = 0; i < 50; ++i) {
        const float row[2] = {static_cast<float>(i), 1.0f};
        d.addSample(row, 1, 0, 0);
    }
    TreeConfig cfg;
    DecisionTree tree(d, {}, cfg);
    EXPECT_GT(tree.score(d.row(0)), 0.5);
    EXPECT_EQ(tree.nodes().size(), 1u); // pure root, no split
}

TEST(DecisionTree, Table3Costs)
{
    Dataset d = axisData(100, 4);
    TreeConfig cfg;
    cfg.maxDepth = 16;
    DecisionTree tree(d, {}, cfg);
    EXPECT_EQ(tree.opsPerInference(), 133u); // paper: 133
    EXPECT_EQ(tree.memoryFootprintBytes(), 655360u); // 655.36KB
}

TEST(RandomForest, BeatsWorstTreeOnHeldOut)
{
    const Dataset train = axisData(2000, 5);
    const Dataset test = axisData(600, 6);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    RandomForest forest(train, fc);
    EXPECT_GT(accuracy(forest, test), 0.9);
}

TEST(RandomForest, ScoreIsMeanOfTrees)
{
    const Dataset d = axisData(500, 7);
    ForestConfig fc;
    fc.numTrees = 4;
    fc.maxDepth = 4;
    RandomForest forest(d, fc);
    const float *x = d.row(0);
    double sum = 0.0;
    for (const auto &t : forest.trees())
        sum += t->score(x);
    EXPECT_NEAR(forest.score(x), sum / 4.0, 1e-12);
}

TEST(RandomForest, Table3Costs)
{
    const Dataset d = axisData(300, 8);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    RandomForest f8(d, fc);
    EXPECT_EQ(f8.opsPerInference(), 538u);          // paper: 538
    EXPECT_EQ(f8.memoryFootprintBytes(), 20480u);   // 20.48KB

    fc.numTrees = 16;
    RandomForest f16(d, fc);
    EXPECT_EQ(f16.opsPerInference(), 1074u);        // paper: 1,074
    EXPECT_EQ(f16.memoryFootprintBytes(), 40960u);  // ~40.48KB
}

TEST(RandomForest, DeterministicTraining)
{
    const Dataset d = axisData(500, 9);
    ForestConfig fc;
    fc.seed = 5;
    RandomForest a(d, fc), b(d, fc);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.score(d.row(i)), b.score(d.row(i)));
}

TEST(RandomForest, MergeCombinesTrees)
{
    // The Sec. 7.3 app-specific flow merges two 4-tree forests.
    const Dataset d1 = axisData(500, 10);
    const Dataset d2 = axisData(500, 11);
    ForestConfig fc;
    fc.numTrees = 4;
    RandomForest a(d1, fc);
    fc.seed = 77;
    RandomForest b(d2, fc);
    auto trees = a.takeTrees();
    for (auto &t : b.takeTrees())
        trees.push_back(std::move(t));
    RandomForest merged(std::move(trees));
    EXPECT_EQ(merged.trees().size(), 8u);
    EXPECT_EQ(merged.opsPerInference(), 538u);
}

class ForestDepthSweep : public ::testing::TestWithParam<int>
{};

TEST_P(ForestDepthSweep, OpsScaleLinearlyWithDepth)
{
    const Dataset d = axisData(200, 12);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = GetParam();
    RandomForest f(d, fc);
    EXPECT_EQ(f.opsPerInference(),
              8u * 8u * static_cast<uint32_t>(GetParam()) + 8u * 3u +
                  2u);
}

INSTANTIATE_TEST_SUITE_P(Depths, ForestDepthSweep,
                         ::testing::Values(2, 4, 6, 8, 10, 12));
