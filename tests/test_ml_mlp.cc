/**
 * @file
 * Tests for the MLP adaptation model: learning behaviour, Table 3
 * firmware cost accounting, and interface invariants.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "ml/mlp.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

namespace {

/** Linearly separable 2D dataset. */
Dataset
linearData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = 2;
    for (size_t i = 0; i < n; ++i) {
        const float x0 = static_cast<float>(rng.gaussian());
        const float x1 = static_cast<float>(rng.gaussian());
        const float row[2] = {x0, x1};
        d.addSample(row, x0 + x1 > 0.0f ? 1 : 0,
                    static_cast<uint32_t>(i % 7), 0);
    }
    return d;
}

/** XOR-style dataset (needs a hidden layer). */
Dataset
xorData(size_t n, uint64_t seed)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = 2;
    for (size_t i = 0; i < n; ++i) {
        const float x0 = rng.bernoulli(0.5) ? 1.0f : -1.0f;
        const float x1 = rng.bernoulli(0.5) ? 1.0f : -1.0f;
        const float row[2] = {
            x0 + static_cast<float>(rng.gaussian(0, 0.1)),
            x1 + static_cast<float>(rng.gaussian(0, 0.1))};
        d.addSample(row, (x0 > 0) != (x1 > 0) ? 1 : 0, 0, 0);
    }
    return d;
}

} // namespace

TEST(Mlp, LearnsLinearBoundary)
{
    const Dataset d = linearData(2000, 1);
    MlpConfig cfg;
    cfg.hiddenLayers = {8};
    cfg.epochs = 20;
    auto m = trainMlp(d, cfg);
    EXPECT_GT(accuracy(*m, d), 0.95);
}

TEST(Mlp, LearnsXor)
{
    const Dataset d = xorData(2000, 2);
    MlpConfig cfg;
    cfg.hiddenLayers = {8, 4};
    cfg.epochs = 60;
    cfg.learningRate = 1e-2;
    auto m = trainMlp(d, cfg);
    EXPECT_GT(accuracy(*m, d), 0.95);
}

TEST(Mlp, GeneralizesToHeldOut)
{
    const Dataset train = linearData(2000, 3);
    const Dataset test = linearData(500, 4);
    MlpConfig cfg;
    cfg.hiddenLayers = {8, 8, 4};
    cfg.epochs = 20;
    auto m = trainMlp(train, cfg);
    EXPECT_GT(accuracy(*m, test), 0.93);
}

TEST(Mlp, ScoreIsProbability)
{
    const Dataset d = linearData(500, 5);
    MlpConfig cfg;
    cfg.epochs = 5;
    auto m = trainMlp(d, cfg);
    for (size_t i = 0; i < 100; ++i) {
        const double s = m->score(d.row(i));
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
    }
}

TEST(Mlp, DeterministicTraining)
{
    const Dataset d = linearData(500, 6);
    MlpConfig cfg;
    cfg.epochs = 5;
    cfg.seed = 9;
    auto a = trainMlp(d, cfg);
    auto b = trainMlp(d, cfg);
    for (size_t i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(a->score(d.row(i)), b->score(d.row(i)));
}

TEST(Mlp, ThresholdShiftsDecisions)
{
    const Dataset d = linearData(500, 7);
    MlpConfig cfg;
    cfg.epochs = 10;
    auto m = trainMlp(d, cfg);
    size_t gates_low = 0, gates_high = 0;
    m->setThreshold(0.2);
    for (size_t i = 0; i < d.numSamples(); ++i)
        gates_low += m->predict(d.row(i)) ? 1 : 0;
    m->setThreshold(0.8);
    for (size_t i = 0; i < d.numSamples(); ++i)
        gates_high += m->predict(d.row(i)) ? 1 : 0;
    EXPECT_GT(gates_low, gates_high);
}

// ---- Table 3 firmware cost accounting -------------------------------

struct MlpCostCase
{
    size_t inputs;
    std::vector<int> hidden;
    uint32_t paperOps;
};

class MlpCosts : public ::testing::TestWithParam<MlpCostCase>
{};

TEST_P(MlpCosts, MatchesPaperExactly)
{
    const auto &c = GetParam();
    MlpModel m(c.inputs, c.hidden, 1);
    EXPECT_EQ(m.opsPerInference(), c.paperOps);
}

INSTANTIATE_TEST_SUITE_P(
    Table3, MlpCosts,
    ::testing::Values(
        // 3 layers, 32/32/16 filters, 12 counters -> 6,162 ops.
        MlpCostCase{12, {32, 32, 16}, 6162},
        // 3 layers, 8/8/4 filters, 12 counters -> 678 ops.
        MlpCostCase{12, {8, 8, 4}, 678},
        // 1 layer, 10 filters, 8 counters (CHARSTAR) -> 292 ops.
        MlpCostCase{8, {10}, 292}));

TEST(Mlp, MemoryFootprintCountsParameters)
{
    MlpModel m(12, {8, 8, 4}, 1);
    // (12*8+8) + (8*8+8) + (8*4+4) + (4*1+1) parameters * 4 bytes.
    const size_t params = (12 * 8 + 8) + (8 * 8 + 8) + (8 * 4 + 4) +
        (4 * 1 + 1);
    EXPECT_EQ(m.memoryFootprintBytes(), params * 4);
}

TEST(Mlp, DescribeNamesTopology)
{
    MlpModel m(12, {8, 8, 4}, 1);
    EXPECT_EQ(m.describe(), "MLP 8/8/4");
}
