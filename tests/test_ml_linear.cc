/**
 * @file
 * Tests for logistic regression (with L-BFGS), the linear-SVM
 * ensemble, and the chi-square kernel SVM.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hh"
#include "ml/linear.hh"
#include "ml/svm.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;

namespace {

Dataset
linearData(size_t n, uint64_t seed, double noise = 0.0)
{
    Rng rng(seed);
    Dataset d;
    d.numFeatures = 3;
    for (size_t i = 0; i < n; ++i) {
        float row[3];
        for (auto &v : row)
            v = static_cast<float>(rng.gaussian());
        const double z = 2.0 * row[0] - row[1] + 0.5 * row[2] +
            rng.gaussian(0.0, noise);
        d.addSample(row, z > 0 ? 1 : 0, static_cast<uint32_t>(i % 3),
                    0);
    }
    return d;
}

} // namespace

TEST(Lbfgs, MinimizesQuadratic)
{
    // f(x) = (x0-3)^2 + 2(x1+1)^2
    auto eval = [](const std::vector<double> &x,
                   std::vector<double> &g) {
        g[0] = 2.0 * (x[0] - 3.0);
        g[1] = 4.0 * (x[1] + 1.0);
        return (x[0] - 3.0) * (x[0] - 3.0) +
            2.0 * (x[1] + 1.0) * (x[1] + 1.0);
    };
    std::vector<double> x{0.0, 0.0};
    lbfgsMinimize(2, eval, x);
    EXPECT_NEAR(x[0], 3.0, 1e-5);
    EXPECT_NEAR(x[1], -1.0, 1e-5);
}

TEST(Lbfgs, MinimizesRosenbrock)
{
    auto eval = [](const std::vector<double> &x,
                   std::vector<double> &g) {
        const double a = 1.0 - x[0];
        const double b = x[1] - x[0] * x[0];
        g[0] = -2.0 * a - 400.0 * x[0] * b;
        g[1] = 200.0 * b;
        return a * a + 100.0 * b * b;
    };
    std::vector<double> x{-1.2, 1.0};
    lbfgsMinimize(2, eval, x, 2000, 10, 1e-14);
    EXPECT_NEAR(x[0], 1.0, 1e-2);
    EXPECT_NEAR(x[1], 1.0, 2e-2);
}

TEST(LogReg, RecoversLinearBoundary)
{
    const Dataset d = linearData(3000, 1);
    LogisticRegression lr(d, LogRegConfig{});
    EXPECT_GT(accuracy(lr, d), 0.97);
    // Coefficient directions match the generating weights.
    const auto &w = lr.coefficients();
    EXPECT_GT(w[0], 0.0);
    EXPECT_LT(w[1], 0.0);
    EXPECT_GT(w[2], 0.0);
}

TEST(LogReg, HandlesNoisyData)
{
    const Dataset d = linearData(3000, 2, 1.0);
    LogisticRegression lr(d, LogRegConfig{});
    EXPECT_GT(accuracy(lr, d), 0.80);
}

TEST(LogReg, OpsMatchPaperConvention)
{
    // 12 counters: 3*12 + 122 = 158 ops (paper Table 3).
    Dataset d;
    d.numFeatures = 12;
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        float row[12];
        for (auto &v : row)
            v = static_cast<float>(rng.gaussian());
        d.addSample(row, i % 2, 0, 0);
    }
    LogisticRegression lr(d, LogRegConfig{});
    EXPECT_EQ(lr.opsPerInference(), 158u);
    // SRCH-scale input (150 histogram features): 572 ops (Sec. 7).
    Dataset d2;
    d2.numFeatures = 150;
    std::vector<float> row(150, 0.0f);
    d2.addSample(row.data(), 0, 0, 0);
    row[0] = 1.0f;
    d2.addSample(row.data(), 1, 0, 0);
    LogisticRegression lr2(d2, LogRegConfig{});
    EXPECT_EQ(lr2.opsPerInference(), 572u);
}

TEST(LinearSvm, LearnsSeparableData)
{
    const Dataset d = linearData(2000, 4);
    LinearSvmConfig cfg;
    LinearSvmEnsemble svm(d, cfg);
    EXPECT_GT(accuracy(svm, d), 0.9);
}

TEST(LinearSvm, VoteScoreIsFraction)
{
    const Dataset d = linearData(500, 5);
    LinearSvmEnsemble svm(d, LinearSvmConfig{});
    for (size_t i = 0; i < 50; ++i) {
        const double s = svm.score(d.row(i));
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
        // With 5 members, scores quantize to fifths.
        EXPECT_NEAR(s * 5.0, std::round(s * 5.0), 1e-9);
    }
}

TEST(Chi2Svm, LearnsNonLinearBoundary)
{
    // Ring dataset: inside vs outside a radius (not linearly
    // separable).
    Rng rng(6);
    Dataset d;
    d.numFeatures = 2;
    for (int i = 0; i < 1500; ++i) {
        float row[2] = {static_cast<float>(rng.uniform(0, 2)),
                        static_cast<float>(rng.uniform(0, 2))};
        const double r = (row[0] - 1.0) * (row[0] - 1.0) +
            (row[1] - 1.0) * (row[1] - 1.0);
        d.addSample(row, r < 0.3 ? 1 : 0, 0, 0);
    }
    Chi2SvmConfig cfg;
    cfg.maxSupportVectors = 400;
    cfg.gamma = 2.0;
    cfg.epochs = 10;
    Chi2Svm svm(d, cfg);
    // Budgeted Pegasos is a rougher fit than exact SMO; it must still
    // clearly beat the 50% chance line on this non-linear task.
    EXPECT_GT(accuracy(svm, d), 0.72);
}

TEST(Chi2Svm, RespectsSupportVectorBudget)
{
    const Dataset d = linearData(2000, 7, 2.0); // noisy
    Chi2SvmConfig cfg;
    cfg.maxSupportVectors = 100;
    Chi2Svm svm(d, cfg);
    EXPECT_LE(svm.numSupportVectors(), 100u);
}

TEST(Chi2Svm, OpsScaleWithSupportVectors)
{
    const Dataset d = linearData(800, 8, 1.5);
    Chi2SvmConfig cfg;
    cfg.maxSupportVectors = 50;
    Chi2Svm svm(d, cfg);
    EXPECT_EQ(svm.opsPerInference(),
              svm.numSupportVectors() * (8u * 3u + 25u));
}
