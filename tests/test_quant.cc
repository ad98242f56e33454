/**
 * @file
 * Tests for the int8/fixed-point inference path (quant.hh,
 * DESIGN.md §14): tree traversal must be bit-exact against the float
 * forest on dequantized inputs, MLP/linear logits must stay within
 * their provable error bounds, payloads must round-trip through the
 * v4 firmware image, and stale-version images must be rejected.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.hh"
#include "core/firmware_image.hh"
#include "ml/quant.hh"
#include "ml/svm.hh"

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
            v = static_cast<float>(rng.uniform() * 6.0 - 3.0);
            sum += v;
        }
        const uint8_t label = sum + rng.uniform() > 0.0 ? 1 : 0;
        data.addSample(row.data(), label,
                       static_cast<uint32_t>(i % 5),
                       static_cast<uint32_t>(i % 11));
    }
    return data;
}

/** Float-tree leaf selection on an already-dequantized input. */
const DecisionTree::Node &
referenceLeaf(const DecisionTree &tree, const float *x)
{
    const auto &nodes = tree.nodes();
    int32_t node = 0;
    while (nodes[static_cast<size_t>(node)].feature >= 0) {
        const auto &nd = nodes[static_cast<size_t>(node)];
        node = x[nd.feature] <= nd.threshold ? nd.left : nd.right;
    }
    return nodes[static_cast<size_t>(node)];
}

/** Scalar float MLP forward returning the pre-sigmoid logit. */
double
floatLogit(const MlpModel &m, const float *x)
{
    std::vector<float> act(x, x + m.numInputs());
    std::vector<float> next;
    const auto &sizes = m.layerSizes();
    const size_t layers = sizes.size() - 1;
    for (size_t l = 0; l < layers; ++l) {
        const int fan_in = sizes[l];
        const int fan_out = sizes[l + 1];
        next.assign(static_cast<size_t>(fan_out), 0.0f);
        const bool last = l + 1 == layers;
        for (int f = 0; f < fan_out; ++f) {
            const float *row = m.weights(l).data() +
                static_cast<size_t>(f) * fan_in;
            float sum = m.biases(l)[static_cast<size_t>(f)];
            for (int i = 0; i < fan_in; ++i)
                sum += row[i] * act[static_cast<size_t>(i)];
            next[static_cast<size_t>(f)] =
                last ? sum : std::max(0.0f, sum);
        }
        act.swap(next);
    }
    return static_cast<double>(act[0]);
}

} // namespace

TEST(Quant, InputGridRoundTrips)
{
    // Grid points dequantize exactly; off-grid values snap to the
    // nearest grid point; the rails clamp.
    EXPECT_EQ(quant::quantizeInput(0.0f), 0);
    EXPECT_EQ(quant::quantizeInput(1.0f), quant::kInputScale);
    EXPECT_EQ(quant::quantizeInput(-1.0f), -quant::kInputScale);
    EXPECT_EQ(quant::quantizeInput(100.0f), 127);
    EXPECT_EQ(quant::quantizeInput(-100.0f), -128);
    for (int q = -128; q <= 127; ++q) {
        const float x = quant::dequantizeInput(
            static_cast<int8_t>(q));
        EXPECT_EQ(quant::quantizeInput(x), q);
    }
}

TEST(Quant, ForestTraversalBitExact)
{
    const Dataset data = syntheticDataset(12, 600, 31);
    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 8;
    fc.seed = 3;
    RandomForest forest(data, fc);
    const quant::QuantizedForest qf =
        quant::QuantizedForest::fromForest(forest);

    Rng rng(77);
    std::vector<float> x(12), deq(12);
    std::vector<int8_t> qx(12);
    for (int trial = 0; trial < 500; ++trial) {
        // Include out-of-grid magnitudes to exercise the clamp rails.
        for (auto &v : x)
            v = static_cast<float>(rng.uniform() * 24.0 - 12.0);
        quant::quantizeInputs(x.data(), x.size(), qx.data());
        for (size_t j = 0; j < x.size(); ++j)
            deq[j] = quant::dequantizeInput(qx[j]);

        // The integer traversal must select exactly the leaves the
        // float forest selects on the dequantized input.
        int64_t expected = 0;
        for (const auto &tree : forest.trees()) {
            const auto &leaf = referenceLeaf(*tree, deq.data());
            expected += std::lround(
                static_cast<double>(leaf.prob) * quant::kProbScale);
        }
        const double want = static_cast<double>(expected) /
            (static_cast<double>(forest.trees().size()) *
             quant::kProbScale);
        ASSERT_EQ(want, qf.scoreQuantized(qx.data()))
            << "trial " << trial;
        ASSERT_EQ(want, qf.score(x.data())) << "trial " << trial;
    }
}

TEST(Quant, MlpLogitWithinProvableBound)
{
    const Dataset data = syntheticDataset(12, 500, 32);
    MlpConfig mc;
    mc.hiddenLayers = {8, 8, 4};
    mc.epochs = 10;
    mc.seed = 7;
    const auto mlp = trainMlp(data, mc);
    const quant::QuantizedMlp qm =
        quant::QuantizedMlp::fromMlp(*mlp);
    const double bound = qm.logitErrorBound();
    EXPECT_GT(bound, 0.0);

    Rng rng(78);
    std::vector<float> x(12), deq(12);
    std::vector<int8_t> qx(12);
    double max_err = 0.0;
    for (int trial = 0; trial < 500; ++trial) {
        for (auto &v : x)
            v = static_cast<float>(rng.uniform() * 12.0 - 6.0);
        quant::quantizeInputs(x.data(), x.size(), qx.data());
        for (size_t j = 0; j < x.size(); ++j)
            deq[j] = quant::dequantizeInput(qx[j]);
        const double err = std::abs(qm.logitQuantized(qx.data()) -
                                    floatLogit(*mlp, deq.data()));
        max_err = std::max(max_err, err);
        ASSERT_LE(err, bound) << "trial " << trial;
    }
    // The bound should be meaningful, not vacuous: the observed
    // error must land within a few orders of magnitude of it.
    EXPECT_GT(max_err, 0.0);
}

TEST(Quant, LinearLogitWithinProvableBound)
{
    const Dataset data = syntheticDataset(12, 500, 33);
    LogRegConfig lc;
    LogisticRegression lr(data, lc);
    const quant::QuantizedLinear ql =
        quant::QuantizedLinear::fromLogReg(lr);
    const double bound = ql.logitErrorBound();
    EXPECT_GT(bound, 0.0);

    Rng rng(79);
    std::vector<float> x(12);
    std::vector<int8_t> qx(12);
    for (int trial = 0; trial < 500; ++trial) {
        for (auto &v : x)
            v = static_cast<float>(rng.uniform() * 12.0 - 6.0);
        quant::quantizeInputs(x.data(), x.size(), qx.data());
        double want = lr.bias();
        for (size_t j = 0; j < x.size(); ++j)
            want += lr.coefficients()[j] *
                static_cast<double>(quant::dequantizeInput(qx[j]));
        ASSERT_LE(std::abs(ql.logitQuantized(qx.data()) - want),
                  bound)
            << "trial " << trial;
    }
}

TEST(Quant, PayloadRoundTripsAllModelClasses)
{
    const Dataset data = syntheticDataset(12, 400, 34);
    ForestConfig fc;
    fc.numTrees = 4;
    fc.maxDepth = 6;
    RandomForest forest(data, fc);
    MlpConfig mc;
    mc.epochs = 3;
    const auto mlp = trainMlp(data, mc);
    LogisticRegression lr(data, LogRegConfig{});

    Rng rng(80);
    std::vector<float> x(12);
    for (const Model *m :
         {static_cast<const Model *>(&forest),
          static_cast<const Model *>(mlp.get()),
          static_cast<const Model *>(&lr)}) {
        const std::string payload = quant::packPayload(*m);
        ASSERT_FALSE(payload.empty()) << m->describe();
        const auto unpacked = quant::unpackPayload(payload);
        ASSERT_NE(unpacked, nullptr) << m->describe();
        const auto direct = quant::quantize(*m);
        ASSERT_NE(direct, nullptr) << m->describe();
        EXPECT_EQ(unpacked->opsPerInference(),
                  quant::payloadOps(payload));
        for (int trial = 0; trial < 100; ++trial) {
            for (auto &v : x)
                v = static_cast<float>(rng.uniform() * 8.0 - 4.0);
            ASSERT_EQ(direct->score(x.data()),
                      unpacked->score(x.data()))
                << m->describe() << " trial " << trial;
        }
    }

    // Unsupported model classes have no quantized form.
    Chi2SvmConfig sc;
    sc.maxSupportVectors = 16;
    sc.epochs = 1;
    const Chi2Svm svm(data, sc);
    EXPECT_TRUE(quant::packPayload(svm).empty());
    EXPECT_EQ(quant::quantize(svm), nullptr);
}

TEST(Quant, FirmwareV4RoundTripCarriesFixedPointSlots)
{
    const Dataset data = syntheticDataset(6, 400, 35);
    ForestConfig fc;
    fc.numTrees = 4;
    fc.maxDepth = 6;
    ScaledModel high{FeatureScaler::fit(data),
                     std::make_shared<RandomForest>(data, fc)};
    fc.seed = 2;
    ScaledModel low{FeatureScaler::fit(data),
                    std::make_shared<RandomForest>(data, fc)};
    DualModelPredictor native(high, low, {0, 1, 2, 3, 4, 5}, 20000,
                              "quant_rf");

    const FirmwarePackage pkg =
        packageFromDual(native, {0, 1, 2, 3, 4, 5}, true);

    EXPECT_TRUE(pkg.fixedPoint);
    EXPECT_FALSE(pkg.high.quantPayload.empty());
    EXPECT_GT(pkg.high.quantOps, 0u);
    // Int8 cost model: cheaper than the float VM program.
    EXPECT_LT(pkg.high.quantOps, pkg.high.program.staticOpCount());

    const std::string path = "/tmp/psca_quant_fw_test.bin";
    pkg.save(path);
    const FirmwarePackage loaded = FirmwarePackage::load(path);
    EXPECT_TRUE(loaded.fixedPoint);
    EXPECT_EQ(loaded.high.quantPayload, pkg.high.quantPayload);
    EXPECT_EQ(loaded.low.quantPayload, pkg.low.quantPayload);
    EXPECT_EQ(loaded.high.quantOps, pkg.high.quantOps);

    // VmPredictor charges the budget at the int8 cost model.
    VmPredictor vm(loaded);
    EXPECT_EQ(vm.opsPerInference(),
              std::max(pkg.high.quantOps, pkg.low.quantOps));
    std::filesystem::remove(path);

    // By default the package stays float-only and byte-stable.
    const FirmwarePackage plain =
        packageFromDual(native, {0, 1, 2, 3, 4, 5});
    EXPECT_FALSE(plain.fixedPoint);
    EXPECT_TRUE(plain.high.quantPayload.empty());
}

TEST(Quant, StaleFirmwareVersionRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Dataset data = syntheticDataset(6, 300, 36);
    ForestConfig fc;
    fc.numTrees = 2;
    fc.maxDepth = 4;
    ScaledModel slot{FeatureScaler::fit(data),
                     std::make_shared<RandomForest>(data, fc)};
    DualModelPredictor native(slot, slot, {0, 1, 2, 3, 4, 5}, 20000,
                              "stale");
    const FirmwarePackage pkg =
        packageFromDual(native, {0, 1, 2, 3, 4, 5});
    const std::string path = "/tmp/psca_quant_fw_stale.bin";
    pkg.save(path);

    // Patch the version field (u32 after the u64 magic) back to 3:
    // pre-fixed-point images must be rejected, not misparsed.
    {
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(8);
        const uint32_t old_version = 3;
        f.write(reinterpret_cast<const char *>(&old_version),
                sizeof(old_version));
    }
    EXPECT_DEATH(FirmwarePackage::load(path), "version mismatch");
    std::filesystem::remove(path);
}
