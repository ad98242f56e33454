/**
 * @file
 * Tests for the int8/fixed-point inference path (quant.hh,
 * DESIGN.md §14.4): tree traversal must be bit-exact against the
 * float forest on dequantized inputs, forest payloads must round-trip
 * through the v4 firmware image, other model classes must package
 * float byte for byte, and stale-version images and fixed-point
 * images whose tables do not unpack must be rejected.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/firmware_image.hh"
#include "ml/linear.hh"
#include "ml/mlp.hh"
#include "ml/quant.hh"
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

TEST(Quant, PayloadRoundTripsAllModelClasses)
{
    const Dataset data = syntheticDataset(12, 400, 34);
    ForestConfig fc;
    fc.numTrees = 4;
    fc.maxDepth = 6;
    RandomForest forest(data, fc);

    // The forest round-trips: the unpacked tables score exactly as
    // the tables quantized straight from the float forest.
    const std::string payload = quant::packPayload(forest);
    ASSERT_FALSE(payload.empty());
    const auto unpacked = quant::unpackPayload(payload);
    ASSERT_NE(unpacked, nullptr);
    const quant::QuantizedForest direct =
        quant::QuantizedForest::fromForest(forest);
    EXPECT_EQ(unpacked->opsPerInference(), direct.opsPerInference());
    EXPECT_EQ(unpacked->opsPerInference(), quant::payloadOps(payload));
    Rng rng(80);
    std::vector<float> x(12);
    for (int trial = 0; trial < 100; ++trial) {
        for (auto &v : x)
            v = static_cast<float>(rng.uniform() * 8.0 - 4.0);
        ASSERT_EQ(direct.score(x.data()), unpacked->score(x.data()))
            << "trial " << trial;
    }

    // A payload cut short or carrying a trailing byte does not unpack.
    EXPECT_EQ(quant::unpackPayload(payload.substr(0, payload.size() - 1)),
              nullptr);
    EXPECT_EQ(quant::unpackPayload(payload + 'x'), nullptr);
    // Neither does one whose first root (after the tag, the u64 input
    // count, the i32 depth and the roots' u64 length) is past the
    // node tables.
    std::string bad_root = payload;
    const int32_t past = 1 << 30;
    std::memcpy(&bad_root[1 + 8 + 4 + 8], &past, sizeof(past));
    EXPECT_EQ(quant::unpackPayload(bad_root), nullptr);

    // MLP, logistic regression and SVM have no quantized form.
    MlpConfig mc;
    mc.epochs = 3;
    const auto mlp = trainMlp(data, mc);
    const LogisticRegression lr(data, LogRegConfig{});
    Chi2SvmConfig sc;
    sc.maxSupportVectors = 16;
    sc.epochs = 1;
    const Chi2Svm svm(data, sc);
    for (const Model *m :
         {static_cast<const Model *>(mlp.get()),
          static_cast<const Model *>(&lr),
          static_cast<const Model *>(&svm)})
        EXPECT_TRUE(quant::packPayload(*m).empty()) << m->describe();
}

TEST(Quant, FixedPointMlpPackageIsTheFloatPackage)
{
    // No deployed MLP needs int8 (each fits its granularity's float
    // budget), so a fixed-point request for one packages float, and
    // its image is the float image byte for byte.
    const Dataset data = syntheticDataset(6, 300, 37);
    MlpConfig mc;
    mc.epochs = 3;
    ScaledModel high{FeatureScaler::fit(data), trainMlp(data, mc)};
    mc.seed = 2;
    ScaledModel low{FeatureScaler::fit(data), trainMlp(data, mc)};
    DualModelPredictor mlp_pred(high, low, {0, 1, 2, 3, 4, 5}, 20000,
                                "quant_mlp");
    const auto image = [&](bool fixed_point) {
        BinaryWriter w;
        packageFromDual(mlp_pred, {0, 1, 2, 3, 4, 5}, fixed_point)
            .write(w);
        return w.takeBuffer();
    };
    EXPECT_EQ(image(true), image(false));
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

TEST(Quant, FixedPointImageWhosePayloadDoesNotUnpackRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Dataset data = syntheticDataset(6, 300, 38);
    ForestConfig fc;
    fc.numTrees = 2;
    fc.maxDepth = 4;
    ScaledModel slot{FeatureScaler::fit(data),
                     std::make_shared<RandomForest>(data, fc)};
    DualModelPredictor native(slot, slot, {0, 1, 2, 3, 4, 5}, 20000,
                              "unscorable");
    FirmwarePackage pkg =
        packageFromDual(native, {0, 1, 2, 3, 4, 5}, true);
    ASSERT_TRUE(pkg.fixedPoint);
    // Tag 2 marked an int8-MLP payload, which older builds wrote: the
    // image is sealed and checksummed, but this build cannot score it.
    pkg.high.quantPayload[0] = 2;
    const std::string path = "/tmp/psca_quant_fw_unscorable.bin";
    pkg.save(path);

    FirmwarePackage out;
    EXPECT_FALSE(FirmwarePackage::tryLoad(path, out));
    EXPECT_DEATH(FirmwarePackage::load(path),
                 "fixed-point payload does not unpack");
    std::filesystem::remove(path);
}
