/**
 * @file
 * Int8/fixed-point inference path modeling the 500-MIPS adaptation
 * microcontroller (Sec. 5). The float models are trained as before;
 * quantization is a post-training transform producing firmware-ready
 * integer tables, selected at packaging time by
 * `packageFromDual(..., fixed_point = true)`.
 *
 * Scheme (DESIGN.md §14.4):
 *  - Inputs snap to a fixed global grid: q = clamp(round(S x),
 *    -128, 127) with S = kInputScale = 32, i.e. Q3.5 covering
 *    [-4, 4). Z-scored telemetry concentrates within a few sigma
 *    (decide() sanitizes the rest), and the finer step matters:
 *    tree splits that separate workload clusters can sit closer to
 *    the data than a coarser grid's snap radius, flipping whole
 *    clusters at once.
 *  - Thresholds snap to int16 qthr = clamp(floor(S t), -129, 127).
 *    For integer q, (q <= floor(S t)) <=> (q/S <= t), and the clamp
 *    sentinels -129/127 encode always-false / always-true, so the
 *    integer traversal takes EXACTLY the same path as the float tree
 *    on the dequantized input — trees quantize bit-exactly. Leaf
 *    probabilities are int16 at scale 2^14; the vote average divides
 *    an exact integer sum by numTrees * 2^14, so it is exact whenever
 *    the float average is.
 *
 * Only forests have a quantized form: every deployed MLP fits its
 * granularity's float budget, so MLP, logistic and SVM packages stay
 * float (packageFromDual falls back).
 *
 * Firmware cost model (int8): a tree level is 4 uc ops (vs 8 in the
 * float path), a tree's vote 2 and the final average/threshold 2.
 */

#ifndef PSCA_ML_QUANT_HH
#define PSCA_ML_QUANT_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/serialize.hh"
#include "ml/model.hh"
#include "ml/tree.hh"

namespace psca {
namespace quant {

/** Input grid: q = clamp(round(kInputScale * x)) in int8 (Q3.5). */
constexpr int kInputScale = 32;

/** Leaf-probability scale (int16): qprob = round(p * 2^14). */
constexpr int kProbScale = 1 << 14;

/** Quantize one feature onto the int8 input grid. */
int8_t quantizeInput(float x);

/** Quantize a feature vector onto the input grid. */
void quantizeInputs(const float *x, size_t n, int8_t *out);

/** Dequantized value of a grid point (exact: q / kInputScale). */
float dequantizeInput(int8_t q);

/** Integer-table random forest; traversal is bit-exact (see @file). */
class QuantizedForest
{
  public:
    static QuantizedForest fromForest(const RandomForest &f);

    size_t numInputs() const { return numInputs_; }

    /** Quantize the input, then integer-traverse; see scoreQuantized. */
    double score(const float *x) const;

    /**
     * Integer traversal over already-quantized features. Selects the
     * same leaves as the float forest on the dequantized input;
     * returns sum(qprob) / (numTrees * 2^14).
     */
    double scoreQuantized(const int8_t *qx) const;

    uint32_t opsPerInference() const;
    size_t memoryFootprintBytes() const;

    void serialize(BinaryWriter &w) const;
    static QuantizedForest deserialize(BinaryReader &in);

    /**
     * True when every node table has one entry per node and every
     * root, child and split feature indexes within range: what a
     * deserialized payload must pass before it is scored.
     */
    bool wellFormed() const;

  private:
    size_t numInputs_ = 0;
    int maxDepth_ = 0;
    std::vector<int32_t> roots_;
    // Flattened nodes across all trees (leaves: qthr = 127 with
    // left = right = self, so depth-bounded walks are safe).
    std::vector<int16_t> feature_;
    std::vector<int16_t> qthr_; //!< [-129, 127]; see @file
    std::vector<int32_t> left_;
    std::vector<int32_t> right_;
    std::vector<int16_t> qprob_;
};

/**
 * Serialize a forest's quantized form as a self-describing firmware
 * payload blob (type tag + tables). Empty string for any other model
 * class: it has no quantized form.
 */
std::string packPayload(const Model &m);

/** Ops-per-inference of a packed payload (int8 cost model). */
uint32_t payloadOps(const std::string &payload);

/**
 * Rebuild a scoring Model from packPayload() output (used by the
 * firmware loader when the package carries fixed-point slots).
 * Returns nullptr on an empty payload, an unknown tag, or tables that
 * do not parse into a well-formed forest.
 */
std::unique_ptr<Model> unpackPayload(const std::string &payload);

} // namespace quant
} // namespace psca

#endif // PSCA_ML_QUANT_HH
