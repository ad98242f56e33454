/**
 * @file
 * Int8/fixed-point inference path modeling the 500-MIPS adaptation
 * microcontroller (Sec. 5). The float models are trained as before;
 * quantization is a post-training transform producing firmware-ready
 * integer tables, selected at packaging time by
 * `packageFromDual(..., fixed_point = true)`.
 *
 * Scheme (DESIGN.md §14):
 *  - Inputs snap to a fixed global grid: q = clamp(round(S x),
 *    -128, 127) with S = kInputScale = 32, i.e. Q3.5 covering
 *    [-4, 4). Z-scored telemetry concentrates within a few sigma
 *    (decide() sanitizes the rest), and the finer step matters:
 *    tree splits that separate workload clusters can sit closer to
 *    the data than a coarser grid's snap radius, flipping whole
 *    clusters at once (measured in BENCH_quant.json as the
 *    disagreement/rail-clip gauges).
 *  - Trees: thresholds snap to int16 qthr = clamp(floor(S t),
 *    -129, 127). For integer q, (q <= floor(S t)) <=> (q/S <= t),
 *    and the clamp sentinels -129/127 encode always-false /
 *    always-true, so the integer traversal takes EXACTLY the same
 *    path as the float tree on the dequantized input — trees
 *    quantize bit-exactly. Leaf probabilities are int16 at scale
 *    2^14; the vote average divides an exact integer sum by
 *    numTrees * 2^14, so it is exact whenever the float average is.
 *  - MLP / logistic regression: per-layer symmetric int8 weights
 *    (scale W_l = 127 / max|w|), int32 biases and accumulators,
 *    int16 activations on power-of-2 scales chosen from data-free
 *    interval bounds so no intermediate can saturate. Each model
 *    carries logitErrorBound(), a provable bound (vs the float model
 *    on the dequantized input) computed by propagating weight-,
 *    bias- and requantization-rounding intervals layer by layer.
 *
 * Firmware cost model (int8): a MAC is one uc op (vs 3 for
 * fld/fmul/fadd in the float path, Listing 1), a tree level is 4 ops
 * (vs 8), and requantization adds ~6 ops per neuron.
 */

#ifndef PSCA_ML_QUANT_HH
#define PSCA_ML_QUANT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/serialize.hh"
#include "ml/linear.hh"
#include "ml/mlp.hh"
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

/** Int8-weight MLP with int16 activations and an error bound. */
class QuantizedMlp
{
  public:
    static QuantizedMlp fromMlp(const MlpModel &m);

    size_t numInputs() const
    {
        return sizes_.empty() ? 0 : static_cast<size_t>(sizes_[0]);
    }

    /** Quantize the input, integer-forward, sigmoid of the logit. */
    double score(const float *x) const;

    /** Pre-sigmoid fixed-point logit for quantized features. */
    double logitQuantized(const int8_t *qx) const;

    /**
     * Provable bound on |quantized logit - float logit on the
     * dequantized input| (interval arithmetic; see @file).
     */
    double logitErrorBound() const { return logitErrorBound_; }

    uint32_t opsPerInference() const;
    size_t memoryFootprintBytes() const;

    void serialize(BinaryWriter &w) const;
    static QuantizedMlp deserialize(BinaryReader &in);

  private:
    std::vector<int32_t> sizes_; //!< layer widths, input first
    std::vector<float> wScale_;  //!< per layer: wq = round(w * s)
    std::vector<int32_t> aScale_; //!< per layer input act. scale (2^k)
    std::vector<std::vector<int8_t>> wq_;  //!< row-major like MlpModel
    std::vector<std::vector<int32_t>> bq_; //!< at scale W_l * A_l
    double logitErrorBound_ = 0.0;
};

/** Int8-weight logistic regression with an error bound. */
class QuantizedLinear
{
  public:
    static QuantizedLinear fromLogReg(const LogisticRegression &m);

    size_t numInputs() const { return wq_.size(); }
    double score(const float *x) const;
    double logitQuantized(const int8_t *qx) const;
    double logitErrorBound() const { return logitErrorBound_; }

    uint32_t opsPerInference() const;
    size_t memoryFootprintBytes() const;

    void serialize(BinaryWriter &w) const;
    static QuantizedLinear deserialize(BinaryReader &in);

  private:
    float wScale_ = 1.0f;
    std::vector<int8_t> wq_;
    int32_t bq_ = 0; //!< at scale wScale_ * kInputScale
    double logitErrorBound_ = 0.0;
};

/**
 * Quantize any supported model (RandomForest, MlpModel,
 * LogisticRegression) behind the Model interface, preserving the
 * decision threshold. Returns nullptr for unsupported model types
 * (the firmware packager then keeps the float path).
 */
std::unique_ptr<Model> quantize(const Model &m);

/**
 * Serialize a supported model's quantized form as a self-describing
 * firmware payload blob (type tag + tables). Empty string when the
 * model type has no quantized form.
 */
std::string packPayload(const Model &m);

/** Ops-per-inference of a packed payload (int8 cost model). */
uint32_t payloadOps(const std::string &payload);

/**
 * Rebuild a scoring Model from packPayload() output (used by the
 * firmware loader when the package carries fixed-point slots).
 * Returns nullptr on an empty payload.
 */
std::unique_ptr<Model> unpackPayload(const std::string &payload);

} // namespace quant
} // namespace psca

#endif // PSCA_ML_QUANT_HH
