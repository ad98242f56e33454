#include "ml/quant.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace psca {
namespace quant {

namespace {

double
sigmoid(double z)
{
    return 1.0 / (1.0 + std::exp(-z));
}

/** Payload type tags (see packPayload). */
constexpr uint8_t kTagForest = 1;
constexpr uint8_t kTagMlp = 2;
constexpr uint8_t kTagLinear = 3;

} // namespace

int8_t
quantizeInput(float x)
{
    const float scaled = x * static_cast<float>(kInputScale);
    // NaN-safe clamps: a NaN fails both comparisons' complements and
    // lands on the lower rail (decide() sanitizes inputs first, so
    // this is defense in depth, not a modeled behavior).
    if (!(scaled >= -128.0f))
        return -128;
    if (scaled >= 127.0f)
        return 127;
    return static_cast<int8_t>(std::lround(scaled));
}

void
quantizeInputs(const float *x, size_t n, int8_t *out)
{
    for (size_t j = 0; j < n; ++j)
        out[j] = quantizeInput(x[j]);
}

float
dequantizeInput(int8_t q)
{
    return static_cast<float>(q) /
        static_cast<float>(kInputScale);
}

// --------------------------------------------------------------------
// QuantizedForest
// --------------------------------------------------------------------

QuantizedForest
QuantizedForest::fromForest(const RandomForest &f)
{
    QuantizedForest q;
    q.numInputs_ = f.numInputs();
    for (const auto &tree : f.trees()) {
        const auto &nodes = tree->nodes();
        const int32_t base = static_cast<int32_t>(q.feature_.size());
        q.roots_.push_back(base);
        std::vector<std::pair<int32_t, int>> stack{{0, 0}};
        while (!stack.empty()) {
            const auto [idx, depth] = stack.back();
            stack.pop_back();
            const auto &nd = nodes[static_cast<size_t>(idx)];
            if (nd.feature < 0) {
                q.maxDepth_ = std::max(q.maxDepth_, depth);
            } else {
                stack.emplace_back(nd.left, depth + 1);
                stack.emplace_back(nd.right, depth + 1);
            }
        }
        for (size_t i = 0; i < nodes.size(); ++i) {
            const auto &nd = nodes[i];
            const bool leaf = nd.feature < 0;
            const int32_t self = base + static_cast<int32_t>(i);
            // (q <= floor(S t)) <=> (q/S <= t) for integer q and
            // S = kInputScale; -129 = always false, 127 = always
            // true (quant.hh).
            int32_t qt = 127;
            if (!leaf) {
                const double ts =
                    std::floor(static_cast<double>(kInputScale) *
                               static_cast<double>(nd.threshold));
                qt = static_cast<int32_t>(
                    std::clamp(ts, -129.0, 127.0));
            }
            q.feature_.push_back(
                leaf ? int16_t{0} : static_cast<int16_t>(nd.feature));
            q.qthr_.push_back(static_cast<int16_t>(qt));
            q.left_.push_back(leaf ? self : base + nd.left);
            q.right_.push_back(leaf ? self : base + nd.right);
            const long p = std::lround(
                static_cast<double>(nd.prob) * kProbScale);
            q.qprob_.push_back(static_cast<int16_t>(
                std::clamp<long>(p, 0, kProbScale)));
        }
    }
    return q;
}

double
QuantizedForest::scoreQuantized(const int8_t *qx) const
{
    int64_t sum = 0;
    for (const int32_t root : roots_) {
        int32_t node = root;
        for (int d = 0; d < maxDepth_; ++d) {
            const size_t n = static_cast<size_t>(node);
            node = qx[static_cast<size_t>(feature_[n])] <= qthr_[n]
                ? left_[n]
                : right_[n];
        }
        sum += qprob_[static_cast<size_t>(node)];
    }
    return static_cast<double>(sum) /
        (static_cast<double>(roots_.size()) * kProbScale);
}

double
QuantizedForest::score(const float *x) const
{
    std::vector<int8_t> qx(numInputs_);
    quantizeInputs(x, numInputs_, qx.data());
    return scoreQuantized(qx.data());
}

uint32_t
QuantizedForest::opsPerInference() const
{
    // Int8 traversal: load/compare/select on bytes is 4 uc ops per
    // level (vs 8 in the float path), 2 ops per tree for the vote
    // and 2 for the final average/threshold.
    return static_cast<uint32_t>(roots_.size()) *
        (static_cast<uint32_t>(maxDepth_) * 4u + 2u) +
        2u;
}

size_t
QuantizedForest::memoryFootprintBytes() const
{
    // Per node: 1B feature, 2B threshold, 2B probability, 2B child
    // offset (the other child is adjacency-implicit in firmware).
    return feature_.size() * 7u;
}

void
QuantizedForest::serialize(BinaryWriter &w) const
{
    w.put<uint64_t>(numInputs_);
    w.put<int32_t>(maxDepth_);
    w.putVector(roots_);
    w.putVector(feature_);
    w.putVector(qthr_);
    w.putVector(left_);
    w.putVector(right_);
    w.putVector(qprob_);
}

QuantizedForest
QuantizedForest::deserialize(BinaryReader &in)
{
    QuantizedForest q;
    q.numInputs_ = in.get<uint64_t>();
    q.maxDepth_ = in.get<int32_t>();
    q.roots_ = in.getVector<int32_t>();
    q.feature_ = in.getVector<int16_t>();
    q.qthr_ = in.getVector<int16_t>();
    q.left_ = in.getVector<int32_t>();
    q.right_ = in.getVector<int32_t>();
    q.qprob_ = in.getVector<int16_t>();
    return q;
}

// --------------------------------------------------------------------
// QuantizedMlp
// --------------------------------------------------------------------

QuantizedMlp
QuantizedMlp::fromMlp(const MlpModel &m)
{
    QuantizedMlp q;
    for (int s : m.layerSizes())
        q.sizes_.push_back(s);
    const size_t layers = q.sizes_.size() - 1;

    // Interval propagation state (bounds vs the float model on the
    // dequantized input; quant.hh documents the recursion).
    double amax = 128.0 / kInputScale; //!< bound on true activations
    double err = 0.0;                  //!< carried activation error
    q.aScale_.push_back(kInputScale);

    for (size_t l = 0; l < layers; ++l) {
        const auto &w = m.weights(l);
        const auto &b = m.biases(l);
        const int fan_in = q.sizes_[l];
        const int fan_out = q.sizes_[l + 1];
        const int32_t a_scale = q.aScale_[l];

        float wmax = 0.0f;
        for (float v : w)
            wmax = std::max(wmax, std::abs(v));
        const float w_scale = wmax > 0.0f ? 127.0f / wmax : 1.0f;
        q.wScale_.push_back(w_scale);

        std::vector<int8_t> wq(w.size());
        for (size_t i = 0; i < w.size(); ++i) {
            const long v = std::lround(
                static_cast<double>(w[i]) * w_scale);
            wq[i] = static_cast<int8_t>(std::clamp<long>(v, -127, 127));
        }
        q.wq_.push_back(std::move(wq));

        std::vector<int32_t> bq(b.size());
        for (size_t f = 0; f < b.size(); ++f)
            bq[f] = static_cast<int32_t>(std::lround(
                static_cast<double>(b[f]) * w_scale * a_scale));
        q.bq_.push_back(std::move(bq));

        // Per-filter L1 weight norm and |bias| maxima drive both the
        // activation-magnitude bound and the error recursion.
        double u_max = 0.0, b_max = 0.0, out_max = 0.0;
        for (int f = 0; f < fan_out; ++f) {
            double l1 = 0.0;
            for (int i = 0; i < fan_in; ++i)
                l1 += std::abs(static_cast<double>(
                    w[static_cast<size_t>(f * fan_in + i)]));
            const double ab =
                std::abs(static_cast<double>(b[static_cast<size_t>(f)]));
            u_max = std::max(u_max, l1);
            b_max = std::max(b_max, ab);
            out_max = std::max(out_max, l1 * amax + ab);
        }

        // Quantized activations can exceed the true bound by the
        // carried error plus one grid step.
        const double aq_max = amax + err + 1.0 / a_scale;
        const double out_err = u_max * err +
            static_cast<double>(fan_in) * aq_max / (2.0 * w_scale) +
            1.0 / (2.0 * w_scale * a_scale);

        if (l + 1 == layers) {
            q.logitErrorBound_ = out_err;
            break;
        }
        // Next activation scale: largest power of two such that the
        // worst-case requantized value sits at most halfway into the
        // int16 range (so the defensive clamp can never engage).
        int32_t next_scale = 1;
        while (next_scale < (1 << 14) &&
               2.0 * next_scale * (out_max + out_err + 1.0) * 2.0 <=
                   32767.0)
            next_scale <<= 1;
        q.aScale_.push_back(next_scale);
        amax = out_max;
        err = out_err + 0.5 / next_scale;
    }
    return q;
}

double
QuantizedMlp::logitQuantized(const int8_t *qx) const
{
    const size_t layers = wq_.size();
    std::vector<int32_t> act(static_cast<size_t>(sizes_[0]));
    for (size_t i = 0; i < act.size(); ++i)
        act[i] = qx[i];
    std::vector<int32_t> next;
    for (size_t l = 0; l < layers; ++l) {
        const int fan_in = sizes_[l];
        const int fan_out = sizes_[l + 1];
        const double denom =
            static_cast<double>(wScale_[l]) * aScale_[l];
        const bool last = l + 1 == layers;
        if (last) {
            // Single readout filter: return the dequantized logit.
            int64_t acc = bq_[l][0];
            for (int i = 0; i < fan_in; ++i)
                acc += static_cast<int64_t>(
                           wq_[l][static_cast<size_t>(i)]) *
                    act[static_cast<size_t>(i)];
            return static_cast<double>(acc) / denom;
        }
        next.assign(static_cast<size_t>(fan_out), 0);
        const double r = static_cast<double>(aScale_[l + 1]) / denom;
        for (int f = 0; f < fan_out; ++f) {
            int64_t acc = bq_[l][static_cast<size_t>(f)];
            const int8_t *row =
                wq_[l].data() + static_cast<size_t>(f) * fan_in;
            for (int i = 0; i < fan_in; ++i)
                acc += static_cast<int64_t>(row[i]) *
                    act[static_cast<size_t>(i)];
            // Requantize (fixed-point multiply + shift on the uc),
            // ReLU, and a defensive clamp the scale choice makes
            // unreachable.
            int64_t v =
                std::llround(static_cast<double>(acc) * r);
            v = std::max<int64_t>(0, std::min<int64_t>(32767, v));
            next[static_cast<size_t>(f)] = static_cast<int32_t>(v);
        }
        act.swap(next);
    }
    return 0.0; // unreachable: layers >= 1
}

double
QuantizedMlp::score(const float *x) const
{
    std::vector<int8_t> qx(numInputs());
    quantizeInputs(x, qx.size(), qx.data());
    return sigmoid(logitQuantized(qx.data()));
}

uint32_t
QuantizedMlp::opsPerInference() const
{
    // Int8 MAC is one uc op (vs fld/fmul/fadd = 3); requantization +
    // ReLU cost ~6 ops per neuron; branch-free sigmoid on the logit.
    uint32_t ops = 0;
    for (size_t l = 0; l + 1 < sizes_.size(); ++l)
        ops += static_cast<uint32_t>(sizes_[l + 1]) *
            (static_cast<uint32_t>(sizes_[l]) + 6u);
    return ops + kExpOps;
}

size_t
QuantizedMlp::memoryFootprintBytes() const
{
    size_t bytes = 0;
    for (size_t l = 0; l < wq_.size(); ++l)
        bytes += wq_[l].size() + bq_[l].size() * sizeof(int32_t) +
            sizeof(float) + sizeof(int32_t); // scales
    return bytes;
}

void
QuantizedMlp::serialize(BinaryWriter &w) const
{
    w.putVector(sizes_);
    w.putVector(wScale_);
    w.putVector(aScale_);
    w.put<uint64_t>(wq_.size());
    for (size_t l = 0; l < wq_.size(); ++l) {
        w.putVector(wq_[l]);
        w.putVector(bq_[l]);
    }
    w.put<double>(logitErrorBound_);
}

QuantizedMlp
QuantizedMlp::deserialize(BinaryReader &in)
{
    QuantizedMlp q;
    q.sizes_ = in.getVector<int32_t>();
    q.wScale_ = in.getVector<float>();
    q.aScale_ = in.getVector<int32_t>();
    const auto layers = in.get<uint64_t>();
    for (uint64_t l = 0; l < layers && in.good(); ++l) {
        q.wq_.push_back(in.getVector<int8_t>());
        q.bq_.push_back(in.getVector<int32_t>());
    }
    q.logitErrorBound_ = in.get<double>();
    return q;
}

// --------------------------------------------------------------------
// QuantizedLinear
// --------------------------------------------------------------------

QuantizedLinear
QuantizedLinear::fromLogReg(const LogisticRegression &m)
{
    QuantizedLinear q;
    const auto &w = m.coefficients();
    double wmax = 0.0;
    for (double v : w)
        wmax = std::max(wmax, std::abs(v));
    const double w_scale = wmax > 0.0 ? 127.0 / wmax : 1.0;
    q.wScale_ = static_cast<float>(w_scale);

    q.wq_.resize(w.size());
    for (size_t j = 0; j < w.size(); ++j) {
        const long v = std::lround(w[j] * w_scale);
        q.wq_[j] =
            static_cast<int8_t>(std::clamp<long>(v, -127, 127));
    }
    q.bq_ = static_cast<int32_t>(
        std::lround(m.bias() * w_scale * kInputScale));

    // |logit_q - logit_f(dequantized x)| <= per-weight rounding times
    // the max quantized activation plus bias rounding (quant.hh).
    const double aq_max = 128.0 / kInputScale;
    q.logitErrorBound_ =
        static_cast<double>(w.size()) * aq_max / (2.0 * w_scale) +
        1.0 / (2.0 * w_scale * kInputScale);
    return q;
}

double
QuantizedLinear::logitQuantized(const int8_t *qx) const
{
    int64_t acc = bq_;
    for (size_t j = 0; j < wq_.size(); ++j)
        acc += static_cast<int64_t>(wq_[j]) * qx[j];
    return static_cast<double>(acc) /
        (static_cast<double>(wScale_) * kInputScale);
}

double
QuantizedLinear::score(const float *x) const
{
    std::vector<int8_t> qx(wq_.size());
    quantizeInputs(x, qx.size(), qx.data());
    return sigmoid(logitQuantized(qx.data()));
}

uint32_t
QuantizedLinear::opsPerInference() const
{
    return static_cast<uint32_t>(wq_.size()) + kExpOps;
}

size_t
QuantizedLinear::memoryFootprintBytes() const
{
    return wq_.size() + sizeof(int32_t) + sizeof(float);
}

void
QuantizedLinear::serialize(BinaryWriter &w) const
{
    w.put<float>(wScale_);
    w.putVector(wq_);
    w.put<int32_t>(bq_);
    w.put<double>(logitErrorBound_);
}

QuantizedLinear
QuantizedLinear::deserialize(BinaryReader &in)
{
    QuantizedLinear q;
    q.wScale_ = in.get<float>();
    q.wq_ = in.getVector<int8_t>();
    q.bq_ = in.get<int32_t>();
    q.logitErrorBound_ = in.get<double>();
    return q;
}

// --------------------------------------------------------------------
// Model adapters and firmware payloads
// --------------------------------------------------------------------

namespace {

template <typename Q>
class QuantAdapter : public Model
{
  public:
    QuantAdapter(Q q, std::string desc)
        : q_(std::move(q)), desc_(std::move(desc))
    {
    }

    size_t numInputs() const override { return q_.numInputs(); }
    double score(const float *x) const override { return q_.score(x); }
    uint32_t opsPerInference() const override
    {
        return q_.opsPerInference();
    }
    size_t memoryFootprintBytes() const override
    {
        return q_.memoryFootprintBytes();
    }
    std::string describe() const override { return desc_; }

    const Q &quantized() const { return q_; }

  private:
    Q q_;
    std::string desc_;
};

template <typename Q>
std::unique_ptr<Model>
makeAdapter(Q q, const std::string &base_desc, double threshold)
{
    auto adapter = std::make_unique<QuantAdapter<Q>>(
        std::move(q), "Quant(" + base_desc + ")");
    adapter->setThreshold(threshold);
    return adapter;
}

} // namespace

std::unique_ptr<Model>
quantize(const Model &m)
{
    if (const auto *f = dynamic_cast<const RandomForest *>(&m))
        return makeAdapter(QuantizedForest::fromForest(*f),
                           m.describe(), m.threshold());
    if (const auto *mlp = dynamic_cast<const MlpModel *>(&m))
        return makeAdapter(QuantizedMlp::fromMlp(*mlp), m.describe(),
                           m.threshold());
    if (const auto *lr = dynamic_cast<const LogisticRegression *>(&m))
        return makeAdapter(QuantizedLinear::fromLogReg(*lr),
                           m.describe(), m.threshold());
    return nullptr;
}

std::string
packPayload(const Model &m)
{
    BinaryWriter w;
    if (const auto *f = dynamic_cast<const RandomForest *>(&m)) {
        w.put<uint8_t>(kTagForest);
        QuantizedForest::fromForest(*f).serialize(w);
    } else if (const auto *mlp = dynamic_cast<const MlpModel *>(&m)) {
        w.put<uint8_t>(kTagMlp);
        QuantizedMlp::fromMlp(*mlp).serialize(w);
    } else if (const auto *lr =
                   dynamic_cast<const LogisticRegression *>(&m)) {
        w.put<uint8_t>(kTagLinear);
        QuantizedLinear::fromLogReg(*lr).serialize(w);
    } else {
        return {};
    }
    return w.takeBuffer();
}

std::unique_ptr<Model>
unpackPayload(const std::string &payload)
{
    if (payload.empty())
        return nullptr;
    BinaryReader in(payload.data(), payload.size());
    const auto tag = in.get<uint8_t>();
    switch (tag) {
    case kTagForest:
        return makeAdapter(QuantizedForest::deserialize(in), "forest",
                           0.5);
    case kTagMlp:
        return makeAdapter(QuantizedMlp::deserialize(in), "mlp", 0.5);
    case kTagLinear:
        return makeAdapter(QuantizedLinear::deserialize(in), "linear",
                           0.5);
    default:
        warn("unknown quantized payload tag ", int(tag));
        return nullptr;
    }
}

uint32_t
payloadOps(const std::string &payload)
{
    const auto model = unpackPayload(payload);
    return model ? model->opsPerInference() : 0u;
}

} // namespace quant
} // namespace psca
