#include "ml/quant.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace psca {
namespace quant {

namespace {

/**
 * Payload type tag (see packPayload). Tags 2 and 3 were int8 MLP and
 * logistic tables, which no build writes any more; their payloads no
 * longer unpack.
 */
constexpr uint8_t kTagForest = 1;

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

bool
QuantizedForest::wellFormed() const
{
    const size_t nodes = feature_.size();
    if (qthr_.size() != nodes || left_.size() != nodes ||
        right_.size() != nodes || qprob_.size() != nodes ||
        roots_.empty() || maxDepth_ < 0)
        return false;
    const auto in_range = [nodes](int32_t i) {
        return i >= 0 && static_cast<size_t>(i) < nodes;
    };
    for (const int32_t root : roots_)
        if (!in_range(root))
            return false;
    for (size_t n = 0; n < nodes; ++n)
        if (feature_[n] < 0 ||
            static_cast<size_t>(feature_[n]) >= numInputs_ ||
            !in_range(left_[n]) || !in_range(right_[n]))
            return false;
    return true;
}

// --------------------------------------------------------------------
// Model adapters and firmware payloads
// --------------------------------------------------------------------

namespace {

/** A quantized forest behind the Model interface. */
class QuantAdapter : public Model
{
  public:
    explicit QuantAdapter(QuantizedForest q) : q_(std::move(q)) {}

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
    std::string describe() const override { return "Quant(forest)"; }

  private:
    QuantizedForest q_;
};

} // namespace

std::string
packPayload(const Model &m)
{
    const auto *f = dynamic_cast<const RandomForest *>(&m);
    if (!f)
        return {};
    BinaryWriter w;
    w.put<uint8_t>(kTagForest);
    QuantizedForest::fromForest(*f).serialize(w);
    return w.takeBuffer();
}

std::unique_ptr<Model>
unpackPayload(const std::string &payload)
{
    if (payload.empty())
        return nullptr;
    BinaryReader in(payload.data(), payload.size());
    const auto tag = in.get<uint8_t>();
    if (tag != kTagForest) {
        warn("unknown quantized payload tag ", int(tag));
        return nullptr;
    }
    QuantizedForest forest = QuantizedForest::deserialize(in);
    if (!in.good() || in.remaining() != 0 || !forest.wellFormed())
        return nullptr;
    return std::make_unique<QuantAdapter>(std::move(forest));
}

uint32_t
payloadOps(const std::string &payload)
{
    const auto model = unpackPayload(payload);
    return model ? model->opsPerInference() : 0u;
}

} // namespace quant
} // namespace psca
