#include "ml/tree.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "common/journal.hh"
#include "common/parallel.hh"

namespace psca {

namespace {

/** Binary entropy of a positive count within a total. */
double
entropy(size_t pos, size_t total)
{
    if (total == 0 || pos == 0 || pos == total)
        return 0.0;
    const double p = static_cast<double>(pos) /
        static_cast<double>(total);
    return -(p * std::log2(p) + (1.0 - p) * std::log2(1.0 - p));
}

} // namespace

DecisionTree::DecisionTree(const Dataset &data,
                           const std::vector<size_t> &sample_indices,
                           const TreeConfig &cfg)
    : numInputs_(data.numFeatures), cfg_(cfg)
{
    std::vector<size_t> indices = sample_indices;
    if (indices.empty()) {
        indices.resize(data.numSamples());
        std::iota(indices.begin(), indices.end(), 0);
    }
    Rng rng(cfg.seed ^ 0x7ee5eedULL);
    if (!indices.empty())
        build(data, indices, 0, indices.size(), 0, rng);
    if (nodes_.empty()) {
        Node root;
        root.prob = static_cast<float>(data.positiveRate());
        nodes_.push_back(root);
    }
}

int32_t
DecisionTree::build(const Dataset &data, std::vector<size_t> &indices,
                    size_t begin, size_t end, int depth, Rng &rng)
{
    const size_t n = end - begin;
    size_t pos = 0;
    for (size_t i = begin; i < end; ++i)
        pos += data.y[indices[i]];

    const int32_t node_id = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<size_t>(node_id)].prob = static_cast<float>(
        (static_cast<double>(pos) + 0.5) / (static_cast<double>(n) + 1.0));

    const bool pure = pos == 0 || pos == n;
    if (depth >= cfg_.maxDepth || n < 2 * cfg_.minSamplesLeaf || pure)
        return node_id;

    // Candidate features: all, or a random subset (RF mode).
    std::vector<uint16_t> features;
    if (cfg_.featureSubset == 0 ||
        cfg_.featureSubset >= numInputs_) {
        features.resize(numInputs_);
        std::iota(features.begin(), features.end(), 0);
    } else {
        std::vector<uint16_t> all(numInputs_);
        std::iota(all.begin(), all.end(), 0);
        rng.shuffle(all);
        features.assign(all.begin(),
                        all.begin() +
                            static_cast<ptrdiff_t>(cfg_.featureSubset));
    }

    // Find the entropy-minimizing (feature, threshold) split by
    // sorting sample values per candidate feature.
    const double parent_h = entropy(pos, n);
    double best_gain = 1e-9;
    int best_feature = -1;
    float best_threshold = 0.0f;

    std::vector<std::pair<float, uint8_t>> vals(n);
    for (uint16_t f : features) {
        for (size_t i = 0; i < n; ++i) {
            const size_t idx = indices[begin + i];
            vals[i] = {data.row(idx)[f], data.y[idx]};
        }
        std::sort(vals.begin(), vals.end());
        size_t left_pos = 0;
        for (size_t i = 0; i + 1 < n; ++i) {
            left_pos += vals[i].second;
            if (vals[i].first == vals[i + 1].first)
                continue;
            const size_t nl = i + 1;
            const size_t nr = n - nl;
            if (nl < cfg_.minSamplesLeaf || nr < cfg_.minSamplesLeaf)
                continue;
            const double h =
                (static_cast<double>(nl) * entropy(left_pos, nl) +
                 static_cast<double>(nr) *
                     entropy(pos - left_pos, nr)) /
                static_cast<double>(n);
            const double gain = parent_h - h;
            if (gain > best_gain) {
                best_gain = gain;
                best_feature = f;
                best_threshold =
                    0.5f * (vals[i].first + vals[i + 1].first);
            }
        }
    }

    if (best_feature < 0)
        return node_id;

    // Partition in place and recurse.
    auto mid_it = std::partition(
        indices.begin() + static_cast<ptrdiff_t>(begin),
        indices.begin() + static_cast<ptrdiff_t>(end),
        [&](size_t idx) {
            return data.row(idx)[best_feature] <= best_threshold;
        });
    const size_t mid = static_cast<size_t>(
        mid_it - indices.begin());
    if (mid == begin || mid == end)
        return node_id;

    nodes_[static_cast<size_t>(node_id)].feature =
        static_cast<int16_t>(best_feature);
    nodes_[static_cast<size_t>(node_id)].threshold = best_threshold;
    const int32_t left = build(data, indices, begin, mid, depth + 1, rng);
    const int32_t right = build(data, indices, mid, end, depth + 1, rng);
    nodes_[static_cast<size_t>(node_id)].left = left;
    nodes_[static_cast<size_t>(node_id)].right = right;
    return node_id;
}

double
DecisionTree::score(const float *x) const
{
    int32_t node = 0;
    while (nodes_[static_cast<size_t>(node)].feature >= 0) {
        const Node &nd = nodes_[static_cast<size_t>(node)];
        node = x[nd.feature] <= nd.threshold ? nd.left : nd.right;
    }
    return nodes_[static_cast<size_t>(node)].prob;
}

uint32_t
DecisionTree::opsPerInference() const
{
    // Branch-free traversal: ~8 ops per level (Listing 2), trees
    // padded with trivial comparisons to constant depth, plus a
    // 5-op epilogue.
    return static_cast<uint32_t>(cfg_.maxDepth) * 8u + 5u;
}

size_t
DecisionTree::memoryFootprintBytes() const
{
    // Full-depth node array at 10 bytes per node (feature id,
    // threshold, children/prediction), as deployed in firmware; leaf
    // predictions pack into their parents, giving 2^depth nodes.
    return (1ULL << cfg_.maxDepth) * 10ULL;
}

std::string
DecisionTree::describe() const
{
    std::ostringstream os;
    os << "DecisionTree depth<=" << cfg_.maxDepth;
    return os.str();
}

void
DecisionTree::serialize(BinaryWriter &w) const
{
    w.put<uint64_t>(numInputs_);
    w.put<int32_t>(cfg_.maxDepth);
    w.put<uint64_t>(cfg_.minSamplesLeaf);
    w.put<uint64_t>(cfg_.featureSubset);
    w.put<uint64_t>(cfg_.seed);
    w.put<uint64_t>(nodes_.size());
    for (const Node &nd : nodes_) {
        w.put(nd.feature);
        w.put(nd.threshold);
        w.put(nd.prob);
        w.put(nd.left);
        w.put(nd.right);
    }
}

std::unique_ptr<DecisionTree>
DecisionTree::deserialize(BinaryReader &in)
{
    std::unique_ptr<DecisionTree> tree(new DecisionTree());
    tree->numInputs_ = in.get<uint64_t>();
    tree->cfg_.maxDepth = in.get<int32_t>();
    tree->cfg_.minSamplesLeaf = in.get<uint64_t>();
    tree->cfg_.featureSubset = in.get<uint64_t>();
    tree->cfg_.seed = in.get<uint64_t>();
    const uint64_t n = in.get<uint64_t>();
    // A checkpoint is parsed before its checksum is known: bound the
    // reservation by the bytes left (18 encoded bytes per node).
    tree->nodes_.reserve(std::min<uint64_t>(n, in.remaining() / 18));
    for (uint64_t i = 0; i < n && in.good(); ++i) {
        Node nd;
        nd.feature = in.get<int16_t>();
        nd.threshold = in.get<float>();
        nd.prob = in.get<float>();
        nd.left = in.get<int32_t>();
        nd.right = in.get<int32_t>();
        // Child indices must stay inside the node array: a corrupt
        // checkpoint must fail the load, not crash score().
        if (nd.feature >= 0 &&
            (nd.left < 0 || nd.right < 0 ||
             static_cast<uint64_t>(nd.left) >= n ||
             static_cast<uint64_t>(nd.right) >= n))
        {
            return nullptr;
        }
        tree->nodes_.push_back(nd);
    }
    if (!in.good() || tree->nodes_.size() != n || tree->nodes_.empty())
        return nullptr;
    return tree;
}

RandomForest::RandomForest(const Dataset &data, const ForestConfig &cfg)
{
    const size_t n = data.numSamples();
    const size_t subset = cfg.featureSubset
        ? cfg.featureSubset
        : std::max<size_t>(1, static_cast<size_t>(
              std::round(std::sqrt(
                  static_cast<double>(data.numFeatures)))));

    // Every tree derives its own RNG substreams from the forest seed
    // (bootstrap and split-feature streams are independent per tree),
    // so trees fit concurrently into their slots and the ensemble is
    // identical at any thread count.
    trees_.resize(static_cast<size_t>(cfg.numTrees));
    auto fit_tree = [&](size_t t) {
        Rng rng = taskRng(cfg.seed ^ 0xf02e57ULL, t);
        std::vector<size_t> sample(n); // bootstrap sample
        for (auto &s : sample)
            s = static_cast<size_t>(rng.below(n ? n : 1));
        TreeConfig tc;
        tc.maxDepth = cfg.maxDepth;
        tc.minSamplesLeaf = cfg.minSamplesLeaf;
        tc.featureSubset = subset;
        tc.seed = mixSeeds(cfg.seed, t + 1);
        trees_[t] = std::make_unique<DecisionTree>(data, sample, tc);
    };

    // Checkpoint per-tree fits only when a single fit is expensive
    // enough to be worth a journal frame and an fsync: the many small
    // forests of a quickstart-sized run stay on the plain pool path
    // (zero journal overhead), campaign-scale fits resume tree by
    // tree.
    constexpr size_t kCheckpointMinSamples = 256;
    if (n >= kCheckpointMinSamples) {
        uint64_t h = data.contentHash();
        auto mix = [&h](uint64_t v) { h = mixSeeds(h, v); };
        mix(static_cast<uint64_t>(cfg.numTrees));
        mix(static_cast<uint64_t>(cfg.maxDepth));
        mix(cfg.minSamplesLeaf);
        mix(subset);
        mix(cfg.seed);
        Journal::instance().runCheckpointed(
            "forest.fit", h, static_cast<size_t>(cfg.numTrees),
            [&](size_t t, BinaryReader &in) {
                trees_[t] = DecisionTree::deserialize(in);
                return trees_[t] != nullptr && in.good();
            },
            fit_tree,
            [&](size_t t, BinaryWriter &w) {
                trees_[t]->serialize(w);
            });
    } else {
        ThreadPool::instance().parallelFor(
            static_cast<size_t>(cfg.numTrees), fit_tree);
    }
}

RandomForest::RandomForest(
    std::vector<std::unique_ptr<DecisionTree>> trees)
    : trees_(std::move(trees))
{
    PSCA_ASSERT(!trees_.empty(), "forest needs at least one tree");
}

size_t
RandomForest::numInputs() const
{
    return trees_.empty() ? 0 : trees_.front()->numInputs();
}

double
RandomForest::score(const float *x) const
{
    double sum = 0.0;
    for (const auto &tree : trees_)
        sum += tree->score(x);
    return sum / static_cast<double>(trees_.size());
}

void
RandomForest::buildFlat() const
{
    for (const auto &tree : trees_) {
        const auto &nodes = tree->nodes();
        const int32_t base = static_cast<int32_t>(flat_.node.size());
        flat_.roots.push_back(base);
        // Longest root-to-leaf path of this tree, via an explicit
        // DFS stack (trees are shallow; recursion is avoided only
        // for uniformity with the firmware compiler).
        int tree_depth = 0;
        std::vector<std::pair<int32_t, int>> stack{{0, 0}};
        while (!stack.empty()) {
            const auto [idx, depth] = stack.back();
            stack.pop_back();
            const auto &nd = nodes[static_cast<size_t>(idx)];
            if (nd.feature < 0) {
                tree_depth = std::max(tree_depth, depth);
            } else {
                stack.emplace_back(nd.left, depth + 1);
                stack.emplace_back(nd.right, depth + 1);
            }
        }
        flat_.depths.push_back(tree_depth);
        for (size_t i = 0; i < nodes.size(); ++i) {
            const auto &nd = nodes[i];
            const bool leaf = nd.feature < 0;
            const int32_t self = base + static_cast<int32_t>(i);
            FlatNode fn;
            fn.feature = leaf ? 0 : nd.feature;
            fn.threshold = leaf
                ? std::numeric_limits<float>::infinity()
                : nd.threshold;
            fn.left = leaf ? self : base + nd.left;
            fn.right = leaf ? self : base + nd.right;
            flat_.node.push_back(fn);
            flat_.prob.push_back(nd.prob);
        }
    }
}

void
RandomForest::scoreBatch(const float *X, int n, double *out) const
{
    if (n <= 0)
        return;
    std::call_once(flatOnce_, [this] { buildFlat(); });
    const size_t stride = numInputs();
    const double num_trees = static_cast<double>(trees_.size());
    const FlatNode *nodes = flat_.node.data();
    const float *probs = flat_.prob.data();
    constexpr int kLanes = 8;
    int i = 0;
    for (; i + kLanes <= n; i += kLanes) {
        const float *base = X + static_cast<size_t>(i) * stride;
        double acc[kLanes] = {};
        for (size_t t = 0; t < flat_.roots.size(); ++t) {
            const int32_t root = flat_.roots[t];
            const int depth = flat_.depths[t];
            int32_t node[kLanes];
            for (int l = 0; l < kLanes; ++l)
                node[l] = root;
            for (int d = 0; d < depth; ++d) {
                for (int l = 0; l < kLanes; ++l) {
                    const FlatNode nd =
                        nodes[static_cast<size_t>(node[l])];
                    const float x = base[static_cast<size_t>(l) *
                                             stride +
                                         static_cast<size_t>(
                                             nd.feature)];
                    // Identical compare to DecisionTree::score();
                    // padded leaves self-loop (x <= +inf is true
                    // except for NaN, whose right child is also
                    // self), so trips past a leaf are no-ops. The
                    // mask select (not ?:) keeps the step branch-
                    // free: split outcomes are ~50/50, so a branch
                    // here mispredicts its way to several times the
                    // latency of the whole step.
                    const int32_t go_left =
                        -static_cast<int32_t>(x <= nd.threshold);
                    node[l] = nd.right +
                        ((nd.left - nd.right) & go_left);
                }
            }
            for (int l = 0; l < kLanes; ++l)
                acc[l] += static_cast<double>(
                    probs[static_cast<size_t>(node[l])]);
        }
        for (int l = 0; l < kLanes; ++l)
            out[i + l] = acc[l] / num_trees;
    }
    for (; i < n; ++i)
        out[i] = score(X + static_cast<size_t>(i) * stride);
}

uint32_t
RandomForest::opsPerInference() const
{
    uint32_t ops = 0;
    for (const auto &tree : trees_)
        ops += static_cast<uint32_t>(tree->maxDepth()) * 8u;
    // Vote/average epilogue: ~3 ops per tree plus the threshold.
    ops += static_cast<uint32_t>(trees_.size()) * 3u + 2u;
    return ops;
}

size_t
RandomForest::memoryFootprintBytes() const
{
    size_t bytes = 0;
    for (const auto &tree : trees_)
        bytes += (1ULL << tree->maxDepth()) * 10ULL;
    return bytes;
}

std::string
RandomForest::describe() const
{
    std::ostringstream os;
    os << "RF " << trees_.size() << "x depth<="
       << (trees_.empty() ? 0 : trees_.front()->maxDepth());
    return os.str();
}

std::vector<std::unique_ptr<DecisionTree>>
RandomForest::takeTrees()
{
    return std::move(trees_);
}

} // namespace psca
