#include "core/crossval.hh"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>

#include "common/journal.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "math/stats.hh"
#include "obs/phase.hh"

namespace psca {

namespace {

/** Exact round-trip serialization of one fold's (optional) result. */
void
writeFoldResult(BinaryWriter &w, const std::optional<EvalResult> &r)
{
    w.put<uint8_t>(r.has_value() ? 1 : 0);
    if (!r)
        return;
    w.put(r->confusion.truePositive);
    w.put(r->confusion.falsePositive);
    w.put(r->confusion.trueNegative);
    w.put(r->confusion.falseNegative);
    w.put(r->pgos);
    w.put(r->rsv);
}

std::optional<EvalResult>
readFoldResult(BinaryReader &in)
{
    if (in.get<uint8_t>() == 0)
        return std::nullopt;
    EvalResult r;
    r.confusion.truePositive = in.get<uint64_t>();
    r.confusion.falsePositive = in.get<uint64_t>();
    r.confusion.trueNegative = in.get<uint64_t>();
    r.confusion.falseNegative = in.get<uint64_t>();
    r.pgos = in.get<double>();
    r.rsv = in.get<double>();
    return r;
}

/** Everything a fold result depends on besides the factory tag. */
uint64_t
crossValConfigHash(const Dataset &data, const CrossValOptions &opts)
{
    uint64_t h = data.contentHash();
    auto mix = [&h](uint64_t v) { h = mixSeeds(h, v); };
    mix(static_cast<uint64_t>(opts.folds));
    mix(static_cast<uint64_t>(kTuneFraction * 1e9));
    mix(opts.maxTuneApps);
    mix(opts.maxTuneSamples);
    mix(opts.rsvWindow);
    mix(opts.calibrate ? 1 : 0);
    mix(static_cast<uint64_t>(kTargetRsv * 1e9));
    mix(opts.seed);
    return h;
}

} // namespace

FoldSplit
appLevelSplit(const Dataset &data, double tune_fraction, uint64_t seed,
              size_t max_tune_apps)
{
    std::vector<uint32_t> apps;
    for (uint32_t id : data.appId)
        if (std::find(apps.begin(), apps.end(), id) == apps.end())
            apps.push_back(id);

    Rng rng(seed ^ 0xf01d5ULL);
    rng.shuffle(apps);

    size_t tune_count = static_cast<size_t>(
        tune_fraction * static_cast<double>(apps.size()) + 0.5);
    tune_count = std::clamp<size_t>(tune_count, 1,
                                    apps.size() > 1 ? apps.size() - 1
                                                    : 1);
    if (max_tune_apps > 0)
        tune_count = std::min(tune_count, max_tune_apps);

    std::vector<bool> is_tune_app;
    std::map<uint32_t, bool> assignment;
    for (size_t i = 0; i < apps.size(); ++i)
        assignment[apps[i]] = i < tune_count;

    FoldSplit split;
    for (size_t i = 0; i < data.numSamples(); ++i) {
        if (assignment[data.appId[i]])
            split.tuneIdx.push_back(i);
        else
            split.validIdx.push_back(i);
    }
    return split;
}

EvalResult
evaluateModel(const Model &model, const Dataset &data,
              uint64_t rsv_window)
{
    EvalResult result;
    // Group prediction/label sequences per trace for RSV. Decisions
    // come from the batched kernels in chunks (the dataset matrix is
    // contiguous row-major); predictBatch() is bit-identical to the
    // scalar predict() loop it replaced.
    std::map<uint32_t, std::pair<std::vector<uint8_t>,
                                 std::vector<uint8_t>>> traces;
    const size_t n = data.numSamples();
    constexpr size_t kChunk = 1024;
    std::vector<float> decisions(std::min(n, kChunk));
    for (size_t begin = 0; begin < n; begin += kChunk) {
        const size_t count = std::min(kChunk, n - begin);
        model.predictBatch(data.row(begin), static_cast<int>(count),
                           decisions.data());
        for (size_t o = 0; o < count; ++o) {
            const size_t i = begin + o;
            const bool pred = decisions[o] != 0.0f;
            result.confusion.add(pred, data.y[i] != 0);
            auto &entry = traces[data.traceId[i]];
            entry.first.push_back(pred ? 1 : 0);
            entry.second.push_back(data.y[i]);
        }
    }
    result.pgos = result.confusion.pgos();

    double rsv_sum = 0.0;
    for (const auto &[id, seqs] : traces)
        rsv_sum += rsvForTrace(seqs.first, seqs.second, rsv_window);
    result.rsv = traces.empty()
        ? 0.0
        : rsv_sum / static_cast<double>(traces.size());
    return result;
}

void
calibrateThreshold(Model &model, const Dataset &tune,
                   uint64_t rsv_window, double target_rsv)
{
    static const double kCandidates[] = {0.50, 0.55, 0.60, 0.65,
                                         0.70, 0.75, 0.80, 0.85,
                                         0.90, 0.95};
    for (double t : kCandidates) {
        model.setThreshold(t);
        if (evaluateModel(model, tune, rsv_window).rsv <= target_rsv)
            return;
    }
    // Even the most conservative candidate violates; keep it.
    model.setThreshold(kCandidates[std::size(kCandidates) - 1]);
}

CrossValSummary
crossValidate(const Dataset &data, const ModelFactory &factory,
              const CrossValOptions &opts)
{
    obs::ScopedPhase phase("cross_validation");
    CrossValSummary summary;
    std::vector<double> pgos, rsv, acc;

    // Each fold derives everything from fold_seed = mixSeeds(seed,
    // fold + 1) — the same substream rule the serial loop used — so
    // folds train and evaluate concurrently and the aggregation below
    // (in fold order, skipped folds preserved as nullopt) reproduces
    // the serial summary bit for bit.
    auto run_fold = [&](size_t fold) -> std::optional<EvalResult> {
        obs::ScopedPhase fold_phase(
            "crossval.fold",
            {{"fold", static_cast<long long>(fold)}});
        const uint64_t fold_seed = taskSeed(opts.seed, fold);
        FoldSplit split = appLevelSplit(data, kTuneFraction,
                                        fold_seed, opts.maxTuneApps);
        if (split.tuneIdx.empty() || split.validIdx.empty())
            return std::nullopt;

        if (opts.maxTuneSamples > 0 &&
            split.tuneIdx.size() > opts.maxTuneSamples) {
            Rng rng(fold_seed ^ 0x5ab5a3ULL);
            rng.shuffle(split.tuneIdx);
            split.tuneIdx.resize(opts.maxTuneSamples);
        }

        Dataset tune_raw = data.subset(split.tuneIdx);
        const FeatureScaler scaler = FeatureScaler::fit(tune_raw);
        const Dataset tune = scaler.apply(tune_raw);
        const Dataset valid = scaler.apply(data.subset(split.validIdx));

        std::unique_ptr<Model> model = factory(tune, fold_seed);
        if (opts.calibrate)
            calibrateThreshold(*model, tune, opts.rsvWindow);

        return evaluateModel(*model, valid, opts.rsvWindow);
    };

    // With a checkpoint tag, every completed fold is journaled under
    // (tag, dataset + options hash): an interrupted sweep re-enters
    // with only the remaining folds. Untagged calls are not
    // checkpointed — the model factory is an arbitrary closure, so
    // only the caller can name the sweep point it represents.
    std::vector<std::optional<EvalResult>> fold_results;
    if (!opts.checkpointTag.empty()) {
        fold_results = checkpointedMap<std::optional<EvalResult>>(
            "crossval." + opts.checkpointTag,
            crossValConfigHash(data, opts),
            static_cast<size_t>(opts.folds), writeFoldResult,
            readFoldResult, run_fold);
    } else {
        fold_results =
            ThreadPool::instance()
                .parallelMap<std::optional<EvalResult>>(
                    static_cast<size_t>(opts.folds), run_fold);
    }

    for (const auto &eval : fold_results) {
        if (!eval)
            continue;
        summary.folds.push_back(*eval);
        pgos.push_back(eval->pgos);
        rsv.push_back(eval->rsv);
        acc.push_back(eval->confusion.accuracy());
    }

    summary.pgosMean = mean(pgos);
    summary.pgosStd = stddev(pgos);
    summary.rsvMean = mean(rsv);
    summary.rsvStd = stddev(rsv);
    summary.accuracyMean = mean(acc);
    return summary;
}

} // namespace psca
