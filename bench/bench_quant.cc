/**
 * @file
 * Fixed-point firmware bench (ISSUE 8, DESIGN.md §14): what does the
 * int8 uc path cost in prediction quality and what
 * does it buy in the uc ops budget?
 *
 * Three sections, all recorded as gauges in BENCH_quant.json:
 *  1. Offline deltas per model class (forest / MLP / logistic):
 *     float vs quantized RSV, PGOS, decision-disagreement rate, plus
 *     the firmware ops-per-inference and table footprint of each
 *     path. Trees must show a zero delta — their traversal is
 *     bit-exact by construction.
 *  2. Observed vs provable logit error for the rounding models (MLP,
 *     logistic): the max |quantized - float| logit over the telemetry
 *     dataset against logitErrorBound().
 *  3. Closed-loop PPW/RSV: the same trained dual forest gating the
 *     same workload through a float firmware package and through a
 *     fixed-point package, with the uc ops actually consumed.
 */

#include <cstdio>
#include <cstdlib>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/builder.hh"
#include "core/controller.hh"
#include "core/crossval.hh"
#include "core/firmware_image.hh"
#include "core/pipeline.hh"
#include "core/runner.hh"
#include "ml/linear.hh"
#include "ml/mlp.hh"
#include "ml/quant.hh"
#include "ml/tree.hh"
#include "uc/compilers.hh"

using namespace psca;
using namespace psca::bench;

namespace {

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

/** Float logistic-regression logit (weights dot x plus bias). */
double
floatLogit(const LogisticRegression &m, const float *x)
{
    double z = m.bias();
    for (size_t j = 0; j < m.numInputs(); ++j)
        z += m.coefficients()[j] * x[j];
    return z;
}

struct QuantDelta
{
    EvalResult floatEval;
    EvalResult quantEval;
    double disagreePct = 0.0;
    uint32_t floatOps = 0;
    uint32_t quantOps = 0;
    size_t quantBytes = 0;
};

/**
 * Evaluate @p model float vs quantized on @p data and compare the
 * firmware cost of each path (float: compiled UcProgram static ops;
 * quantized: the int8 cost model).
 */
QuantDelta
compareQuantized(const Model &model, const UcProgram &prog,
                 const Dataset &data, uint64_t rsv_window)
{
    const auto quantized = quant::quantize(model);
    PSCA_ASSERT(quantized != nullptr,
                "model class has no quantized form");

    QuantDelta d;
    d.floatEval = evaluateModel(model, data, rsv_window);
    d.quantEval = evaluateModel(*quantized, data, rsv_window);
    size_t disagree = 0;
    for (size_t i = 0; i < data.numSamples(); ++i)
        disagree += model.predict(data.row(i)) !=
            quantized->predict(data.row(i));
    d.disagreePct = data.numSamples() > 0
        ? 100.0 * static_cast<double>(disagree) /
            static_cast<double>(data.numSamples())
        : 0.0;
    d.floatOps = static_cast<uint32_t>(prog.staticOpCount());
    const std::string payload = quant::packPayload(model);
    d.quantOps = quant::payloadOps(payload);
    d.quantBytes = payload.size();
    return d;
}

void
printAndGaugeDelta(const char *key, const QuantDelta &d)
{
    auto &reg = obs::StatRegistry::instance();
    const std::string p = std::string("quant.") + key;
    reg.gauge(p + "_rsv_float_pct").set(d.floatEval.rsv * 100.0);
    reg.gauge(p + "_rsv_quant_pct").set(d.quantEval.rsv * 100.0);
    reg.gauge(p + "_rsv_delta_pct")
        .set((d.quantEval.rsv - d.floatEval.rsv) * 100.0);
    reg.gauge(p + "_pgos_delta_pct")
        .set((d.quantEval.pgos - d.floatEval.pgos) * 100.0);
    reg.gauge(p + "_disagree_pct").set(d.disagreePct);
    reg.gauge(p + "_ops_float").set(d.floatOps);
    reg.gauge(p + "_ops_int8").set(d.quantOps);
    reg.gauge(p + "_table_bytes").set(
        static_cast<double>(d.quantBytes));
    std::printf("%-8s rsv %.3f%% -> %.3f%% (delta %+.3f%%), pgos "
                "delta %+.3f%%, disagree %.3f%%, ops %u -> %u "
                "(%.2fx), tables %zu B\n",
                key, d.floatEval.rsv * 100.0, d.quantEval.rsv * 100.0,
                (d.quantEval.rsv - d.floatEval.rsv) * 100.0,
                (d.quantEval.pgos - d.floatEval.pgos) * 100.0,
                d.disagreePct, d.floatOps, d.quantOps,
                d.quantOps > 0
                    ? static_cast<double>(d.floatOps) / d.quantOps
                    : 0.0,
                d.quantBytes);
}

} // namespace

static int
run()
{
    banner("Int8 fixed-point uc path -- quality and ops-budget "
           "deltas");
    // Destructs last so the gauges below land in the report.
    ReportGuard report("quant");

    // Quickstart-style substrate: one recorded workload, PF-8
    // counters, dual forest.
    AppGenome app = sampleGenome(AppCategory::HpcPerf, 2025);
    Workload workload;
    workload.genome = app;
    workload.inputSeed = 1;
    workload.lengthInstr = 600000;
    workload.name = app.name;

    // Extra categories so the offline deltas are measured on more
    // than one behavior, not just the closed-loop workload.
    const AppCategory extraCats[] = {AppCategory::CloudSecurity,
                                     AppCategory::AiAnalytics,
                                     AppCategory::WebProductivity};

    BuildConfig build;
    build.counterIds = defaultCounterIds();
    const TraceRecord record = recordTrace(workload, build, 0, 0);
    std::vector<TraceRecord> corpus = {record};
    for (size_t i = 0; i < std::size(extraCats); ++i) {
        Workload extra;
        extra.genome = sampleGenome(extraCats[i], 100 + i);
        extra.inputSeed = 1;
        extra.lengthInstr = 2000000;
        extra.name = extra.genome.name;
        corpus.push_back(recordTrace(extra, build,
                                     static_cast<uint32_t>(i + 1),
                                     static_cast<uint32_t>(i + 1)));
    }

    DualTrainOptions opts;
    opts.granularityInstr = 40000;
    opts.columns = {0, 1, 2, 3, 4, 5, 6, 7};
    opts.rsvWindow = 400;
    TrainedDual dual = trainDual(corpus, build, opts, forestFactory(8, 8));

    // Scaled telemetry dataset (low-power features, as deployment
    // sees them) for the offline sections.
    AssemblyOptions asmOpts;
    asmOpts.granularityInstr = opts.granularityInstr;
    asmOpts.pSla = opts.pSla;
    asmOpts.telemetryMode = CoreMode::LowPower;
    asmOpts.columns.assign(opts.columns.begin(), opts.columns.end());
    const Dataset raw =
        assembleDataset(corpus, asmOpts, build.intervalInstr);
    const Dataset scaled = dual.low.scaler.apply(raw);

    // How hard the int8 input grid works on this telemetry: values at the
    // rails are clamped (information loss); everything else only
    // snaps by <= 1/32. High clip rates would argue for a different
    // grid, so the report tracks them.
    size_t clipped = 0;
    double max_abs = 0.0;
    const size_t total =
        scaled.numSamples() * scaled.numFeatures;
    for (size_t i = 0; i < scaled.numSamples(); ++i) {
        const float *row = scaled.row(i);
        for (size_t j = 0; j < scaled.numFeatures; ++j) {
            max_abs = std::max(max_abs,
                               std::abs(static_cast<double>(row[j])));
            clipped += row[j] >= 127.5f / quant::kInputScale ||
                row[j] < -128.0f / quant::kInputScale;
        }
    }
    const double clip_pct = total > 0
        ? 100.0 * static_cast<double>(clipped) /
            static_cast<double>(total)
        : 0.0;
    obs::StatRegistry::instance()
        .gauge("quant.input_rail_clip_pct")
        .set(clip_pct);
    std::printf("\n-- offline float vs int8, %zu samples --\n"
                "input grid: max |z| %.2f, %.3f%% of values clipped "
                "at the grid rails\n",
                scaled.numSamples(), max_abs, clip_pct);

    // Forest: the deployed model. Traversal is bit-exact, so any
    // delta below comes purely from snapping inputs to the int8
    // grid, not from rounding inside the model.
    const auto *forest =
        dynamic_cast<const RandomForest *>(dual.low.model.get());
    PSCA_ASSERT(forest != nullptr, "dual slot is not a forest");
    const QuantDelta forest_delta = compareQuantized(
        *forest, compileForest(*forest), scaled, opts.rsvWindow);
    printAndGaugeDelta("forest", forest_delta);

    // MLP and logistic regression trained on the same telemetry, so
    // the rounding-error deltas are measured where they would deploy.
    MlpConfig mc;
    mc.hiddenLayers = {8, 8, 4};
    mc.epochs = 10;
    mc.seed = 7;
    const auto mlp = trainMlp(scaled, mc);
    const QuantDelta mlp_delta = compareQuantized(
        *mlp, compileMlp(*mlp), scaled, opts.rsvWindow);
    printAndGaugeDelta("mlp", mlp_delta);

    LogRegConfig lc;
    LogisticRegression logreg(scaled, lc);
    const QuantDelta lin_delta = compareQuantized(
        logreg, compileLogistic(logreg), scaled, opts.rsvWindow);
    printAndGaugeDelta("linear", lin_delta);

    // Section 2: observed logit error vs the provable bound, over
    // the whole telemetry dataset (errors measured against the float
    // model on the dequantized input, which is what the bound
    // promises).
    const quant::QuantizedMlp qmlp = quant::QuantizedMlp::fromMlp(*mlp);
    const quant::QuantizedLinear qlin =
        quant::QuantizedLinear::fromLogReg(logreg);
    double mlp_err = 0.0, lin_err = 0.0;
    std::vector<int8_t> qx(scaled.numFeatures);
    std::vector<float> deq(scaled.numFeatures);
    for (size_t i = 0; i < scaled.numSamples(); ++i) {
        quant::quantizeInputs(scaled.row(i), scaled.numFeatures,
                              qx.data());
        for (size_t j = 0; j < scaled.numFeatures; ++j)
            deq[j] = quant::dequantizeInput(qx[j]);
        mlp_err = std::max(mlp_err,
                           std::abs(qmlp.logitQuantized(qx.data()) -
                                    floatLogit(*mlp, deq.data())));
        lin_err = std::max(lin_err,
                           std::abs(qlin.logitQuantized(qx.data()) -
                                    floatLogit(logreg, deq.data())));
    }
    auto &reg = obs::StatRegistry::instance();
    reg.gauge("quant.mlp_logit_err_max").set(mlp_err);
    reg.gauge("quant.mlp_logit_err_bound").set(qmlp.logitErrorBound());
    reg.gauge("quant.linear_logit_err_max").set(lin_err);
    reg.gauge("quant.linear_logit_err_bound")
        .set(qlin.logitErrorBound());
    std::printf("\n-- logit error vs provable bound --\n"
                "mlp    observed %.3e <= bound %.3e\n"
                "linear observed %.3e <= bound %.3e\n",
                mlp_err, qmlp.logitErrorBound(), lin_err,
                qlin.logitErrorBound());
    PSCA_ASSERT(mlp_err <= qmlp.logitErrorBound() &&
                    lin_err <= qlin.logitErrorBound(),
                "observed logit error exceeds the provable bound");

    // Section 3: closed-loop gating through the firmware VM, float
    // package vs fixed-point package.
    DualModelPredictor predictor(dual.high, dual.low, opts.columns,
                                 opts.granularityInstr, "quant");
    std::vector<size_t> cols(opts.columns.begin(), opts.columns.end());

    VmPredictor vm_float(packageFromDual(predictor, cols));
    const ClosedLoopResult float_run =
        runClosedLoop(workload, record, vm_float, build, SlaSpec{});

    VmPredictor vm_fixed(packageFromDual(predictor, cols, true));
    const ClosedLoopResult fixed_run =
        runClosedLoop(workload, record, vm_fixed, build, SlaSpec{});

    reg.gauge("quant.closed_loop_ppw_float_pct")
        .set(float_run.ppwGainPct);
    reg.gauge("quant.closed_loop_ppw_fixed_pct")
        .set(fixed_run.ppwGainPct);
    reg.gauge("quant.closed_loop_ppw_delta_pct")
        .set(fixed_run.ppwGainPct - float_run.ppwGainPct);
    reg.gauge("quant.closed_loop_rsv_float_pct")
        .set(float_run.rsv * 100.0);
    reg.gauge("quant.closed_loop_rsv_fixed_pct")
        .set(fixed_run.rsv * 100.0);
    reg.gauge("quant.uc_ops_per_inference_float")
        .set(vm_float.opsPerInference());
    reg.gauge("quant.uc_ops_per_inference_int8")
        .set(vm_fixed.opsPerInference());
    std::printf(
        "\n-- closed loop through firmware VM --\n"
        "float  package: PPW %+.2f%%, RSV %.3f%%, %u ops/inference, "
        "%llu uc ops total\n"
        "int8   package: PPW %+.2f%%, RSV %.3f%%, %u ops/inference, "
        "%llu uc ops total\n",
        float_run.ppwGainPct, float_run.rsv * 100.0,
        vm_float.opsPerInference(),
        static_cast<unsigned long long>(float_run.ucOps),
        fixed_run.ppwGainPct, fixed_run.rsv * 100.0,
        vm_fixed.opsPerInference(),
        static_cast<unsigned long long>(fixed_run.ucOps));

    // The whole point of the int8 path: the same decisions must fit
    // a strictly smaller slice of the 500-MIPS uc budget.
    PSCA_ASSERT(vm_fixed.opsPerInference() <
                    vm_float.opsPerInference(),
                "int8 path is not cheaper than the float path");
    return 0;
}

int
main()
{
    return psca::runner::guardedMain([] { return run(); });
}
