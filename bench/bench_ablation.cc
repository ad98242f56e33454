/**
 * @file
 * Ablations of design choices the paper asserts but does not sweep:
 *
 *  1. prediction granularity (the paper states finest-granularity
 *     prediction maximizes PPW, citing prior work): Best-RF-style
 *     forests retrained at 10k..160k instructions;
 *  2. the fail-safe guardrail (Sec. 3.1 mentions it; the paper
 *     evaluates without it): PPW/RSV cost of arming it over a good
 *     model and over a deliberately blindspotted model (trained on
 *     only 10 applications, the Fig. 4 low-diversity regime).
 */

#include "bench_common.hh"

#include "core/guardrail.hh"
#include "core/runner.hh"

using namespace psca;
using namespace psca::bench;

namespace {

TrainedDual
trainRfAt(const ExperimentContext &ctx, uint64_t granularity,
          size_t max_apps)
{
    DualTrainOptions opts;
    opts.granularityInstr = granularity;
    opts.columns = ctx.plan.pfColumns(12);
    opts.rsvWindow = 400;
    std::vector<TraceRecord> records = ctx.hdtr;
    if (max_apps > 0) {
        records.clear();
        for (const auto &r : ctx.hdtr)
            if (r.appId < max_apps)
                records.push_back(r);
    }
    return trainDual(records, ctx.build, opts, forestFactory(8, 8));
}

} // namespace

static int
run()
{
    banner("Ablations -- granularity and the fail-safe guardrail");
    ReportGuard report("ablation");

    const ScaleConfig scale = ScaleConfig::fromEnv();
    ExperimentContext ctx = setupExperiment(scale, true);
    const auto traces = allTraceIndices(ctx);

    std::printf("granularity sweep (Best-RF forests retrained per "
                "granularity):\n");
    std::printf("%-14s %-12s %-10s %-10s\n", "granularity",
                "PPW gain", "RSV", "PGOS");
    for (uint64_t g : {10000, 20000, 40000, 80000, 160000}) {
        TrainedDual dual = trainRfAt(ctx, g, 0);
        DualModelPredictor pred(dual.high, dual.low,
                                ctx.plan.pfColumns(12), g, "rf");
        const SuiteResult r =
            evaluateSuite(ctx, pred, traces, 0.90);
        std::printf("%-14lu %+10.1f%% %8.2f%% %8.1f%%\n",
                    static_cast<unsigned long>(g), r.ppwGainPct,
                    r.rsvPct, r.pgosPct);
    }
    std::printf("(note: the 10k/20k rows exceed the Best RF ops "
                "budget and assume an accelerated microcontroller)\n");

    std::printf("\nguardrail ablation (40k granularity):\n");
    std::printf("%-28s %-12s %-10s %-10s\n", "configuration",
                "PPW gain", "RSV", "perf");
    for (bool low_diversity : {false, true}) {
        TrainedDual dual =
            trainRfAt(ctx, 40000, low_diversity ? 10 : 0);
        for (bool guarded : {false, true}) {
            DualModelPredictor inner(dual.high, dual.low,
                                     ctx.plan.pfColumns(12), 40000,
                                     "rf");
            std::unique_ptr<GuardrailedPredictor> rail;
            GatePredictor *pred = &inner;
            if (guarded) {
                rail = std::make_unique<GuardrailedPredictor>(inner);
                pred = rail.get();
            }
            const SuiteResult r =
                evaluateSuite(ctx, *pred, traces, 0.90);
            char label[64];
            std::snprintf(label, sizeof(label), "%s%s",
                          low_diversity ? "10-app model"
                                        : "full-HDTR model",
                          guarded ? " + guardrail" : "");
            std::printf("%-28s %+10.1f%% %8.2f%% %8.1f%%\n", label,
                        r.ppwGainPct, r.rsvPct, r.perfRelativePct);
        }
    }
    std::printf("\n(the guardrail bounds blindspot damage at a small "
                "PPW cost; the paper argues good training makes it "
                "nearly unnecessary)\n");
    return 0;
}

int
main()
{
    return psca::runner::guardedMain(run);
}
