/**
 * @file
 * Ablations of design choices the paper asserts but does not sweep:
 *
 *  1. prediction granularity (the paper states finest-granularity
 *     prediction maximizes PPW, citing prior work): Best-RF-style
 *     forests retrained at 10k..160k instructions, each run as the
 *     cheapest firmware that fits the uc ops budget at its
 *     granularity (the int8 forest where the float one does not);
 *  2. the fail-safe guardrail (Sec. 3.1 mentions it; the paper
 *     evaluates without it): PPW/RSV cost of arming it over a good
 *     model and over a deliberately blindspotted model (trained on
 *     only 10 applications, the Fig. 4 low-diversity regime).
 */

#include "bench_common.hh"

#include <optional>

#include "core/firmware_image.hh"
#include "core/guardrail.hh"
#include "core/runner.hh"
#include "uc/budget.hh"

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
    const UcBudget budget;
    std::vector<uint64_t> over_budget;
    for (uint64_t g : {10000, 20000, 40000, 80000, 160000}) {
        TrainedDual dual = trainRfAt(ctx, g, 0);
        DualModelPredictor pred(dual.high, dual.low,
                                ctx.plan.pfColumns(12), g, "rf");
        // Each row runs the cheapest package the uc budget admits:
        // the native float forest where it fits, else the int8
        // firmware forest where that fits, else float with the note.
        const uint64_t ops_budget = budget.opsBudget(g);
        const GatePredictor *deployed = &pred;
        std::optional<VmPredictor> int8;
        if (pred.opsPerInference() > ops_budget) {
            int8.emplace(
                packageFromDual(pred, ctx.plan.pfColumns(12), true));
            if (int8->opsPerInference() <= ops_budget)
                deployed = &*int8;
            else
                over_budget.push_back(g);
        }
        const SuiteResult r =
            evaluateSuite(ctx, *deployed, traces, 0.90);
        std::printf("%-14lu %+10.1f%% %8.2f%% %8.1f%%",
                    static_cast<unsigned long>(g), r.ppwGainPct,
                    r.rsvPct, r.pgosPct);
        if (deployed != &pred)
            std::printf("  (int8 firmware, %u of %lu ops)",
                        deployed->opsPerInference(),
                        static_cast<unsigned long>(ops_budget));
        std::printf("\n");
    }
    for (uint64_t g : over_budget)
        std::printf("(note: the %luk row exceeds the Best RF ops budget "
                    "even at int8 and assumes an accelerated "
                    "microcontroller)\n",
                    static_cast<unsigned long>(g / 1000));

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
