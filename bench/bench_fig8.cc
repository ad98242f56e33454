/**
 * @file
 * Figure 8: the evaluation headline. SRCH at coarse and 40k
 * granularity, the CHARSTAR-equivalent MLP at 20k, Best MLP at 50k,
 * and Best RF at 40k, all trained on HDTR and run closed-loop on the
 * SPEC2017 stand-in suite: PPW gain and RSV, with int/fp splits.
 */

#include "bench_common.hh"
#include "core/runner.hh"

using namespace psca;
using namespace psca::bench;

namespace {

void
report(const char *name, const ExperimentContext &ctx,
       GatePredictor &p)
{
    // The int and fp columns fold the "all" suite's own loops, in
    // trace order, rather than running them again.
    const SuiteResult all =
        evaluateSuite(ctx, p, allTraceIndices(ctx), 0.90);
    const auto half = [&](bool fp) {
        std::vector<ClosedLoopResult> per_trace;
        for (size_t i : suiteTraceIndices(ctx, fp))
            per_trace.push_back(all.perTrace[i]);
        return summarizeSuite(std::move(per_trace));
    };
    const SuiteResult ints = half(false);
    const SuiteResult fps = half(true);
    std::printf("%-14s %+8.1f%% %7.2f%% | int %+7.1f%% %6.2f%% | fp "
                "%+7.1f%% %6.2f%% | PGOS %5.1f%% res %5.1f%%\n",
                name, all.ppwGainPct, all.rsvPct, ints.ppwGainPct,
                ints.rsvPct, fps.ppwGainPct, fps.rsvPct, all.pgosPct,
                all.lowResidencyPct);
}

} // namespace

static int
run()
{
    banner("Figure 8 -- PPW and RSV across adaptation models");
    ReportGuard run_report("fig8");

    const ScaleConfig scale = ScaleConfig::fromEnv();
    ExperimentContext ctx = setupExperiment(scale, true);

    std::printf("%-14s %9s %8s\n", "model", "PPW", "RSV");

    // SRCH at its original coarse granularity: scaled to our trace
    // lengths (the paper's 10M instructions exceeds our SimPoints;
    // we use 1/4 of the trace so predictions stay sparse).
    const uint64_t intervals = ctx.spec.front().numIntervals();
    const uint64_t coarse =
        std::max<uint64_t>(80000, intervals / 4 * 10000);
    {
        NamedPredictor srch = makeSrch(ctx, 0.90, coarse);
        report("SRCH coarse", ctx, *srch.predictor);
    }
    {
        NamedPredictor srch = makeSrch(ctx, 0.90, 40000);
        report("SRCH@40k", ctx, *srch.predictor);
    }
    {
        NamedPredictor ch = makeCharstar(ctx, 0.90);
        report("CHARSTAR@20k", ctx, *ch.predictor);
    }
    {
        NamedPredictor mlp = makeBestMlp(ctx, 0.90);
        report("Best MLP@50k", ctx, *mlp.predictor);
    }
    {
        NamedPredictor rf = makeBestRf(ctx, 0.90);
        report("Best RF@40k", ctx, *rf.predictor);
    }

    std::printf("\n(paper: SRCH@10M +5.8%%/3.8%% | SRCH@40k "
                "+11.8%%/0.3%% | CHARSTAR +18.4%%/10.9%% | Best MLP "
                "+20.6%%/1.5%% | Best RF +21.9%%/0.3%%)\n");
    return 0;
}

int
main()
{
    return psca::runner::guardedMain(run);
}
