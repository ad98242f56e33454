/**
 * @file
 * Quickstart: the whole predictive-cluster-gating loop on one
 * workload, end to end —
 *
 *   1. describe a workload and record dual-mode telemetry,
 *   2. train a Best-RF-style dual adaptation model from it,
 *   3. compile the low-power model to microcontroller firmware and
 *      check it against the ops budget,
 *   4. run the workload closed-loop under predictive cluster gating
 *      and report PPW gain, performance, and SLA behaviour.
 */

#include <cstdio>
#include <iostream>

#include "core/controller.hh"
#include "core/pipeline.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "uc/budget.hh"
#include "uc/compilers.hh"
#include "core/runner.hh"

using namespace psca;

static int
run()
{
    // Dumps the stat registry (phase tree, decision-latency
    // histogram, gate/transition counters) as JSON on exit.
    obs::RunReportGuard report("quickstart_report");
    // ---- 1. A workload: one application genome, one input ----------
    AppGenome app = sampleGenome(AppCategory::HpcPerf, /*seed=*/2025);
    Workload workload;
    workload.genome = app;
    workload.inputSeed = 1;
    workload.lengthInstr = 600000;
    workload.name = app.name;

    BuildConfig build;
    build.counterIds = defaultCounterIds();

    std::printf("recording '%s' in both cluster configurations...\n",
                workload.name.c_str());
    const TraceRecord record = recordTrace(workload, build, 0, 0);
    std::printf("  %zu intervals of %lu instructions; ideal "
                "low-power residency %.1f%%\n",
                record.numIntervals(),
                static_cast<unsigned long>(build.intervalInstr),
                idealLowPowerResidency({record}, 0.90) * 100);

    // ---- 2. Train the dual adaptation model (one per mode) ---------
    DualTrainOptions opts;
    opts.granularityInstr = 40000; // Best RF's budgeted granularity
    opts.columns = {0, 1, 2, 3, 4, 5, 6, 7};
    opts.rsvWindow = 400;
    TrainedDual dual = trainDual({record}, build, opts, forestFactory(8, 8));
    std::printf("trained %s (threshold %.2f)\n",
                dual.low.model->describe().c_str(),
                dual.low.model->threshold());

    // ---- 3. Compile to firmware & check the ops budget -------------
    const auto *forest =
        dynamic_cast<const RandomForest *>(dual.low.model.get());
    const UcProgram firmware = compileForest(*forest);
    UcBudget budget;
    std::printf("firmware image: %zu bytes, %lu ops/prediction "
                "(budget at 40k instructions: %lu)\n",
                firmware.imageBytes(),
                static_cast<unsigned long>(firmware.staticOpCount()),
                static_cast<unsigned long>(budget.opsBudget(40000)));

    // ---- 4. Closed-loop predictive cluster gating -------------------
    DualModelPredictor predictor(dual.high, dual.low, opts.columns,
                                 opts.granularityInstr, "quickstart");
    const ClosedLoopResult result =
        runClosedLoop(workload, record, predictor, build, SlaSpec{});

    std::printf("\nclosed-loop result:\n");
    std::printf("  PPW gain          %+.1f%%\n", result.ppwGainPct);
    std::printf("  performance       %.1f%% of high-perf mode\n",
                result.perfRelativePct);
    std::printf("  low-power blocks  %.1f%%\n",
                result.lowResidency * 100);
    std::printf("  PGOS              %.1f%%\n", result.pgos * 100);
    std::printf("  RSV               %.2f%%\n", result.rsv * 100);
    std::printf("  mode switches     %lu\n",
                static_cast<unsigned long>(result.modeSwitches));

    std::printf("\nobservability (full JSON report on exit):\n");
    obs::StatRegistry::instance().dumpText(std::cout);
    return 0;
}

int
main()
{
    return psca::runner::guardedMain(run);
}
