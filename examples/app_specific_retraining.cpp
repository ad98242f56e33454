/**
 * @file
 * Optimization-as-a-service (Sec. 3.2 / 7.3): a customer runs one
 * application at fleet scale. They trace a few executions on-site;
 * the vendor replays the traces, retrains a combined forest (general
 * trees + application-specific trees), and ships the firmware back.
 * Subsequent executions on *new inputs* gain PPW.
 */

#include <cstdio>

#include "obs/report.hh"

#include "core/pipeline.hh"
#include "core/runner.hh"

using namespace psca;

namespace {

const std::vector<size_t> kColumns{0, 1, 2, 3, 4, 5, 6, 7};

BuildConfig
buildConfig()
{
    BuildConfig build;
    build.counterIds = defaultCounterIds();
    return build;
}

} // namespace

static int
run()
{
    obs::RunReportGuard report("app_specific_retraining_report");
    const BuildConfig build = buildConfig();

    // The vendor's general training repository (HDTR stand-in).
    std::printf("recording the vendor's general trace repository...\n");
    std::vector<TraceRecord> general;
    for (uint64_t i = 0; i < 36; ++i) {
        Workload w;
        w.genome = sampleGenome(
            static_cast<AppCategory>(i % 6), 900 + i);
        w.inputSeed = 1;
        w.lengthInstr = 300000;
        w.name = w.genome.name;
        general.push_back(
            recordTrace(w, build, static_cast<uint32_t>(i), 0));
    }

    // The customer's application (xz-like), five inputs: four
    // are traced for retraining, the fifth is "next week's run".
    const SpecApp target = buildSpecApps()[9]; // 657.xz_s
    std::printf("customer application: %s\n",
                target.genome.name.c_str());
    std::vector<Workload> inputs;
    std::vector<TraceRecord> app_records;
    for (uint64_t in = 1; in <= 5; ++in) {
        Workload w;
        w.genome = target.genome;
        w.inputSeed = in;
        w.lengthInstr = 500000;
        w.name = target.genome.name + ".in" + std::to_string(in);
        app_records.push_back(recordTrace(
            w, build, 100, static_cast<uint32_t>(in)));
        inputs.push_back(std::move(w));
    }
    const std::vector<TraceRecord> trace_set(app_records.begin(),
                                             app_records.end() - 1);

    // General-only model vs combined (4 general + 4 app trees).
    auto trainPair = [&](bool app_specific) {
        TrainedDual dual;
        for (int m = 0; m < 2; ++m) {
            AssemblyOptions ao;
            ao.granularityInstr = 40000;
            ao.telemetryMode =
                m == 0 ? CoreMode::HighPerf : CoreMode::LowPower;
            ao.columns = kColumns;
            const Dataset gen_raw =
                assembleDataset(general, ao, build.intervalInstr);
            ScaledModel slot;
            slot.scaler = FeatureScaler::fit(gen_raw);
            const Dataset gen = slot.scaler.apply(gen_raw);
            if (!app_specific) {
                slot.model = forestFactory(8, 8)(gen, 50 + m);
            } else {
                const Dataset app = slot.scaler.apply(assembleDataset(
                    trace_set, ao, build.intervalInstr));
                auto g4 = forestFactory(4, 8)(gen, 60 + m);
                auto a4 = forestFactory(4, 8)(app, 70 + m);
                auto trees = dynamic_cast<RandomForest *>(g4.get())
                                 ->takeTrees();
                for (auto &t : dynamic_cast<RandomForest *>(a4.get())
                                   ->takeTrees())
                    trees.push_back(std::move(t));
                slot.model =
                    std::make_shared<RandomForest>(std::move(trees));
            }
            // Sensitivity calibration on the customer's traced
            // inputs keeps tuning-set RSV under 1% (Sec. 6.3).
            const Dataset calib_set = slot.scaler.apply(
                assembleDataset(trace_set, ao, build.intervalInstr));
            calibrateThreshold(*slot.model, calib_set, 400, 0.01);
            (m == 0 ? dual.high : dual.low) = std::move(slot);
        }
        return dual;
    };

    std::printf("\nevaluating on the held-out input (new data, same "
                "application):\n");
    std::printf("%-22s %-12s %-10s %-10s\n", "model", "PPW gain",
                "PGOS", "RSV");
    for (bool app_specific : {false, true}) {
        TrainedDual dual = trainPair(app_specific);
        DualModelPredictor predictor(
            dual.high, dual.low, kColumns, 40000,
            app_specific ? "combined" : "general");
        const ClosedLoopResult r =
            runClosedLoop(inputs.back(), app_records.back(),
                          predictor, build, SlaSpec{});
        std::printf("%-22s %+10.1f%% %8.1f%% %8.2f%%\n",
                    app_specific
                        ? "general+app (4+4 trees)"
                        : "general (8 trees)",
                    r.ppwGainPct, r.pgos * 100, r.rsv * 100);
    }
    std::printf("\nThe combined forest tailors gating to this "
                "application while the general trees guard against "
                "drift (paper Table 6: up to +8.5%% PPW).\n");
    return 0;
}

int
main()
{
    return psca::runner::guardedMain(run);
}
