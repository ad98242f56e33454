/**
 * @file
 * Post-silicon SLA differentiation (Sec. 3.2 / 7.3): a data center
 * operator holds one physical CPU design but three customer tiers.
 * Retraining the adaptation model to each tier's SLA — a firmware
 * update, no silicon change — yields three effective CPUs with
 * distinct power/performance characteristics. We demonstrate on a
 * small fleet of cloud-style workloads.
 */

#include <cstdio>

#include "obs/report.hh"

#include "common/journal.hh"
#include "core/firmware_image.hh"
#include "core/pipeline.hh"
#include "core/runner.hh"

using namespace psca;

static int
run()
{
    obs::RunReportGuard report("datacenter_sla_tuning_report");
    // A small "fleet" of cloud workloads recorded once.
    BuildConfig build;
    build.counterIds = defaultCounterIds();

    std::printf("recording a 12-workload mixed fleet...\n");
    std::vector<Workload> fleet;
    std::vector<uint32_t> app_ids;
    for (uint64_t i = 0; i < 12; ++i) {
        // Mixed tenant mix: cloud services plus HPC and media jobs,
        // so the SLA threshold actually binds on borderline phases.
        Workload w;
        w.genome = sampleGenome(
            static_cast<AppCategory>(i % 6), 500 + i);
        w.inputSeed = 1;
        w.lengthInstr = 400000;
        w.name = w.genome.name;
        fleet.push_back(std::move(w));
        app_ids.push_back(static_cast<uint32_t>(i));
    }
    // Corpus recording is cached, parallel, and — like the long
    // fleet-recording campaigns it stands in for — resumable: an
    // interrupted run picks up at the next unrecorded workload.
    const std::vector<TraceRecord> records =
        recordCorpus(fleet, app_ids, build, "sla_fleet");

    std::printf("\n%-10s %-10s %-12s %-16s %-12s\n", "tier", "P_SLA",
                "PPW gain", "perf vs high", "RSV");
    struct Tier { const char *name; double pSla; };
    std::vector<std::pair<std::string, FirmwarePackage>> images;
    for (const Tier &tier : {Tier{"premium", 0.90},
                             Tier{"standard", 0.80},
                             Tier{"economy", 0.70}}) {
        // Retrain to this tier's SLA: labels are recomputed from the
        // same telemetry (a pure firmware change).
        DualTrainOptions opts;
        opts.granularityInstr = 40000;
        opts.pSla = tier.pSla;
        opts.columns = {0, 1, 2, 3, 4, 5, 6, 7};
        opts.rsvWindow = 400;
        TrainedDual dual = trainDual(
            records, build, opts, forestFactory(8, 8));
        DualModelPredictor predictor(dual.high, dual.low,
                                     opts.columns, 40000, tier.name);
        images.emplace_back(
            cacheDirectory() + "/fw_" + tier.name + ".bin",
            packageFromDual(predictor, opts.columns));

        double ppw = 0, perf = 0, rsv = 0;
        SlaSpec sla;
        sla.pSla = tier.pSla;
        for (size_t i = 0; i < fleet.size(); ++i) {
            const ClosedLoopResult r = runClosedLoop(
                fleet[i], records[i], predictor, build, sla);
            ppw += r.ppwGainPct;
            perf += r.perfRelativePct;
            rsv += r.rsv * 100;
        }
        const double n = static_cast<double>(fleet.size());
        std::printf("%-10s %-10.2f %+10.1f%% %13.1f%% %10.2f%%\n",
                    tier.name, tier.pSla, ppw / n, perf / n,
                    rsv / n);
    }
    // Publish the whole fleet update as one transaction: the three
    // tier images land under their final names together or not at
    // all, so a crash mid-rollout can never leave the fleet serving
    // a mixed firmware generation.
    ArtifactTxn txn;
    for (const auto &[path, pkg] : images)
        pkg.write(txn.stage(path));
    if (txn.commit()) {
        std::printf("\nfleet update committed: %zu tier images "
                    "published atomically under %s\n",
                    images.size(), cacheDirectory().c_str());
    } else {
        warn("fleet firmware publish failed; no image replaced");
    }
    std::printf("\nOne die, three products: looser SLAs buy more "
                "gating and more PPW (paper Table 5: 21.9%% -> "
                "28.2%% -> 31.4%%).\n");
    return 0;
}

int
main()
{
    return psca::runner::guardedMain(run);
}
