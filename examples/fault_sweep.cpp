/**
 * @file
 * Fault sweep: what happens to the closed adaptation loop when the
 * deployment environment misbehaves. The example
 *
 *   1. records one workload and trains a small dual forest,
 *   2. runs the guardrailed closed loop fault-free,
 *   3. re-runs it under an escalating deterministic fault mix
 *      (dropped telemetry snapshots, counter noise, stuck counters,
 *      firmware deadline misses) via FaultRegistry::configure(),
 *   4. prints the RSV/PPW degradation curve next to the degraded-mode
 *      responses the controller mounted.
 *
 * The same mixes can be applied to any binary without code changes:
 *
 *   PSCA_FAULTS="telemetry.dropped_snapshot:0.05,uc.deadline_miss:0.1"
 *   PSCA_FAULT_SEED=7
 *
 * Every fault draw is a pure function of (seed, site, stream key), so
 * a sweep point reproduces bit-identically at any PSCA_THREADS.
 */

#include <cstdio>

#include "common/fault.hh"
#include "core/guardrail.hh"
#include "core/pipeline.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "core/runner.hh"

using namespace psca;

namespace {

uint64_t
counterValue(const char *name)
{
    const auto *c =
        obs::StatRegistry::instance().findCounter(name);
    return c ? c->value() : 0;
}

} // namespace

static int
run()
{
    obs::RunReportGuard report("fault_sweep_report");

    // ---- 1. One mixed workload, recorded in both modes -------------
    AppGenome app = sampleGenome(AppCategory::HpcPerf, /*seed=*/2025);
    Workload workload;
    workload.genome = app;
    workload.inputSeed = 1;
    workload.lengthInstr = 600000;
    workload.name = app.name;

    BuildConfig build;
    build.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::LoadLatSum),
        CounterRegistry::index(Ctr::MshrOccSum),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
    };
    std::printf("recording '%s'...\n", workload.name.c_str());
    const TraceRecord record = recordTrace(workload, build, 0, 0);

    DualTrainOptions opts;
    opts.granularityInstr = 20000;
    opts.columns = {0, 1, 2, 3, 4, 5};
    opts.rsvWindow = 64;
    TrainedDual dual = trainDual({record}, build, opts, forestFactory(4, 6));

    // ---- 2-4. Sweep the fault intensity through the closed loop ----
    auto &faults = FaultRegistry::instance();
    const double rates[] = {0.0, 0.02, 0.1, 0.25};

    std::printf("\n%-7s %8s %8s %8s  %s\n", "rate", "RSV%", "PPW%",
                "perf%", "carry/miss/veto/trip");
    for (const double m : rates) {
        if (m > 0.0) {
            char spec[192];
            std::snprintf(spec, sizeof(spec),
                          "telemetry.dropped_snapshot:%.3f,"
                          "telemetry.noise:%.3f:0.05,"
                          "telemetry.stuck_counter:%.3f,"
                          "uc.deadline_miss:%.3f",
                          m, m, m / 2.0, m);
            faults.configure(spec);
        } else {
            faults.configure("");
        }

        const uint64_t carry0 =
            counterValue("controller.snapshot_carryforwards");
        const uint64_t miss0 =
            counterValue("controller.deadline_misses");
        const uint64_t veto0 =
            counterValue("controller.sanitize_vetoes");
        const uint64_t trip0 =
            counterValue("controller.guardrail_trips");

        DualModelPredictor inner(dual.high, dual.low, opts.columns,
                                 opts.granularityInstr, "rf");
        GuardrailedPredictor guarded(inner);
        const ClosedLoopResult r = runClosedLoop(
            workload, record, guarded, build, SlaSpec{});

        std::printf(
            "%-7.3f %8.2f %8.2f %8.2f  %llu/%llu/%llu/%llu\n", m,
            r.rsv * 100, r.ppwGainPct, r.perfRelativePct,
            static_cast<unsigned long long>(
                counterValue("controller.snapshot_carryforwards") -
                carry0),
            static_cast<unsigned long long>(
                counterValue("controller.deadline_misses") - miss0),
            static_cast<unsigned long long>(
                counterValue("controller.sanitize_vetoes") - veto0),
            static_cast<unsigned long long>(
                counterValue("controller.guardrail_trips") - trip0));
    }

    // Leave the last mix armed: its fault.<site>.fires tallies export
    // into the JSON report next to the degradation counters.
    std::printf("\nfault.<site>.fires gauges from the last sweep "
                "point land in the JSON report.\n");
    return 0;
}

int
main()
{
    return psca::runner::guardedMain(run);
}
