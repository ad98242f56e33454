/**
 * @file
 * Fault-injection sweep: the closed adaptation loop (guardrailed
 * random-forest dual model) driven under increasing telemetry +
 * firmware fault rates. For each intensity the bench reports mean
 * RSV, PPW gain, relative performance, and the degradation responses
 * the controller mounted (snapshot carry-forwards, deadline misses,
 * input-sanitation vetoes, guardrail trips), and exports the curves
 * as gauges into BENCH_faults.json.
 *
 * Not a paper experiment: the paper's robustness story (Sec. 7) is
 * qualitative. This bench quantifies the reproduction's degraded-mode
 * behaviour so regressions in fault handling show up as moved curves.
 */

#include "bench_common.hh"

#include "common/fault.hh"
#include "core/guardrail.hh"
#include "core/runner.hh"

using namespace psca;
using namespace psca::bench;

namespace {

BuildConfig
faultBenchConfig()
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::LoadLatSum),
        CounterRegistry::index(Ctr::MshrOccSum),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
    };
    return cfg;
}

Workload
mixedWorkload(uint64_t seed, uint64_t len)
{
    AppGenome g;
    g.name = "fault_bench";
    g.seed = seed;
    PhaseSpec gate, hungry;
    gate.kernel = {.kind = KernelKind::PointerChase,
                   .workingSetBytes = 16 << 20, .chains = 4};
    gate.weight = 0.5;
    gate.meanLenInstr = 150e3;
    hungry.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    hungry.weight = 0.5;
    hungry.meanLenInstr = 150e3;
    g.phases = {gate, hungry};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = "fault_bench_" + std::to_string(seed);
    return w;
}

uint64_t
counterValue(const char *name)
{
    const auto *c = obs::StatRegistry::instance().findCounter(name);
    return c ? c->value() : 0;
}

/** Degradation counters the fault mix should be exercising. */
struct DegradationSnapshot
{
    uint64_t carried;
    uint64_t missed;
    uint64_t vetoed;
    uint64_t tripped;

    static DegradationSnapshot
    now()
    {
        return {counterValue("controller.snapshot_carryforwards"),
                counterValue("controller.deadline_misses"),
                counterValue("controller.sanitize_vetoes"),
                counterValue("controller.guardrail_trips")};
    }

    DegradationSnapshot
    since(const DegradationSnapshot &base) const
    {
        return {carried - base.carried, missed - base.missed,
                vetoed - base.vetoed, tripped - base.tripped};
    }
};

/** Reference mix scaled by one intensity knob (DESIGN.md Sec. 10). */
std::string
mixAtIntensity(double m)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "telemetry.dropped_snapshot:%.4f,"
                  "telemetry.noise:%.4f:0.05,"
                  "telemetry.stuck_counter:%.4f,"
                  "uc.deadline_miss:%.4f",
                  m, m, m / 2.0, m);
    return buf;
}

} // namespace

static int
run()
{
    banner("Fault sweep -- closed-loop degradation vs fault rate");
    ReportGuard report("faults");

    const BuildConfig cfg = faultBenchConfig();

    // Train a small forest on two traces; evaluate on four others.
    std::vector<TraceRecord> train;
    for (uint64_t seed : {3, 9})
        train.push_back(recordTrace(mixedWorkload(seed, 400000), cfg,
                                    static_cast<uint32_t>(seed), 0));
    DualTrainOptions opts;
    opts.granularityInstr = 20000;
    opts.columns = {0, 1, 2, 3, 4, 5};
    opts.rsvWindow = 64;
    TrainedDual dual = trainDual(train, cfg, opts, forestFactory(4, 6));

    const std::vector<uint64_t> eval_seeds{5, 7, 13, 23};
    std::vector<Workload> eval_w;
    std::vector<TraceRecord> eval_rec;
    for (uint64_t seed : eval_seeds) {
        eval_w.push_back(mixedWorkload(seed, 400000));
        eval_rec.push_back(recordTrace(
            eval_w.back(), cfg, static_cast<uint32_t>(seed), 1));
    }

    auto &faults = FaultRegistry::instance();
    auto &reg = obs::StatRegistry::instance();
    const double intensities[] = {0.0, 0.01, 0.05, 0.1, 0.2};

    std::printf("%-9s %8s %8s %8s %8s  %s\n", "rate", "RSV",
                "PPW%", "perf%", "lowres", "degradations "
                "(carry/miss/veto/trip)");
    double rsv_fault_free = 0.0;
    for (const double m : intensities) {
        faults.configure(m > 0.0 ? mixAtIntensity(m) : "");
        const DegradationSnapshot base = DegradationSnapshot::now();

        double rsv = 0.0, ppw = 0.0, perf = 0.0, lowres = 0.0;
        for (size_t i = 0; i < eval_w.size(); ++i) {
            DualModelPredictor inner(dual.high, dual.low,
                                     {0, 1, 2, 3, 4, 5}, 20000,
                                     "rf");
            GuardrailedPredictor guarded(inner);
            const ClosedLoopResult r = runClosedLoop(
                eval_w[i], eval_rec[i], guarded, cfg, SlaSpec{});
            rsv += r.rsv;
            ppw += r.ppwGainPct;
            perf += r.perfRelativePct;
            lowres += r.lowResidency;
        }
        const double n = static_cast<double>(eval_w.size());
        rsv /= n;
        ppw /= n;
        perf /= n;
        lowres /= n;
        if (m == 0.0)
            rsv_fault_free = rsv;

        const DegradationSnapshot d =
            DegradationSnapshot::now().since(base);
        std::printf("%-9.3f %8.4f %8.2f %8.2f %8.3f  "
                    "%llu/%llu/%llu/%llu\n",
                    m, rsv, ppw, perf, lowres,
                    static_cast<unsigned long long>(d.carried),
                    static_cast<unsigned long long>(d.missed),
                    static_cast<unsigned long long>(d.vetoed),
                    static_cast<unsigned long long>(d.tripped));

        char key[64];
        std::snprintf(key, sizeof(key), "faults.sweep.%g", m);
        reg.gauge(std::string(key) + ".rsv").set(rsv);
        reg.gauge(std::string(key) + ".ppw_gain_pct").set(ppw);
        reg.gauge(std::string(key) + ".perf_rel_pct").set(perf);
        reg.gauge(std::string(key) + ".degradations")
            .set(static_cast<double>(d.carried + d.missed +
                                     d.vetoed + d.tripped));
    }
    faults.configure("");

    std::printf("\nfault-free RSV %.4f; the guardrailed loop should "
                "stay within 2x of it\nat every swept rate (the "
                "acceptance bound the fault tests enforce).\n",
                rsv_fault_free);
    return 0;
}

int
main()
{
    return psca::runner::guardedMain(run);
}
