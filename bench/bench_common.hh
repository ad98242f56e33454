/**
 * @file
 * Shared plumbing for the experiment benches: context setup (with the
 * shared on-disk record cache), trace-index helpers, and formatting.
 * Every bench prints the rows/series of one paper table or figure;
 * EXPERIMENTS.md records paper-vs-measured values.
 */

#ifndef PSCA_BENCH_COMMON_HH
#define PSCA_BENCH_COMMON_HH

#include <cstdio>
#include <string>
#include <vector>

#include "core/pipeline.hh"
#include "obs/report.hh"
#include "obs/stats.hh"

namespace psca {
namespace bench {

/**
 * Per-bench run report: declare one at the top of main() and the
 * stat registry (phase timings, decision-latency histogram, gate and
 * transition counters, suite gauges) is dumped to BENCH_<name>.json
 * when the bench exits, alongside the stdout table. PSCA_REPORT=0
 * disables the file; PSCA_REPORT_DIR redirects it.
 *
 * Safe for benches that run parallel regions: the dump takes the
 * registry mutex and the phase-tree lock for the whole traversal,
 * and stdio is flushed first (here and in writeRunReport), so the
 * JSON lands after every table row already printed.
 */
class ReportGuard
{
  public:
    explicit ReportGuard(const char *name)
        : guard_("BENCH_" + std::string(name))
    {}

    ~ReportGuard()
    {
        // Members destruct after this body: the gauges land in the
        // registry and the flush lands right before guard_ writes
        // BENCH_<name>.json.
        setReplayThroughputGauges();
        std::fflush(stdout);
        std::fflush(stderr);
    }

  private:
    /**
     * Derive whole-run simulator throughput from the sim.* counters
     * (replay wall time, instructions, cycles) so every BENCH_*.json
     * reports replay speed in the same units the perf-smoke CI job
     * checks. A fully cache-warm bench simulates nothing and honestly
     * reports 0.
     */
    static void
    setReplayThroughputGauges()
    {
        auto &reg = obs::StatRegistry::instance();
        const obs::Counter *ns = reg.findCounter("sim.replay_ns");
        const obs::Counter *instr =
            reg.findCounter("sim.instructions_retired");
        const obs::Counter *cycles = reg.findCounter("sim.cycles");
        // count / (ns * 1e-9) / 1e6  ==  count * 1e3 / ns
        const double per_ns_to_mega = ns != nullptr && ns->value() > 0
            ? 1e3 / static_cast<double>(ns->value())
            : 0.0;
        reg.gauge("sim.replay_muops_per_s")
            .set(instr != nullptr
                     ? static_cast<double>(instr->value()) *
                         per_ns_to_mega
                     : 0.0);
        reg.gauge("sim.replay_mcycles_per_s")
            .set(cycles != nullptr
                     ? static_cast<double>(cycles->value()) *
                         per_ns_to_mega
                     : 0.0);
    }

    obs::RunReportGuard guard_;
};

/** Print a banner naming the experiment. */
inline void
banner(const char *title)
{
    std::printf("\n================================================"
                "====================\n%s\n"
                "================================================"
                "====================\n",
                title);
}

/** Indices of all SPEC traces in the context. */
inline std::vector<size_t>
allTraceIndices(const ExperimentContext &ctx)
{
    std::vector<size_t> idx(ctx.spec.size());
    for (size_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    return idx;
}

/** Indices of one SPEC app's traces. */
inline std::vector<size_t>
appTraceIndices(const ExperimentContext &ctx, size_t app)
{
    std::vector<size_t> idx;
    for (size_t i = 0; i < ctx.spec.size(); ++i)
        if (ctx.spec[i].appId == static_cast<uint32_t>(app))
            idx.push_back(i);
    return idx;
}

/** Indices of the SPECint or SPECfp half of the suite. */
inline std::vector<size_t>
suiteTraceIndices(const ExperimentContext &ctx, bool fp)
{
    std::vector<size_t> idx;
    for (size_t i = 0; i < ctx.spec.size(); ++i)
        if (ctx.specApps[ctx.spec[i].appId].isFp == fp)
            idx.push_back(i);
    return idx;
}

/** Offline evaluation of one trained dual model on SPEC telemetry. */
inline EvalResult
offlineEval(const ExperimentContext &ctx, const ScaledModel &slot,
            CoreMode mode, const std::vector<size_t> &columns,
            uint64_t granularity, double p_sla)
{
    AssemblyOptions opts;
    opts.granularityInstr = granularity;
    opts.pSla = p_sla;
    opts.telemetryMode = mode;
    opts.columns = columns;
    const Dataset raw =
        assembleDataset(ctx.spec, opts, ctx.build.intervalInstr);
    const Dataset scaled = slot.scaler.apply(raw);
    SlaSpec sla;
    sla.pSla = p_sla;
    const uint64_t window =
        sla.windowPredictions(ctx.build.core, granularity);
    return evaluateModel(*slot.model, scaled, window);
}

} // namespace bench
} // namespace psca

#endif // PSCA_BENCH_COMMON_HH
