/**
 * @file
 * Online-adaptation-service bench: drive the serve state machine
 * (DESIGN.md §15) through a category-shifting workload schedule and
 * report the lifecycle economics — blocks served, drift windows until
 * detection, retrain/shadow/promotion counts, and the live PPW gain
 * before and after the hot-swap — into BENCH_serve.json.
 *
 * Not a paper experiment: the paper ships retrained firmware through
 * datacenter infrastructure management (Sec. 3.2) but does not
 * evaluate the online plumbing. This bench quantifies the
 * reproduction's adaptation-latency story: how much telemetry the
 * service needs before a planted distribution shift turns into a
 * verified firmware swap.
 */

#include "bench_common.hh"

#include <filesystem>

#include "common/journal.hh"
#include "serve/service.hh"
#include "trace/genome.hh"

using namespace psca;
using namespace psca::bench;

namespace {

BuildConfig
serveBenchConfig()
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = defaultCounterIds();
    return cfg;
}

Workload
categoryWorkload(AppCategory cat, uint64_t seed, uint64_t len)
{
    Workload w;
    w.genome = sampleGenome(cat, seed);
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = w.genome.name;
    return w;
}

} // namespace

int
main()
{
    ReportGuard report("serve");
    auto &reg = obs::StatRegistry::instance();

    const std::string dir = cacheDirectory() + "/bench_serve_ring";
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);

    serve::ServeConfig cfg;
    cfg.dir = dir;
    cfg.seed = 21;
    cfg.granularityInstr = 20000;
    cfg.columns = {0, 1, 2, 3, 4, 5, 6, 7};
    cfg.forestTrees = 4;
    cfg.forestDepth = 6;
    cfg.driftWindow = 8;
    cfg.driftZ = 2.0;
    cfg.abIntervals = 12;
    cfg.probationIntervals = 12;
    cfg.cooldownBlocks = 16;

    // Multimedia -> HpcPerf: the retrained candidate beats the stale
    // model on both accuracy and energy, so the default A/B gate
    // promotes and the bench exercises the whole lifecycle. (The
    // reverse order plants a shift whose better candidate costs more
    // energy — the gate rejects it, which is correct but shows less.)
    const uint64_t len = 600000;
    std::vector<serve::ServeSegment> schedule = {
        {categoryWorkload(AppCategory::Multimedia, 7, len), 64},
        {categoryWorkload(AppCategory::HpcPerf, 2, len), 64},
    };

    BuildConfig build = serveBenchConfig();
    serve::Service service(cfg, build, schedule);
    const serve::ServeOutcome &out = service.run();

    std::printf("%-28s %s\n", "metric", "value");
    std::printf("%-28s %llu\n", "blocks served",
                static_cast<unsigned long long>(out.blocks));
    std::printf("%-28s %llu\n", "drifts detected",
                static_cast<unsigned long long>(out.driftsDetected));
    std::printf("%-28s %llu\n", "retrains",
                static_cast<unsigned long long>(out.retrains));
    std::printf("%-28s %llu\n", "shadow intervals scored",
                static_cast<unsigned long long>(out.shadowsScored));
    std::printf("%-28s %llu\n", "promotions",
                static_cast<unsigned long long>(out.promotions));
    std::printf("%-28s %llu\n", "rejections",
                static_cast<unsigned long long>(out.rejections));
    std::printf("%-28s %llu\n", "rollbacks",
                static_cast<unsigned long long>(out.rollbacks));
    std::printf("%-28s v%u\n", "active firmware",
                out.activeVersion);
    std::printf("%-28s %+.2f%%\n", "PPW vs high-only",
                out.ppwGainPct);
    std::printf("\nlifecycle:\n");
    for (const std::string &line : out.lifecycle)
        std::printf("  %s\n", line.c_str());

    reg.gauge("serve.bench_blocks")
        .set(static_cast<double>(out.blocks));
    reg.gauge("serve.bench_drifts")
        .set(static_cast<double>(out.driftsDetected));
    reg.gauge("serve.bench_promotions")
        .set(static_cast<double>(out.promotions));
    reg.gauge("serve.bench_rollbacks")
        .set(static_cast<double>(out.rollbacks));
    reg.gauge("serve.bench_ppw_gain_pct").set(out.ppwGainPct);
    return 0;
}
