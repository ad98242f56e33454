/**
 * @file
 * psca — command-line driver for the adaptive-CPU library.
 *
 * Subcommands:
 *   counters [--all]          list the telemetry registry
 *   kernels                   list kernel families and SPEC profiles
 *   run <app> [options]       simulate one workload and print
 *                             per-interval telemetry + a summary
 *   train <app...> --out FW   record + train a Best-RF pair and emit
 *                             a flashable firmware image
 *   flash FW <app>            load a firmware image and run the
 *                             closed adaptation loop through the VM
 *
 *   fleet [--workers N]       run the campaign pipeline as a local
 *                             coordinator/worker fleet (DESIGN.md
 *                             §13, OPERATIONS.md); N=0 runs the same
 *                             campaign single-process. --supervise
 *                             restarts a crashed coordinator from
 *                             its journal (crash-resume).
 *   chaos [--workers N]       soak the fleet under a seeded network
 *                             fault schedule with one coordinator
 *                             kill+restart, then assert artifacts
 *                             byte-identical to a clean
 *                             single-process run
 *   serve [--schedule S]      run the online adaptation service:
 *                             drift detection, shadow validation,
 *                             and rollback-safe firmware hot-swap
 *                             over a workload schedule (DESIGN.md
 *                             §15); S = "app:blocks,app:blocks,..."
 *
 * <app> is either `spec:<name-substring>` (a SPEC2017 stand-in) or
 * `<category>:<seed>` with category in {hpc, cloud, ai, web, media,
 * games}.
 */

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>

#include "common/env.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/crossval.hh"
#include "core/firmware_image.hh"
#include "core/pipeline.hh"
#include "dist/dist.hh"
#include "obs/report.hh"
#include "obs/stats.hh"
#include "serve/service.hh"
#include "sim/core.hh"
#include "core/runner.hh"

extern char **environ;

using namespace psca;

namespace {

const std::vector<size_t> kAllColumns{0, 1, 2, 3, 4, 5, 6, 7};

int
usage()
{
    std::fprintf(stderr,
                 "usage: psca <counters|kernels|run|train|flash|"
                 "fleet|chaos|serve> ...\n"
                 "  psca counters [--all]\n"
                 "  psca kernels\n"
                 "  psca run <app> [--len N] [--mode high|low]\n"
                 "  psca train <app> [<app> ...] --out FW.bin\n"
                 "  psca flash FW.bin <app> [--len N]\n"
                 "  psca fleet [--workers N] [--out FW.bin]\n"
                 "             [--supervise] [--max-restarts K]\n"
                 "  psca chaos [--workers N] [--seed S]\n"
                 "  psca serve [--schedule \"app:blocks,...\"] "
                 "[--seed S]\n"
                 "             [--dir D] [--len N] [--blocks N]\n"
                 "  <app> = spec:<name> | "
                 "{hpc,cloud,ai,web,media,games}:<seed>\n");
    return 2;
}

/**
 * Parse a numeric flag's @p value as a whole decimal number in
 * [@p lo, @p hi]. False on a missing value, trailing junk or an
 * out-of-range number: the caller answers with usage() rather than
 * running on whatever atoi/strtoull would have made of it.
 */
template <typename T>
bool
parseFlag(const char *value, long long lo, long long hi, T &out)
{
    long long v = 0;
    if (!env::tryParseLong(value, v) || v < lo || v > hi)
        return false;
    out = static_cast<T>(v);
    return true;
}

constexpr long long kMaxFlag = std::numeric_limits<long long>::max();

/**
 * Resolve an <app> spec string into a workload. False on an unknown
 * kind, an empty or unmatched spec name, or a seed that is not a
 * whole decimal number in [0, kMaxFlag].
 */
bool
resolveApp(const std::string &spec, uint64_t len, Workload &out)
{
    const size_t colon = spec.find(':');
    if (colon == std::string::npos)
        return false;
    const std::string kind = spec.substr(0, colon);
    const std::string arg = spec.substr(colon + 1);

    if (kind == "spec") {
        if (arg.empty())
            return false;
        for (const auto &app : buildSpecApps()) {
            if (app.genome.name.find(arg) != std::string::npos) {
                out.genome = app.genome;
                break;
            }
        }
        if (out.genome.phases.empty())
            return false;
    } else {
        static const std::pair<const char *, AppCategory> cats[] = {
            {"hpc", AppCategory::HpcPerf},
            {"cloud", AppCategory::CloudSecurity},
            {"ai", AppCategory::AiAnalytics},
            {"web", AppCategory::WebProductivity},
            {"media", AppCategory::Multimedia},
            {"games", AppCategory::GamesRendering},
        };
        uint64_t seed = 0;
        if (!parseFlag(arg.c_str(), 0, kMaxFlag, seed))
            return false;
        bool found = false;
        for (const auto &[name, cat] : cats) {
            if (kind == name) {
                out.genome = sampleGenome(cat, seed);
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    out.inputSeed = 1;
    out.lengthInstr = len;
    out.name = out.genome.name;
    return true;
}

/** The --len value (instructions), @p len untouched when absent. */
bool
optLen(int argc, char **argv, uint64_t &len)
{
    for (int i = 0; i < argc; ++i)
        if (!std::strcmp(argv[i], "--len"))
            return parseFlag(i + 1 < argc ? argv[i + 1] : nullptr, 1,
                             kMaxFlag, len);
    return true;
}

int
cmdCounters(int argc, char **argv)
{
    const bool all = argc > 0 && !std::strcmp(argv[0], "--all");
    const auto &reg = CounterRegistry::instance();
    const size_t limit = all ? reg.numCounters() : kNumScalarCtrs;
    for (size_t i = 0; i < limit; ++i)
        std::printf("%4zu  %s\n", i,
                    reg.name(static_cast<uint16_t>(i)).c_str());
    if (!all)
        std::printf("(... %zu more; use --all)\n",
                    reg.numCounters() - limit);
    return 0;
}

int
cmdKernels()
{
    std::printf("kernel families:\n");
    for (size_t k = 0; k < kNumKernelKinds; ++k)
        std::printf("  %s\n",
                    kernelKindName(static_cast<KernelKind>(k)));
    std::printf("\nSPEC2017 stand-ins:\n");
    for (const auto &app : buildSpecApps()) {
        std::printf("  %-20s %-4s %d inputs, %zu phases\n",
                    app.genome.name.c_str(), app.isFp ? "fp" : "int",
                    app.numInputs, app.genome.phases.size());
    }
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    uint64_t len = 300000;
    if (argc < 1 || !optLen(argc, argv, len))
        return usage();
    Workload w;
    if (!resolveApp(argv[0], len, w)) {
        std::fprintf(stderr, "unknown app '%s'\n", argv[0]);
        return 2;
    }
    CoreMode mode = CoreMode::HighPerf;
    for (int i = 0; i + 1 < argc; ++i)
        if (!std::strcmp(argv[i], "--mode") &&
            !std::strcmp(argv[i + 1], "low"))
            mode = CoreMode::LowPower;

    BuildConfig cfg;
    cfg.counterIds = defaultCounterIds();
    std::printf("running %s (%lu instructions, %s mode)\n",
                w.name.c_str(),
                static_cast<unsigned long>(w.lengthInstr),
                coreModeName(mode));

    IntervalReplay replay(w, cfg, mode);
    const PowerModel power(cfg.power, cfg.core.clockGhz);
    std::printf("%-8s %-8s %-8s %-10s %-10s\n", "intvl", "IPC",
                "watts", "l1d-mpki", "stall/cyc");
    PpwAccumulator acc;
    for (uint64_t t = 0; t < w.lengthInstr / cfg.intervalInstr; ++t) {
        const IntervalStats stats = replay.step();
        const std::vector<uint64_t> &delta = replay.delta();
        const IntervalAdd add = projectInterval(delta, cfg, mode, nullptr);
        acc.add(cfg.intervalInstr, add.cycles, add.energyNj);
        if (t % 4 == 0) {
            std::printf(
                "%-8d %-8.2f %-8.2f %-10.2f %-10.3f\n",
                static_cast<int>(t), stats.ipc(),
                power.intervalPowerWatts(delta, stats.cycles, mode),
                1000.0 *
                    static_cast<double>(
                        delta[CounterRegistry::index(Ctr::L1dMiss)]) /
                    static_cast<double>(cfg.intervalInstr),
                static_cast<double>(
                    delta[CounterRegistry::index(Ctr::StallCount)]) /
                    static_cast<double>(stats.cycles));
        }
    }
    std::printf("\nsummary: IPC %.2f, %.2f W, PPW %.3g inst/J\n",
                acc.ipc(),
                acc.energyNj() * 1e-9 /
                    (static_cast<double>(acc.cycles()) /
                     (cfg.core.clockGhz * 1e9)),
                acc.ppw());
    return 0;
}

int
cmdTrain(int argc, char **argv)
{
    std::vector<std::string> apps;
    std::string out_path;
    for (int i = 0; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--out") && i + 1 < argc) {
            out_path = argv[++i];
        } else if (argv[i][0] != '-') {
            apps.emplace_back(argv[i]);
        }
    }
    if (apps.empty() || out_path.empty())
        return usage();

    BuildConfig cfg;
    cfg.counterIds = defaultCounterIds();
    std::vector<TraceRecord> records;
    for (size_t i = 0; i < apps.size(); ++i) {
        Workload w;
        if (!resolveApp(apps[i], 400000, w)) {
            std::fprintf(stderr, "unknown app '%s'\n",
                         apps[i].c_str());
            return 2;
        }
        std::printf("recording %s...\n", w.name.c_str());
        records.push_back(
            recordTrace(w, cfg, static_cast<uint32_t>(i), 0));
    }

    DualTrainOptions opts;
    opts.granularityInstr = 40000;
    opts.columns = kAllColumns;
    opts.rsvWindow = 400;
    TrainedDual dual =
        trainDual(records, cfg, opts, forestFactory(8, 8));
    DualModelPredictor predictor(dual.high, dual.low, kAllColumns,
                                 opts.granularityInstr, "psca-cli");
    const FirmwarePackage pkg =
        packageFromDual(predictor, kAllColumns);
    pkg.save(out_path);
    std::printf("wrote %s (%zu + %zu instructions of firmware)\n",
                out_path.c_str(), pkg.high.program.code.size(),
                pkg.low.program.code.size());
    return 0;
}

int
cmdFlash(int argc, char **argv)
{
    uint64_t len = 400000;
    if (argc < 2 || !optLen(argc, argv, len))
        return usage();
    Workload w;
    if (!resolveApp(argv[1], len, w)) {
        std::fprintf(stderr, "unknown app '%s'\n", argv[1]);
        return 2;
    }
    FirmwarePackage pkg = FirmwarePackage::load(argv[0]);
    std::printf("flashed %s (granularity %lu)\n", pkg.name.c_str(),
                static_cast<unsigned long>(pkg.granularityInstr));

    BuildConfig cfg;
    cfg.counterIds = defaultCounterIds();
    const TraceRecord ref = recordTrace(w, cfg, 0, 0);
    VmPredictor predictor(std::move(pkg));
    const ClosedLoopResult r =
        runClosedLoop(w, ref, predictor, cfg, SlaSpec{});
    std::printf("%s under predictive cluster gating:\n",
                w.name.c_str());
    std::printf("  PPW %+.1f%%, perf %.1f%%, residency %.1f%%, "
                "PGOS %.1f%%, RSV %.2f%%, uC ops %lu\n",
                r.ppwGainPct, r.perfRelativePct,
                r.lowResidency * 100, r.pgos * 100, r.rsv * 100,
                static_cast<unsigned long>(predictor.vmOpsExecuted()));
    return 0;
}

/**
 * The campaign every fleet process runs, coordinator and workers
 * alike (the lockstep-redundant model of DESIGN.md §13): experiment
 * setup (PF screen + HDTR corpus — two Distributed scopes), a
 * checkpoint-tagged RF cross-validation (third), and a Best-RF dual
 * train whose forest fits are the fourth. Only which process
 * *executes* each unit differs; every process ends with the same
 * bytes in memory and on disk.
 */
int
fleetCampaign(const std::string &out_path)
{
    obs::RunReportGuard report("fleet");
    const ScaleConfig scale = ScaleConfig::fromEnv();
    ExperimentContext ctx =
        setupExperiment(scale, /*need_spec=*/false);

    const ModelFactory rf_factory = forestFactory(8, 8);

    DualTrainOptions opts;
    opts.granularityInstr = 40000;
    opts.pSla = 0.90;
    opts.columns = ctx.plan.pfColumns(12);
    opts.rsvWindow = 400;
    opts.seed = 11;

    AssemblyOptions ao;
    ao.granularityInstr = opts.granularityInstr;
    ao.pSla = opts.pSla;
    ao.columns = opts.columns;
    const Dataset ds =
        assembleDataset(ctx.hdtr, ao, ctx.build.intervalInstr);
    CrossValOptions cv;
    cv.rsvWindow = opts.rsvWindow;
    cv.checkpointTag = "fleet.rf";
    const CrossValSummary summary = crossValidate(ds, rf_factory, cv);
    std::printf("fleet: crossval PGOS %.2f%% +/- %.2f, RSV %.2f%% "
                "+/- %.2f\n",
                summary.pgosMean * 100, summary.pgosStd * 100,
                summary.rsvMean * 100, summary.rsvStd * 100);
    // Result-bearing stats: these (unlike the dist.*/runner.*
    // accounting) must match between a fleet run and a
    // single-process run — the fleet-smoke CI job diffs them.
    auto &reg = obs::StatRegistry::instance();
    reg.gauge("fleet.crossval_pgos_pct").set(summary.pgosMean * 100);
    reg.gauge("fleet.crossval_pgos_std").set(summary.pgosStd * 100);
    reg.gauge("fleet.crossval_rsv_pct").set(summary.rsvMean * 100);
    reg.gauge("fleet.crossval_rsv_std").set(summary.rsvStd * 100);

    TrainedDual dual =
        trainDual(ctx.hdtr, ctx.build, opts, rf_factory);
    DualModelPredictor predictor(dual.high, dual.low, opts.columns,
                                 opts.granularityInstr, "psca-fleet");
    const FirmwarePackage pkg =
        packageFromDual(predictor, opts.columns);
    pkg.save(out_path);
    reg.gauge("fleet.fw_code_bytes")
        .set(static_cast<double>(pkg.high.program.code.size() +
                                 pkg.low.program.code.size()));
    std::printf("fleet: wrote %s\n", out_path.c_str());
    return 0;
}

/**
 * fork+exec this binary with an explicitly rebuilt environment (no
 * setenv between fork and exec): inherited vars matching any of
 * @p drop_prefixes are removed, then @p extra_env is appended.
 */
pid_t
spawnSelf(const std::vector<std::string> &args,
          const std::vector<std::string> &drop_prefixes,
          const std::vector<std::string> &extra_env)
{
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e)
        env.emplace_back(*e);
    env = dist::filterEnv(env, drop_prefixes);
    env.insert(env.end(), extra_env.begin(), extra_env.end());

    std::vector<std::string> args_copy = args;
    std::vector<char *> argv;
    for (auto &a : args_copy)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<char *> envp;
    for (auto &s : env)
        envp.push_back(s.data());
    envp.push_back(nullptr);

    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        execve("/proc/self/exe", argv.data(), envp.data());
        _exit(127);
    }
    return pid;
}

/**
 * The env prefixes chaos children must never inherit: chaos sets
 * their cache directory and fault schedule itself, and they must not
 * resume the caller's run.
 */
const std::vector<std::string> kChaosDropPrefixes = {
    "PSCA_DIST_",      "PSCA_JOURNAL=",    "PSCA_REPORT_DIR=",
    "PSCA_HTTP_PORT=", "PSCA_CACHE_DIR=",  "PSCA_FAULTS=",
    "PSCA_FAULT_SEED=", "PSCA_RESUME="};

/**
 * fork+exec one worker: same binary, `fleet --workers 0`, with the
 * fleet role env spliced in. @p addr may be "auto" so the worker
 * finds the coordinator through the address file — the form that
 * survives coordinator restarts, which republish a fresh port. The
 * worker reports under @p dir, the run's cache directory. A
 * non-empty @p chaos_env makes it a chaos child (kChaosDropPrefixes)
 * and goes before the role env. Otherwise the worker inherits the
 * caller's fleet tuning (dist::kFleetWorkerDropPrefixes).
 */
pid_t
spawnFleetWorker(int index, const std::string &addr,
                 const std::string &out_path, const std::string &dir,
                 const std::vector<std::string> &chaos_env = {})
{
    std::vector<std::string> extra = chaos_env;
    extra.push_back("PSCA_DIST_ROLE=worker");
    extra.push_back("PSCA_DIST_ADDR=" + addr);
    // The coordinator owns the journal; workers report to their own
    // directory so they cannot clobber the coordinator's run report.
    extra.push_back("PSCA_JOURNAL=0");
    const std::string rdir = dir + "/workers/w" + std::to_string(index);
    std::filesystem::create_directories(rdir);
    extra.push_back("PSCA_REPORT_DIR=" + rdir);
    return spawnSelf({"psca", "fleet", "--workers", "0", "--out",
                      out_path},
                     chaos_env.empty() ? dist::kFleetWorkerDropPrefixes
                                       : kChaosDropPrefixes,
                     extra);
}

/**
 * fork+exec a coordinator child: `fleet --workers 0` with the
 * coordinator role spliced in, so cmdFleet in the child serves the
 * fleet without forking workers of its own. The supervisor parent
 * respawns it after a crash; the journal resumes completed work.
 * @p chaos_env as for spawnFleetWorker.
 */
pid_t
spawnFleetCoordinator(int workers, const std::string &out_path,
                      const std::vector<std::string> &chaos_env = {})
{
    std::vector<std::string> extra = chaos_env;
    extra.push_back("PSCA_DIST_ROLE=coordinator");
    extra.push_back("PSCA_DIST_ADDR=auto");
    extra.push_back("PSCA_DIST_WORKERS=" + std::to_string(workers));
    // Outside chaos the coordinator keeps the caller's journal,
    // report and fleet tuning settings
    // (dist::kFleetCoordinatorDropPrefixes).
    return spawnSelf({"psca", "fleet", "--workers", "0", "--out",
                      out_path},
                     chaos_env.empty() ? dist::kFleetCoordinatorDropPrefixes
                                       : kChaosDropPrefixes,
                     extra);
}

int
cmdFleet(int argc, char **argv)
{
    int workers = 4;
    std::string out_path = cacheDirectory() + "/fleet_fw.bin";
    bool supervised = false;
    int max_restarts = 3;
    for (int i = 0; i < argc; ++i) {
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!std::strcmp(argv[i], "--out") && value)
            out_path = value;
        else if (!std::strcmp(argv[i], "--supervise"))
            supervised = true;
        else if ((!std::strcmp(argv[i], "--workers") &&
                  !parseFlag(value, 0, 1024, workers)) ||
                 (!std::strcmp(argv[i], "--max-restarts") &&
                  !parseFlag(value, 0, 1000, max_restarts)))
            return usage();
    }

    if (supervised && workers > 0 && dist::role() == dist::Role::Off)
    {
        // Crash-resume mode (DESIGN.md §13): the campaign runs in a
        // supervised coordinator child; if it dies, runner::supervise
        // respawns it and the journal replays completed units.
        // Workers connect through the address file ("auto"), which
        // each coordinator incarnation republishes, so they rejoin
        // the replacement on their own.
        std::error_code ec;
        std::filesystem::remove(cacheDirectory() + "/dist_addr", ec);
        std::printf("fleet: supervising a coordinator for %d "
                    "workers (restart budget %d)\n",
                    workers, max_restarts);
        std::vector<pid_t> kids;
        for (int i = 1; i <= workers; ++i)
            kids.push_back(spawnFleetWorker(i, "auto", out_path,
                                            cacheDirectory()));
        const int rc = runner::supervise(
            [&] { return spawnFleetCoordinator(workers, out_path); },
            max_restarts, "fleet coordinator");
        if (rc != 0) {
            // The coordinator is gone for good: withdraw its address
            // file so the workers stop trying to rejoin and fall
            // back to finishing their remaining scopes locally.
            std::filesystem::remove(cacheDirectory() + "/dist_addr",
                                    ec);
        }
        for (pid_t pid : kids) {
            int status = 0;
            waitpid(pid, &status, 0);
        }
        return rc;
    }

    const auto start = std::chrono::steady_clock::now();
    std::vector<pid_t> kids;
    if (workers > 0 && dist::role() == dist::Role::Off) {
        setenv("PSCA_DIST_ROLE", "coordinator", 1);
        setenv("PSCA_DIST_WORKERS",
               std::to_string(workers).c_str(), 1);
        dist::maybeInitFromEnv();
        const std::string addr = dist::coordinatorAddress();
        if (addr.empty()) {
            std::fprintf(stderr,
                         "fleet: coordinator failed to bind; "
                         "running single-process\n");
        } else {
            std::printf("fleet: coordinating %d workers on %s\n",
                        workers, addr.c_str());
            for (int i = 1; i <= workers; ++i)
                kids.push_back(spawnFleetWorker(i, addr, out_path,
                                                cacheDirectory()));
        }
    }

    const int rc = fleetCampaign(out_path);

    // Release any worker still parked at a ScopeEnter before waiting
    // on it: the Shutdown broadcast (and closed sockets) make
    // lagging workers finish their remaining scopes locally.
    if (!kids.empty())
        dist::shutdown();

    int bad = 0;
    for (pid_t pid : kids) {
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            ++bad;
    }
    if (bad > 0)
        std::fprintf(stderr, "fleet: %d worker(s) exited abnormally "
                             "(campaign still completed)\n",
                     bad);
    const double secs =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();
    std::printf("fleet: campaign complete in %.1f s (%zu worker "
                "processes)\n",
                secs, kids.size());
    return rc;
}

/**
 * Scrape one stat out of a run-report JSON file without a JSON
 * parser: find `"name"`, skip to the colon, strtod the value. The
 * report writer (obs/snapshot.cc) emits flat `"name": value` pairs,
 * so this is exact for any stat name that appears at most once.
 * Returns 0 when the file or the stat is absent — matching the
 * lazily-created counters, which only exist once incremented.
 */
double
reportValue(const std::string &path, const std::string &name)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return 0.0;
    std::ostringstream ss;
    ss << f.rdbuf();
    const std::string text = ss.str();
    const std::string needle = "\"" + name + "\"";
    const size_t pos = text.find(needle);
    if (pos == std::string::npos)
        return 0.0;
    const size_t colon = text.find(':', pos + needle.size());
    if (colon == std::string::npos)
        return 0.0;
    return std::strtod(text.c_str() + colon + 1, nullptr);
}

/**
 * Chaos soak (ISSUE: robustness): run the fleet campaign twice —
 * once clean and single-process, once as a fleet under a seeded
 * network fault schedule with one coordinator SIGKILL mid-scope —
 * and assert the artifacts are byte-identical. The schedule is
 * derived from --seed alone, so a failing soak replays exactly.
 */
int
cmdChaos(int argc, char **argv)
{
    // Both values must be whole decimal numbers: a malformed seed
    // must fail loudly, not soak some other schedule.
    long long workers = 4;
    long long seed = 1234;
    for (int i = 0; i < argc; ++i) {
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if ((!std::strcmp(argv[i], "--workers") &&
             !parseFlag(value, 1, 64, workers)) ||
            (!std::strcmp(argv[i], "--seed") &&
             !parseFlag(value, 0, kMaxFlag, seed)))
            return usage();
    }

    const std::string ref_dir = cacheDirectory() + "/chaos_ref";
    const std::string run_dir = cacheDirectory() + "/chaos_run";
    std::error_code ec;
    std::filesystem::remove_all(ref_dir, ec);
    std::filesystem::remove_all(run_dir, ec);
    std::filesystem::create_directories(ref_dir);
    std::filesystem::create_directories(run_dir);

    obs::RunReportGuard report("chaos");
    auto &reg = obs::StatRegistry::instance();

    // Phase 1: the clean reference — same campaign, one process, no
    // fleet, no faults. Everything the chaos run produces must match
    // these bytes.
    std::printf("chaos: [1/3] clean single-process reference\n");
    {
        pid_t ref = spawnSelf({"psca", "fleet", "--workers", "0",
                               "--out", ref_dir + "/fleet_fw.bin"},
                              kChaosDropPrefixes,
                              {"PSCA_CACHE_DIR=" + ref_dir,
                               "PSCA_REPORT_DIR=" + ref_dir});
        int status = 0;
        waitpid(ref, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            std::fprintf(stderr,
                         "chaos: reference run failed; aborting\n");
            return 1;
        }
    }

    // Phase 2: the chaos run. Fault rates are drawn from the seed so
    // every soak uses a different-but-reproducible schedule; the
    // same seed goes to the children as PSCA_FAULT_SEED, making each
    // individual fire deterministic too.
    Rng rng(mixSeeds(static_cast<uint64_t>(seed),
                     0x43484153u /* "CHAS" */));
    std::ostringstream spec;
    spec << "net.frame_corrupt:" << rng.uniform(0.002, 0.02)
         << ",net.torn_send:" << rng.uniform(0.002, 0.02)
         << ",net.conn_reset:" << rng.uniform(0.002, 0.02)
         << ",net.recv_stall:" << rng.uniform(0.01, 0.05) << ":20"
         << ",net.heartbeat_drop:0.2"
         << ",net.dup_result:" << rng.uniform(0.05, 0.2);
    const uint64_t kill_at = 2 + rng.below(4);
    std::printf("chaos: [2/3] %lld-worker fleet under '%s', "
                "coordinator SIGKILL after %llu journal entries\n",
                workers, spec.str().c_str(),
                static_cast<unsigned long long>(kill_at));

    const std::string out_path = run_dir + "/fleet_fw.bin";
    const std::vector<std::string> chaos_env = {
        "PSCA_FAULTS=" + spec.str(),
        "PSCA_FAULT_SEED=" + std::to_string(seed),
        "PSCA_CACHE_DIR=" + run_dir};
    // Workers ride out the coordinator's death: they retry and wait
    // long enough for the supervisor to bring a new one up.
    std::vector<std::string> worker_env = chaos_env;
    worker_env.insert(worker_env.end(),
                      {"PSCA_DIST_RETRIES=10", "PSCA_DIST_CONNECT_S=30",
                       "PSCA_DIST_IO_TIMEOUT_S=30",
                       "PSCA_DIST_HEARTBEAT_MS=100"});

    std::vector<pid_t> kids;
    for (int i = 1; i <= workers; ++i)
        kids.push_back(
            spawnFleetWorker(i, "auto", out_path, run_dir, worker_env));

    // The killer thread waits for the coordinator's journal to show
    // real mid-scope progress, then SIGKILLs whatever incarnation is
    // currently alive. The supervisor respawns it; the journal
    // replays its completed units; the workers rejoin through the
    // republished address file.
    std::atomic<pid_t> current{-1};
    std::atomic<bool> killer_stop{false};
    std::atomic<int> kills{0};
    const std::string journal_path = run_dir + "/journal.psj";
    std::thread killer([&] {
        while (!killer_stop.load(std::memory_order_relaxed)) {
            if (Journal::countEntries(journal_path) >= kill_at) {
                const pid_t pid = current.load();
                if (pid > 0 && ::kill(pid, SIGKILL) == 0) {
                    kills.fetch_add(1);
                    return;
                }
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    });

    std::vector<std::string> coord_env = chaos_env;
    coord_env.push_back("PSCA_REPORT_DIR=" + run_dir);
    const int rc_run = runner::supervise(
        [&] {
            return spawnFleetCoordinator(static_cast<int>(workers),
                                         out_path, coord_env);
        },
        /*max_restarts=*/3, "chaos coordinator", &current);
    killer_stop.store(true);
    killer.join();
    if (kills.load() > 0)
        emitEvent("chaos", LogLevel::Warn,
                       "coordinator SIGKILLed after " +
                           std::to_string(kill_at) +
                           " journal entries and restarted");
    if (rc_run != 0)
        std::filesystem::remove(run_dir + "/dist_addr", ec);
    for (pid_t pid : kids) {
        int status = 0;
        waitpid(pid, &status, 0);
    }

    // Phase 3: the verdict. Artifacts must be byte-identical; the
    // coordinator's final report must show the recovery machinery
    // actually exercised (>= 1 rejoin, no local fallback, network
    // faults firing).
    std::printf("chaos: [3/3] comparing artifacts\n");
    auto read_all = [](const std::string &p) {
        std::ifstream f(p, std::ios::binary);
        std::ostringstream s;
        s << f.rdbuf();
        return s.str();
    };
    int compared = 0;
    int mismatched = 0;
    for (const auto &ent :
         std::filesystem::directory_iterator(ref_dir))
    {
        if (!ent.is_regular_file())
            continue;
        const std::string name = ent.path().filename().string();
        if (name != "fleet_fw.bin" && name.rfind("hdtr_", 0) != 0 &&
            name.rfind("pf936_", 0) != 0)
            continue;
        ++compared;
        const std::string other = run_dir + "/" + name;
        if (!std::filesystem::exists(other, ec) ||
            read_all(ent.path().string()) != read_all(other))
        {
            ++mismatched;
            std::fprintf(stderr, "chaos: artifact DIVERGED: %s\n",
                         name.c_str());
        }
    }

    const std::string coord_report = run_dir + "/fleet.json";
    const double rejoins = reportValue(coord_report, "dist.rejoins");
    const double duplicates =
        reportValue(coord_report, "dist.duplicate_results");
    double fallbacks =
        reportValue(coord_report, "dist.local_fallbacks");
    double net_fires = 0.0;
    static const char *const kNetSites[] = {
        "net.frame_corrupt", "net.torn_send",      "net.conn_reset",
        "net.recv_stall",    "net.heartbeat_drop", "net.dup_result"};
    std::vector<std::string> reports = {coord_report};
    for (int i = 1; i <= workers; ++i)
        reports.push_back(run_dir + "/workers/w" +
                          std::to_string(i) + "/fleet.json");
    for (const auto &r : reports)
        for (const char *site : kNetSites)
            net_fires +=
                reportValue(r, std::string("fault.") + site +
                                   ".fires");
    for (int i = 1; i <= workers; ++i)
        fallbacks += reportValue(run_dir + "/workers/w" +
                                     std::to_string(i) +
                                     "/fleet.json",
                                 "dist.local_fallbacks");

    reg.gauge("chaos.workers").set(workers);
    reg.gauge("chaos.seed").set(static_cast<double>(seed));
    reg.gauge("chaos.kill_after_entries")
        .set(static_cast<double>(kill_at));
    reg.gauge("chaos.coordinator_kills").set(kills.load());
    reg.gauge("chaos.artifacts_compared").set(compared);
    reg.gauge("chaos.artifact_mismatches").set(mismatched);
    reg.gauge("chaos.rejoins").set(rejoins);
    reg.gauge("chaos.local_fallbacks").set(fallbacks);
    reg.gauge("chaos.duplicate_results").set(duplicates);
    reg.gauge("chaos.net_fault_fires").set(net_fires);

    const bool pass = rc_run == 0 && compared >= 1 &&
        mismatched == 0 && kills.load() >= 1 && rejoins >= 1 &&
        fallbacks == 0 && net_fires >= 1;
    std::printf(
        "chaos: %d artifacts compared, %d diverged; %d coordinator "
        "kill(s); %.0f rejoin(s), %.0f local fallback(s), %.0f "
        "duplicate result(s), %.0f net fault fire(s)\n",
        compared, mismatched, kills.load(), rejoins, fallbacks,
        duplicates, net_fires);
    std::printf("chaos: %s\n", pass ? "PASS — fleet under chaos is "
                                      "byte-identical to the clean "
                                      "single-process run"
                                    : "FAIL");
    return pass ? 0 : 1;
}

/**
 * psca serve — the online adaptation service (DESIGN.md §15). The
 * schedule is a comma list of "app:blocks" entries (the app spec
 * itself contains a colon, so the blocks count is split off at the
 * LAST colon). The default schedule shifts workload category halfway
 * through, which is exactly the distribution shift the drift
 * detector exists to catch.
 */
int
cmdServe(int argc, char **argv)
{
    std::string schedule_spec = "hpc:2:48,media:7:48";
    uint64_t len = 240000;
    uint64_t max_blocks = 0;
    serve::ServeConfig cfg;
    // The rollback runbook's kill switch (OPERATIONS.md).
    cfg.lifecycle = env::flagOr("PSCA_SERVE", true);
    cfg.dir = cacheDirectory() + "/serve";
    for (int i = 0; i < argc; ++i) {
        const char *value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (!std::strcmp(argv[i], "--schedule") && value)
            schedule_spec = value;
        else if (!std::strcmp(argv[i], "--dir") && value)
            cfg.dir = value;
        else if ((!std::strcmp(argv[i], "--seed") &&
                  !parseFlag(value, 0, kMaxFlag, cfg.seed)) ||
                 (!std::strcmp(argv[i], "--len") &&
                  !parseFlag(value, 1, kMaxFlag, len)) ||
                 (!std::strcmp(argv[i], "--blocks") &&
                  !parseFlag(value, 0, kMaxFlag, max_blocks)))
            return usage();
    }

    std::vector<serve::ServeSegment> schedule;
    std::istringstream ss(schedule_spec);
    std::string entry;
    while (std::getline(ss, entry, ',')) {
        const size_t colon = entry.rfind(':');
        if (colon == std::string::npos || colon + 1 >= entry.size())
            return usage();
        serve::ServeSegment seg;
        if (!parseFlag(entry.c_str() + colon + 1, 1, kMaxFlag,
                       seg.blocks) ||
            !resolveApp(entry.substr(0, colon), len, seg.workload))
        {
            std::fprintf(stderr, "bad schedule entry '%s'\n",
                         entry.c_str());
            return 2;
        }
        schedule.push_back(std::move(seg));
    }
    if (schedule.empty())
        return usage();

    BuildConfig build;
    build.counterIds = defaultCounterIds();

    obs::RunReportGuard report("serve");
    std::printf("serve: %zu-segment schedule, fw ring at %s\n",
                schedule.size(), cfg.dir.c_str());
    serve::Service service(cfg, build, std::move(schedule));
    const serve::ServeOutcome &out = service.run(max_blocks);
    std::printf(
        "serve: %llu blocks, %llu drift(s), %llu retrain(s) "
        "(%llu failed), %llu promotion(s), %llu rejection(s), "
        "%llu rollback(s); active fw v%u, PPW %+.2f%% vs high-only\n",
        static_cast<unsigned long long>(out.blocks),
        static_cast<unsigned long long>(out.driftsDetected),
        static_cast<unsigned long long>(out.retrains),
        static_cast<unsigned long long>(out.retrainFailures),
        static_cast<unsigned long long>(out.promotions),
        static_cast<unsigned long long>(out.rejections),
        static_cast<unsigned long long>(out.rollbacks),
        out.activeVersion, out.ppwGainPct);
    return 0;
}

} // namespace

static int
run(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    if (cmd == "counters")
        return cmdCounters(argc - 2, argv + 2);
    if (cmd == "kernels")
        return cmdKernels();
    if (cmd == "run")
        return cmdRun(argc - 2, argv + 2);
    if (cmd == "train")
        return cmdTrain(argc - 2, argv + 2);
    if (cmd == "flash")
        return cmdFlash(argc - 2, argv + 2);
    if (cmd == "fleet")
        return cmdFleet(argc - 2, argv + 2);
    if (cmd == "chaos")
        return cmdChaos(argc - 2, argv + 2);
    if (cmd == "serve")
        return cmdServe(argc - 2, argv + 2);
    return usage();
}

int
main(int argc, char **argv)
{
    return psca::runner::guardedMain(
        [argc, argv] { return run(argc, argv); });
}
