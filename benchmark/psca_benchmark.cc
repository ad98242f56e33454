/**
 * @file
 * psca_benchmark — driver of the reproduction benchmark. One
 * invocation runs one workload once through the libraries' public
 * entry points and writes what happened to a results JSON:
 *
 *   repro_cold, repro_warm  setupExperiment -> RF crossValidate ->
 *                           train Best RF, CHARSTAR, SRCH@40k ->
 *                           packageFromDual(Best RF), flashed and
 *                           reloaded -> evaluateSuite over every SPEC
 *                           trace for the firmware VmPredictor,
 *                           CHARSTAR and SRCH@40k. Cold or warm is
 *                           whatever PSCA_CACHE_DIR holds.
 *   serve_shift             serve::Service over a schedule cycling
 *                           through the six HDTR categories.
 *   fleet_cold              `psca fleet --workers 2` as a child process.
 *
 * Each public call is a driver span (name, parent, start, end on the
 * trace clock) with the stat counters snapshotted at both edges. The
 * result items are the golden-checked outputs: hashes of records,
 * firmware and ring images, and exact closed-loop and lifecycle
 * results. benchmark/run.py prepares the cache and run directories,
 * sets the environment, and turns the JSON into metrics.
 *
 * Usage:
 *   psca_benchmark --workload W --seed S --out results.json
 *                  [--setups K] [--psca path/to/psca]
 *
 * --setups makes the repro campaign call setupExperiment K times (the
 * last context is the one the campaign uses) so a warm cache load can
 * be reported as a median; the other workloads set up exactly once.
 */

#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/journal.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/crossval.hh"
#include "core/firmware_image.hh"
#include "core/pipeline.hh"
#include "core/runner.hh"
#include "obs/events.hh"
#include "obs/json.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "serve/service.hh"
#include "trace/decoded.hh"
#include "trace/genome.hh"

extern char **environ;

using namespace psca;
namespace fs = std::filesystem;

namespace {

constexpr double kPSla = 0.90;

/** One timed public call. */
struct Call
{
    std::string name;
    int parent = -1;
    uint64_t startNs = 0; //!< relative to obs::processBaseNs()
    uint64_t endNs = 0;
    std::map<std::string, uint64_t> before;
    std::map<std::string, uint64_t> after;
};

/** Every stat counter, plus the journal's self-tallied unit count. */
std::map<std::string, uint64_t>
counterSnapshot()
{
    std::map<std::string, uint64_t> snap;
    obs::StatRegistry::instance().forEachCounter(
        [&snap](const std::string &name, uint64_t v) {
            snap[name] = v;
        });
    snap["journal.units_executed"] =
        Journal::globalStats().unitsExecuted;
    return snap;
}

uint64_t
traceNowNs()
{
    // The base is fixed on first use, so read it before the clock.
    const uint64_t base = obs::processBaseNs();
    return steadyNowNs() - base;
}

/** The driver's spans, kept in memory and written at exit. */
class Recorder
{
  public:
    /** Open a call nested in the innermost open one; returns its id. */
    size_t
    begin(const std::string &name)
    {
        Call c;
        c.name = name;
        c.parent = open_.empty() ? -1 : static_cast<int>(open_.back());
        c.before = counterSnapshot();
        c.startNs = traceNowNs();
        calls_.push_back(std::move(c));
        open_.push_back(calls_.size() - 1);
        return calls_.size() - 1;
    }

    /** Close call @p id (must be the innermost open one). */
    double
    end(size_t id)
    {
        PSCA_ASSERT(!open_.empty() && open_.back() == id,
                    "benchmark calls must nest");
        open_.pop_back();
        Call &c = calls_[id];
        c.endNs = traceNowNs();
        c.after = counterSnapshot();
        return seconds(id);
    }

    /** Time @p fn as call @p name and return its result. */
    template <typename F>
    auto
    call(const std::string &name, F &&fn)
    {
        const size_t id = begin(name);
        auto result = fn();
        end(id);
        return result;
    }

    double
    seconds(size_t id) const
    {
        return static_cast<double>(calls_[id].endNs -
                                   calls_[id].startNs) * 1e-9;
    }

    size_t size() const { return calls_.size(); }
    const std::vector<Call> &calls() const { return calls_; }

  private:
    std::vector<Call> calls_;
    std::vector<size_t> open_;
};

/** Result items in emission order: the golden check names the first
 *  one that is missing or differs. */
using Items = std::vector<std::pair<std::string, std::string>>;

/** Exact decimal form of a double (round-trips). */
std::string
exact(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex64(uint64_t h)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** "<prefix><i>" with i zero-padded to three digits, so item keys
 *  sort in index order. */
std::string
indexed(const std::string &prefix, size_t i)
{
    std::string n = std::to_string(i);
    if (n.size() < 3)
        n.insert(0, 3 - n.size(), '0');
    return prefix + n;
}

template <typename T>
uint64_t
hashVector(uint64_t h, const std::vector<T> &v)
{
    const uint64_t n = v.size();
    h = fnv1aUpdate(h, &n, sizeof(n));
    return fnv1aUpdate(h, v.data(), v.size() * sizeof(T));
}

uint64_t
hashRecord(const TraceRecord &r)
{
    uint64_t h = fnv1aUpdate(kFnv1aBasis, r.name.data(), r.name.size());
    h = fnv1aUpdate(h, &r.appId, sizeof(r.appId));
    h = fnv1aUpdate(h, &r.traceId, sizeof(r.traceId));
    h = fnv1aUpdate(h, &r.numCounters, sizeof(r.numCounters));
    for (const auto *v : {&r.deltaHigh, &r.deltaLow, &r.cyclesHigh,
                          &r.cyclesLow, &r.energyHighNj, &r.energyLowNj})
        h = hashVector(h, *v);
    return h;
}

uint64_t
hashFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot read '", path.string(), "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string bytes = ss.str();
    return fnv1aUpdate(kFnv1aBasis, bytes.data(), bytes.size());
}

/** Hash every regular file directly under @p dir whose name passes
 *  @p keep, in name order, as items "<prefix><file name>". */
template <typename Pred>
void
hashFiles(const fs::path &dir, const std::string &prefix, Pred keep,
          Items &items)
{
    std::vector<fs::path> files;
    for (const auto &ent : fs::directory_iterator(dir))
        if (ent.is_regular_file() &&
            keep(ent.path().filename().string()))
            files.push_back(ent.path());
    std::sort(files.begin(), files.end());
    for (const auto &f : files)
        items.emplace_back(prefix + f.filename().string(),
                           hex64(hashFile(f)));
}

/** The SPEC stand-in traces of a scale, in setupExperiment's order. */
std::vector<Workload>
specWorkloadList(const ScaleConfig &scale)
{
    std::vector<Workload> list;
    for (const SpecApp &app : buildSpecApps())
        for (Workload &w : specWorkloads(app, scale.specTraceLen,
                                         scale.specTracesPerWorkload))
            list.push_back(std::move(w));
    return list;
}

/**
 * Traced runs only: decode every SPEC trace once more (the stream the
 * recorder decodes and the closed loop regenerates every block), so
 * the trace layer gets a throughput of its own.
 */
void
decodeProbe(Recorder &rec, const BuildConfig &build,
            std::map<std::string, double> &measures)
{
    if (!obs::TraceLog::instance().enabled())
        return;
    const std::vector<Workload> list =
        specWorkloadList(ScaleConfig::fromEnv());
    uint64_t uops = 0;
    const size_t id = rec.begin("decode");
    for (const Workload &w : list) {
        TraceGenerator gen(w);
        uops += decodeTrace(gen, build.warmupInstr + w.lengthInstr).size();
    }
    rec.end(id);
    measures["decode_uops"] = static_cast<double>(uops);
}

void
addSuiteItems(const std::string &tag, const SuiteResult &suite,
              Items &items)
{
    items.emplace_back("suite." + tag + ".ppw_gain_pct",
                       exact(suite.ppwGainPct));
    items.emplace_back("suite." + tag + ".rsv_pct", exact(suite.rsvPct));
    items.emplace_back("suite." + tag + ".pgos_pct",
                       exact(suite.pgosPct));
    items.emplace_back("suite." + tag + ".low_residency_pct",
                       exact(suite.lowResidencyPct));
    for (size_t i = 0; i < suite.perTrace.size(); ++i) {
        const ClosedLoopResult &r = suite.perTrace[i];
        items.emplace_back(
            indexed("loop." + tag + ".", i),
            "ppw=" + exact(r.ppwGainPct) + " rsv=" + exact(r.rsv) +
                " pgos=" + exact(r.pgos) + " res=" + exact(r.lowResidency) +
                " n=" + std::to_string(r.numPredictions));
    }
}

/**
 * The quick-scale reproduction campaign. Seed s picks the model seeds
 * 10+s (Best RF), 12+s (CHARSTAR) and 6+s (crossval), so s = 1 is
 * bench_fig8's configuration; the corpora are fixed.
 */
void
runRepro(Recorder &rec, uint64_t seed, int setups, const fs::path &run,
         Items &items, std::map<std::string, double> &measures)
{
    const ScaleConfig scale = ScaleConfig::fromEnv();
    ExperimentContext ctx;
    for (int i = 0; i < setups; ++i) {
        // Drop the previous context first, so probes do not raise the
        // peak RSS by holding two.
        ctx = ExperimentContext{};
        const size_t id =
            rec.begin(i + 1 < setups ? "setup_probe" : "setup_experiment");
        ctx = setupExperiment(scale, /*need_spec=*/true);
        measures["setup_s." + std::to_string(i)] = rec.end(id);
    }
    const size_t first_call = rec.size() - 1;

    const std::vector<size_t> pf12 = ctx.plan.pfColumns(12);
    const CrossValSummary cv = rec.call("crossval", [&] {
        AssemblyOptions ao;
        ao.granularityInstr = 40000;
        ao.pSla = kPSla;
        ao.columns = pf12;
        const Dataset ds =
            assembleDataset(ctx.hdtr, ao, ctx.build.intervalInstr);
        CrossValOptions opts;
        opts.folds = ctx.scale.folds;
        opts.maxTuneSamples = ctx.scale.maxTuneSamples;
        opts.rsvWindow = 1600;
        opts.seed = 6 + seed;
        return crossValidate(ds, forestFactory(8, 8), opts);
    });
    NamedPredictor rf = rec.call(
        "train_best_rf", [&] { return makeBestRf(ctx, kPSla, 10 + seed); });
    NamedPredictor charstar = rec.call("train_charstar", [&] {
        return makeCharstar(ctx, kPSla, 12 + seed);
    });
    NamedPredictor srch = rec.call(
        "train_srch", [&] { return makeSrch(ctx, kPSla, 40000); });

    // Flash and reload: the suite runs the bytes a firmware update
    // would ship, not the in-memory model.
    const fs::path fw_path = run / "best_rf_fw.bin";
    VmPredictor firmware = rec.call("package", [&] {
        const auto &dual =
            dynamic_cast<const DualModelPredictor &>(*rf.predictor);
        packageFromDual(dual, pf12).save(fw_path.string());
        return VmPredictor(FirmwarePackage::load(fw_path.string()));
    });

    std::vector<size_t> all(ctx.spec.size());
    for (size_t i = 0; i < all.size(); ++i)
        all[i] = i;
    const SuiteResult fw_suite = rec.call("eval_firmware", [&] {
        return evaluateSuite(ctx, firmware, all, kPSla);
    });
    const SuiteResult ch_suite = rec.call("eval_charstar", [&] {
        return evaluateSuite(ctx, *charstar.predictor, all, kPSla);
    });
    const SuiteResult srch_suite = rec.call("eval_srch", [&] {
        return evaluateSuite(ctx, *srch.predictor, all, kPSla);
    });
    const Call &first = rec.calls()[first_call];
    measures["wall_s"] =
        static_cast<double>(rec.calls().back().endNs - first.startNs) *
        1e-9;

    uint64_t plan_h = hashVector(kFnv1aBasis, ctx.plan.recordIds);
    plan_h = hashVector(plan_h, ctx.plan.pfRanked);
    items.emplace_back("plan.hash", hex64(plan_h));
    for (size_t i = 0; i < ctx.hdtr.size(); ++i)
        items.emplace_back(indexed("record.hdtr.", i),
                           hex64(hashRecord(ctx.hdtr[i])));
    for (size_t i = 0; i < ctx.spec.size(); ++i)
        items.emplace_back(indexed("record.spec.", i),
                           hex64(hashRecord(ctx.spec[i])));
    items.emplace_back("crossval.pgos_mean", exact(cv.pgosMean));
    items.emplace_back("crossval.pgos_std", exact(cv.pgosStd));
    items.emplace_back("crossval.rsv_mean", exact(cv.rsvMean));
    items.emplace_back("crossval.rsv_std", exact(cv.rsvStd));
    items.emplace_back("crossval.accuracy_mean", exact(cv.accuracyMean));
    items.emplace_back("firmware.hash", hex64(hashFile(fw_path)));
    items.emplace_back("firmware.ops_per_inference",
                       std::to_string(firmware.opsPerInference()));
    addSuiteItems("fw", fw_suite, items);
    addSuiteItems("charstar", ch_suite, items);
    addSuiteItems("srch40k", srch_suite, items);

    decodeProbe(rec, ctx.build, measures);
}

/** bench_serve's recording configuration (8 counters, 20k warmup). */
BuildConfig
serveBuildConfig()
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
        CounterRegistry::index(Ctr::UopsReady),
        CounterRegistry::index(Ctr::SqOccSum),
    };
    return cfg;
}

/**
 * Steady-clock time (trace base) of the serve lifecycle event whose
 * message starts with @p prefix; fatal when the event log lacks it.
 */
uint64_t
serveEventNs(const std::string &prefix)
{
    for (const auto &ev : obs::EventLog::instance().snapshot())
        if (ev.category == "serve" && ev.msg.rfind(prefix, 0) == 0)
            return ev.tNs;
    fatal("serve event '", prefix, "' not in the event log");
}

/**
 * The online service over 8 segments x 256 blocks at 20k granularity,
 * cycling through the six HDTR categories, with bench_serve's tuning.
 * The schedule is fixed, so every seed simulates the same blocks; seed
 * s is ServeConfig.seed, which seeds every retrain and so drives the
 * lifecycle (drifts, promotions, rejections).
 */
void
runServe(Recorder &rec, uint64_t seed, const fs::path &run, Items &items,
         std::map<std::string, double> &measures)
{
    static const AppCategory kCats[] = {
        AppCategory::HpcPerf,         AppCategory::CloudSecurity,
        AppCategory::AiAnalytics,     AppCategory::WebProductivity,
        AppCategory::Multimedia,      AppCategory::GamesRendering,
    };
    constexpr size_t kSegments = 8;
    constexpr uint64_t kBlocks = 256;
    constexpr uint64_t kLen = 600000;

    std::vector<serve::ServeSegment> schedule;
    for (size_t i = 0; i < kSegments; ++i) {
        serve::ServeSegment seg;
        seg.workload.genome = sampleGenome(kCats[i % std::size(kCats)], i);
        seg.workload.inputSeed = 1;
        seg.workload.lengthInstr = kLen;
        seg.workload.name = seg.workload.genome.name;
        seg.blocks = kBlocks;
        schedule.push_back(std::move(seg));
    }

    serve::ServeConfig cfg;
    cfg.seed = seed;
    cfg.granularityInstr = 20000;
    cfg.columns = {0, 1, 2, 3, 4, 5, 6, 7};
    cfg.forestTrees = 4;
    cfg.forestDepth = 6;
    cfg.driftWindow = 8;
    cfg.driftZ = 2.0;
    cfg.abIntervals = 12;
    cfg.probationIntervals = 12;
    cfg.cooldownBlocks = 16;
    const BuildConfig build = serveBuildConfig();

    cfg.dir = (run / "ring").string();
    const size_t construct = rec.begin("serve_construct");
    serve::Service service(cfg, build, schedule);
    rec.end(construct);
    const serve::ServeOutcome out =
        rec.call("serve_run", [&] { return service.run(); });
    const uint64_t start = rec.calls()[construct].startNs;
    measures["wall_s"] =
        static_cast<double>(rec.calls().back().endNs - start) * 1e-9;
    // The service's set-up: construction until the bootstrap firmware
    // is promoted and the first block can be served.
    measures["setup_s.0"] = static_cast<double>(
        serveEventNs("b=0 BOOTSTRAP promoted") - start) * 1e-9;

    items.emplace_back("outcome.blocks", std::to_string(out.blocks));
    items.emplace_back("outcome.drifts",
                       std::to_string(out.driftsDetected));
    items.emplace_back("outcome.retrains", std::to_string(out.retrains));
    items.emplace_back("outcome.retrain_failures",
                       std::to_string(out.retrainFailures));
    items.emplace_back("outcome.shadows_scored",
                       std::to_string(out.shadowsScored));
    items.emplace_back("outcome.promotions",
                       std::to_string(out.promotions));
    items.emplace_back("outcome.rejections",
                       std::to_string(out.rejections));
    items.emplace_back("outcome.rollbacks", std::to_string(out.rollbacks));
    items.emplace_back("outcome.swap_failures",
                       std::to_string(out.swapFailures));
    items.emplace_back("outcome.active_version",
                       std::to_string(out.activeVersion));
    items.emplace_back("outcome.ppw_gain_pct", exact(out.ppwGainPct));
    for (size_t i = 0; i < out.lifecycle.size(); ++i)
        items.emplace_back(indexed("lifecycle.", i), out.lifecycle[i]);
    hashFiles(cfg.dir, "ring.",
              [](const std::string &) { return true; }, items);

    decodeProbe(rec, build, measures);
}

/**
 * `psca fleet --workers 2` from spawn to exit. The CLI campaign is
 * fixed, so the seed is unused. In a traced run the child traces to a
 * file of its own: the driver's trace is written after it, at exit.
 */
void
runFleet(Recorder &rec, const std::string &psca, const fs::path &cache,
         Items &items, std::map<std::string, double> &measures)
{
    const std::string fw = (cache / "fleet_fw.bin").string();
    std::vector<std::string> args = {psca, "fleet", "--workers", "2",
                                     "--out", fw};
    std::vector<std::string> env;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string var(*e);
        if (var.rfind("PSCA_TRACE=", 0) == 0)
            env.push_back(var + ".fleet.json");
        else
            env.push_back(var);
    }
    std::vector<char *> argv, envp;
    for (auto &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    for (auto &v : env)
        envp.push_back(v.data());
    envp.push_back(nullptr);

    std::fflush(nullptr);
    const size_t id = rec.begin("fleet");
    pid_t pid = 0;
    const int rc = posix_spawn(&pid, psca.c_str(), nullptr, nullptr,
                               argv.data(), envp.data());
    if (rc != 0)
        fatal("cannot spawn '", psca, "': ", std::strerror(rc));
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            fatal("waitpid: ", std::strerror(errno));
    measures["wall_s"] = rec.end(id);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        fatal("psca fleet failed (status ", status, ")");

    hashFiles(cache, "artifact.",
              [](const std::string &name) {
                  return name == "fleet_fw.bin" ||
                      name.rfind("hdtr_", 0) == 0 ||
                      name.rfind("pf936_", 0) == 0;
              },
              items);
    decodeProbe(rec, BuildConfig{}, measures);
}

void
writeCounters(std::ostream &os, const std::map<std::string, uint64_t> &m)
{
    os << "{";
    bool first = true;
    for (const auto &[name, v] : m) {
        if (v == 0)
            continue;
        os << (first ? "" : ", ") << "\"" << obs::jsonEscape(name)
           << "\": " << v;
        first = false;
    }
    os << "}";
}

void
writeResults(const std::string &path, const std::string &workload,
             uint64_t seed, const Recorder &rec, const Items &items,
             const std::map<std::string, double> &measures)
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write '", path, "'");
    os << "{\n\"workload\": \"" << workload << "\",\n\"seed\": " << seed
       << ",\n\"threads\": " << ThreadPool::instance().numThreads()
       << ",\n\"traced\": "
       << (obs::TraceLog::instance().enabled() ? "true" : "false")
       << ",\n\"trace_tid\": " << obs::threadTag() << ",\n\"measures\": {";
    bool first = true;
    for (const auto &[name, v] : measures) {
        os << (first ? "\n  " : ",\n  ") << "\"" << name << "\": ";
        obs::jsonNumber(os, v);
        first = false;
    }
    os << "\n},\n\"histograms\": {";
    first = true;
    obs::StatRegistry::instance().forEachHistogram(
        [&](const std::string &name, const obs::Histogram &h) {
            os << (first ? "\n  " : ",\n  ") << "\"" << name
               << "\": {\"count\": " << h.count() << ", \"mean\": ";
            obs::jsonNumber(os, h.mean());
            os << ", \"p50\": " << h.percentile(50)
               << ", \"p95\": " << h.percentile(95)
               << ", \"p99\": " << h.percentile(99) << "}";
            first = false;
        });
    os << "\n},\n\"calls\": [";
    for (size_t i = 0; i < rec.calls().size(); ++i) {
        const Call &c = rec.calls()[i];
        os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << c.name
           << "\", \"parent\": " << c.parent << ", \"start_ns\": "
           << c.startNs << ", \"end_ns\": " << c.endNs
           << ",\n   \"before\": ";
        writeCounters(os, c.before);
        os << ",\n   \"after\": ";
        writeCounters(os, c.after);
        os << "}";
    }
    os << "\n],\n\"items\": {";
    for (size_t i = 0; i < items.size(); ++i)
        os << (i ? ",\n  " : "\n  ") << "\""
           << obs::jsonEscape(items[i].first) << "\": \""
           << obs::jsonEscape(items[i].second) << "\"";
    os << "\n}\n}\n";
    os.flush();
    if (!os)
        fatal("short write to '", path, "'");
}

/**
 * Peak RSS of this process image in KiB. VmHWM starts afresh at exec;
 * getrusage's ru_maxrss for the process itself would keep the peak of
 * the process that spawned the driver.
 */
long
selfPeakRssKb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtol(line.c_str() + 6, nullptr, 10);
    fatal("no VmHWM in /proc/self/status");
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: psca_benchmark --workload "
                 "repro_cold|repro_warm|serve_shift|fleet_cold\n"
                 "                      --seed S --out results.json "
                 "[--setups K] [--psca PATH]\n");
    return 2;
}

int
run(int argc, char **argv)
{
    std::string workload, out, psca;
    uint64_t seed = 1;
    int setups = 1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--workload")
            workload = argv[i + 1];
        else if (flag == "--seed")
            seed = std::strtoull(argv[i + 1], nullptr, 10);
        else if (flag == "--out")
            out = argv[i + 1];
        else if (flag == "--setups")
            setups = std::atoi(argv[i + 1]);
        else if (flag == "--psca")
            psca = argv[i + 1];
        else
            return usage();
    }
    if (out.empty() || setups < 1 || setups > 100)
        return usage();

    const fs::path run_dir = fs::absolute(fs::path(out)).parent_path();
    const fs::path cache = fs::absolute(cacheDirectory());
    Recorder rec;
    Items items;
    std::map<std::string, double> measures;
    if (workload == "repro_cold" || workload == "repro_warm") {
        runRepro(rec, seed, setups, run_dir, items, measures);
    } else if (workload == "serve_shift" && setups == 1) {
        runServe(rec, seed, run_dir, items, measures);
    } else if (workload == "fleet_cold" && !psca.empty() && setups == 1) {
        runFleet(rec, psca, cache, items, measures);
    } else {
        return usage();
    }

    // Peak RSS of this process and of the largest child it (or its
    // children) waited for, in KiB.
    rusage kids{};
    getrusage(RUSAGE_CHILDREN, &kids);
    measures["peak_rss_kb"] =
        static_cast<double>(std::max(selfPeakRssKb(), kids.ru_maxrss));
    writeResults(out, workload, seed, rec, items, measures);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return runner::guardedMain([argc, argv] { return run(argc, argv); });
}
