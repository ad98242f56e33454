/**
 * @file
 * Tests for the online adaptation service (src/serve): the versioned
 * firmware rollback ring's publish/rollback/retention and crash
 * windows (fork-and-SIGKILL between stage and commit), the drift
 * detector's z-statistics and trip-rate trending, the full lifecycle
 * cycle HEALTHY -> DRIFTING -> RETRAINING -> SHADOWING -> PROMOTING
 * -> HEALTHY on a planted distribution shift, same-seed determinism
 * of the lifecycle transition sequence, the schedule trie's
 * byte-identity to a run that replays every pass, fail-safe
 * behaviour under every serve.* fault site, and the /health +
 * /events?since HTTP surface.
 *
 * Fork discipline (same as test_runner.cc): children _exit() and the
 * parent never touches the ThreadPool/SimMemo/Journal singletons from
 * a forked context.
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.hh"
#include "common/journal.hh"
#include "common/parallel.hh"
#include "common/serialize.hh"
#include "obs/events.hh"
#include "obs/http.hh"
#include "obs/stats.hh"
#include "serve/drift.hh"
#include "serve/ring.hh"
#include "serve/service.hh"
#include "sim/memo.hh"
#include "trace/genome.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;
using namespace psca::serve;

namespace {

/** Directories the running test made; ServeFixture removes them. */
std::vector<std::string> g_testDirs;

/** An empty temp directory, kept after the test only if it failed. */
std::string
freshDir(const std::string &name)
{
    const std::string dir =
        std::filesystem::temp_directory_path().string() +
        "/psca_serve_test_" + std::to_string(::getpid()) + "_" + name;
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    std::filesystem::create_directories(dir);
    g_testDirs.push_back(dir);
    return dir;
}

std::string
readAll(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    std::ostringstream s;
    s << f.rdbuf();
    return s.str();
}

/**
 * Every ServeOutcome field as text, ppwGainPct by its bit pattern, so
 * parseOutcome() restores an exact copy.
 */
std::string
outcomeText(const ServeOutcome &o)
{
    std::ostringstream s;
    s << o.blocks << ' ' << o.driftsDetected << ' ' << o.retrains << ' '
      << o.retrainFailures << ' ' << o.shadowsScored << ' '
      << o.promotions << ' ' << o.rejections << ' ' << o.rollbacks
      << ' ' << o.swapFailures << ' ' << o.shadowCorruptions << ' '
      << o.activeVersion << ' ' << std::bit_cast<uint64_t>(o.ppwGainPct)
      << '\n';
    for (const std::string &line : o.lifecycle)
        s << line << '\n';
    return s.str();
}

ServeOutcome
parseOutcome(const std::string &text)
{
    std::istringstream s(text);
    ServeOutcome o;
    uint64_t ppw_bits = 0;
    s >> o.blocks >> o.driftsDetected >> o.retrains >>
        o.retrainFailures >> o.shadowsScored >> o.promotions >>
        o.rejections >> o.rollbacks >> o.swapFailures >>
        o.shadowCorruptions >> o.activeVersion >> ppw_bits;
    o.ppwGainPct = std::bit_cast<double>(ppw_bits);
    std::string line;
    std::getline(s, line);
    while (std::getline(s, line))
        o.lifecycle.push_back(line);
    return o;
}

/** The ring's files (images and manifest) by name, with their bytes. */
std::map<std::string, std::string>
ringFiles(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        const std::string name = e.path().filename().string();
        if (name.starts_with("fw.v") || name == "ring.manifest")
            files[name] = readAll(e.path().string());
    }
    return files;
}

/**
 * Requests a stop when the service logs a lifecycle line containing a
 * needle, once, for the life of the guard: a stop at a deterministic
 * block inside a segment. The sink it installs forwards every event
 * to the process event log, as the one obs installs does, so it stays
 * installed after the guard.
 */
class StopOnEvent
{
  public:
    explicit StopOnEvent(const char *needle)
    {
        needle_.store(needle);
        setEventSink(&sink);
    }
    ~StopOnEvent()
    {
        needle_.store(nullptr);
        clearStopRequest();
    }

  private:
    static void
    sink(const char *category, LogLevel level, const std::string &msg)
    {
        obs::EventLog::instance().log(category, level, msg);
        const char *needle = needle_.load();
        if (needle != nullptr &&
            msg.find(needle) != std::string::npos &&
            needle_.compare_exchange_strong(needle, nullptr))
            requestStop();
    }

    static inline std::atomic<const char *> needle_{nullptr};
};

uint64_t
trieServedBlocks()
{
    return obs::StatRegistry::instance()
        .counter("replay.trie_served_blocks")
        .value();
}

/** A small valid firmware package; @p tag varies the image bytes. */
FirmwarePackage
syntheticPackage(uint32_t tag)
{
    FirmwarePackage pkg;
    pkg.name = "synthetic-v" + std::to_string(tag);
    pkg.granularityInstr = 20000;
    pkg.columns = {0, 1, 2, 3};
    for (FirmwareSlot *slot : {&pkg.high, &pkg.low}) {
        slot->program.numInputs = 4;
        slot->program.mem = {0.25f, 0.5f,
                             static_cast<float>(tag)};
        slot->scaler.mean = {0.0f, 0.0f, 0.0f, 0.0f};
        slot->scaler.invStd = {1.0f, 1.0f, 1.0f, 1.0f};
        slot->threshold = 0.5f + 0.01f * static_cast<float>(tag);
    }
    return pkg;
}

/** Identity scaler: z == input, so test rows speak z directly. */
FeatureScaler
identityScaler(size_t dims)
{
    FeatureScaler s;
    s.mean.assign(dims, 0.0f);
    s.invStd.assign(dims, 1.0f);
    return s;
}

/** Memory-bound pointer chasing: a gate-friendly distribution. */
Workload
memBoundWorkload(uint64_t seed, uint64_t len)
{
    AppGenome g;
    g.name = "serve_membound";
    g.seed = seed;
    PhaseSpec p;
    p.kernel = {.kind = KernelKind::PointerChase,
                .workingSetBytes = 16 << 20,
                .chains = 2};
    p.weight = 1.0;
    p.meanLenInstr = 120e3;
    g.phases = {p};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = g.name;
    return w;
}

/** Compute-bound ILP: the opposite corner of the feature space. */
Workload
ilpWorkload(uint64_t seed, uint64_t len)
{
    AppGenome g;
    g.name = "serve_ilp";
    g.seed = seed;
    PhaseSpec p;
    p.kernel = {.kind = KernelKind::Ilp, .chains = 14};
    p.weight = 1.0;
    p.meanLenInstr = 120e3;
    g.phases = {p};
    Workload w;
    w.genome = g;
    w.inputSeed = 1;
    w.lengthInstr = len;
    w.name = g.name;
    return w;
}

BuildConfig
testBuildConfig()
{
    BuildConfig cfg;
    cfg.intervalInstr = 10000;
    cfg.warmupInstr = 20000;
    cfg.counterIds = defaultCounterIds();
    return cfg;
}

ServeConfig
testServeConfig(const std::string &dir)
{
    ServeConfig cfg;
    cfg.dir = dir;
    cfg.seed = 5;
    cfg.granularityInstr = 20000;
    cfg.forestTrees = 4;
    cfg.forestDepth = 4;
    cfg.driftWindow = 6;
    cfg.driftZ = 2.0;
    cfg.abIntervals = 8;
    cfg.probationIntervals = 8;
    cfg.cooldownBlocks = 8;
    return cfg;
}

/** The standard shift schedule: mem-bound, then compute-bound. */
std::vector<ServeSegment>
shiftSchedule(uint64_t len = 400000)
{
    return {{memBoundWorkload(3, len), 24},
            {ilpWorkload(4, len), 60}};
}

bool
lifecycleContains(const ServeOutcome &out, const std::string &needle)
{
    for (const std::string &line : out.lifecycle)
        if (line.find(needle) != std::string::npos)
            return true;
    return false;
}

class ServeFixture : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultRegistry::instance().configure("", 1);
    }
    void TearDown() override
    {
        FaultRegistry::instance().configure("", 1);
        for (const std::string &dir : g_testDirs) {
            if (HasFailure()) {
                std::fprintf(stderr, "kept %s\n", dir.c_str());
                continue;
            }
            std::error_code ec;
            std::filesystem::remove_all(dir, ec);
        }
        g_testDirs.clear();
    }
};

using RingTest = ServeFixture;
using DriftTest = ServeFixture;
using ServiceTest = ServeFixture;

} // namespace

TEST_F(RingTest, PromoteRollbackRetention)
{
    const std::string dir = freshDir("ring_basic");
    FirmwareRing ring(dir, /*keep=*/3);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.activeVersion(), 0u);

    for (uint32_t tag = 1; tag <= 5; ++tag) {
        const uint32_t v = ring.promote(syntheticPackage(tag));
        EXPECT_EQ(v, tag);
        EXPECT_EQ(ring.activeVersion(), tag);
        EXPECT_TRUE(ring.verifyAll());
    }
    // keep=3: v1 and v2 pruned, their image files gone.
    EXPECT_EQ(ring.size(), 3u);
    EXPECT_FALSE(std::filesystem::exists(ring.imagePath(1)));
    EXPECT_FALSE(std::filesystem::exists(ring.imagePath(2)));
    EXPECT_TRUE(std::filesystem::exists(ring.imagePath(5)));

    // Rollback repoints the manifest; image bytes are untouched.
    const std::string v4_bytes = readAll(ring.imagePath(4));
    EXPECT_EQ(ring.previousVersion(5), 4u);
    EXPECT_TRUE(ring.rollbackTo(4));
    EXPECT_EQ(ring.activeVersion(), 4u);
    EXPECT_TRUE(ring.verifyImage(4));
    EXPECT_EQ(readAll(ring.imagePath(4)), v4_bytes);

    // A reopened ring sees the same state (manifest replay).
    FirmwareRing reopened(dir, 3);
    EXPECT_EQ(reopened.activeVersion(), 4u);
    EXPECT_EQ(reopened.size(), 3u);
    FirmwarePackage pkg;
    uint32_t v = 0;
    EXPECT_TRUE(reopened.loadActive(pkg, v));
    EXPECT_EQ(v, 4u);
    EXPECT_EQ(pkg.name, "synthetic-v4");

    // Rolling back to a pruned version must refuse.
    EXPECT_FALSE(ring.rollbackTo(1));
    EXPECT_EQ(ring.activeVersion(), 4u);
}

TEST_F(RingTest, CrashBetweenStageAndCommitPublishesNothing)
{
    const std::string dir = freshDir("ring_crash");
    {
        FirmwareRing setup(dir, 4);
        ASSERT_EQ(setup.promote(syntheticPackage(1)), 1u);
    }
    const std::string v1_bytes =
        readAll(dir + "/fw.v1.bin");

    // Child stages v2 (image + manifest written to temp names) and
    // SIGKILLs itself before the commit renames.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        FirmwareRing ring(dir, 4);
        ring.setPromoteHook([] { ::raise(SIGKILL); });
        ring.promote(syntheticPackage(2));
        ::_exit(1); // unreachable
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Nothing torn or mixed: the ring still serves v1, byte-exact.
    FirmwareRing ring(dir, 4);
    EXPECT_EQ(ring.activeVersion(), 1u);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_TRUE(ring.verifyAll());
    EXPECT_FALSE(std::filesystem::exists(dir + "/fw.v2.bin"));
    FirmwarePackage pkg;
    uint32_t v = 0;
    ASSERT_TRUE(ring.loadActive(pkg, v));
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(readAll(dir + "/fw.v1.bin"), v1_bytes);
}

TEST_F(RingTest, CrashBetweenCommitRenamesLeavesOldManifestValid)
{
    // Simulate the worst prefix-commit window: the image rename
    // landed (stage order puts it first) but the process died before
    // the manifest rename. The new image exists under its final name
    // yet the old manifest never references it.
    const std::string dir = freshDir("ring_prefix");
    {
        FirmwareRing setup(dir, 4);
        ASSERT_EQ(setup.promote(syntheticPackage(1)), 1u);
    }
    {
        BinaryWriter out(dir + "/fw.v2.bin");
        syntheticPackage(2).write(out);
    }

    FirmwareRing ring(dir, 4);
    EXPECT_EQ(ring.activeVersion(), 1u);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_TRUE(ring.verifyAll());
    FirmwarePackage pkg;
    uint32_t v = 0;
    ASSERT_TRUE(ring.loadActive(pkg, v));
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(pkg.name, "synthetic-v1");
}

TEST_F(RingTest, InjectedSwapCrashLeavesRingUnchanged)
{
    const std::string dir = freshDir("ring_swapfault");
    FirmwareRing ring(dir, 4);
    ASSERT_EQ(ring.promote(syntheticPackage(1)), 1u);
    const std::string manifest_bytes = readAll(ring.manifestPath());

    FaultRegistry::instance().configure("serve.swap_crash:1", 7);
    EXPECT_EQ(ring.promote(syntheticPackage(2)), 0u);
    EXPECT_EQ(ring.activeVersion(), 1u);
    EXPECT_EQ(ring.size(), 1u);
    EXPECT_EQ(readAll(ring.manifestPath()), manifest_bytes);
    EXPECT_TRUE(ring.verifyAll());

    // Disarmed, the same promote succeeds.
    FaultRegistry::instance().configure("", 7);
    EXPECT_EQ(ring.promote(syntheticPackage(2)), 2u);
    EXPECT_TRUE(ring.verifyAll());
}

TEST_F(RingTest, CorruptActiveImageWalksBackToVerifiedVersion)
{
    const std::string dir = freshDir("ring_walkback");
    FirmwareRing ring(dir, 4);
    ASSERT_EQ(ring.promote(syntheticPackage(1)), 1u);
    ASSERT_EQ(ring.promote(syntheticPackage(2)), 2u);
    ASSERT_EQ(ring.promote(syntheticPackage(3)), 3u);
    const std::string v1_bytes = readAll(ring.imagePath(1));

    // Flip a byte in the active image.
    {
        std::fstream f(ring.imagePath(3),
                       std::ios::in | std::ios::out |
                           std::ios::binary);
        f.seekp(12);
        char c = 0;
        f.read(&c, 1);
        f.seekp(12);
        c = static_cast<char>(c ^ 0x5a);
        f.write(&c, 1);
    }
    // One byte appended after the trailer of the version before it.
    std::ofstream(ring.imagePath(2), std::ios::binary | std::ios::app)
        << 'x';
    const std::string v3_bytes = readAll(ring.imagePath(3));
    const std::string v2_bytes = readAll(ring.imagePath(2));

    FirmwarePackage pkg;
    uint32_t v = 0;
    ASSERT_TRUE(ring.loadActive(pkg, v));
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(pkg.name, "synthetic-v1");
    EXPECT_EQ(ring.activeVersion(), 1u);
    EXPECT_EQ(readAll(ring.imagePath(1)), v1_bytes);

    // Images are never rebuilt, so the walk-back leaves the damaged
    // ones in place, and they still fail on their own.
    EXPECT_EQ(readAll(ring.imagePath(3)), v3_bytes);
    EXPECT_EQ(readAll(ring.imagePath(2)), v2_bytes);
    EXPECT_FALSE(ring.verifyImage(3));
    EXPECT_FALSE(ring.verifyImage(2));
}

TEST_F(RingTest, UnscorableFixedPointImageWalksBack)
{
    // A fixed-point image whose tables this build cannot score (tag 2
    // marked an int8 MLP) passes every byte check, so only the load's
    // unpack check keeps VmPredictor from aborting the service on it.
    const std::string dir = freshDir("ring_unscorable");
    FirmwareRing ring(dir, 4);
    ASSERT_EQ(ring.promote(syntheticPackage(1)), 1u);
    FirmwarePackage bad = syntheticPackage(2);
    bad.fixedPoint = true;
    bad.high.quantPayload = bad.low.quantPayload = std::string(1, '\x02');
    ASSERT_EQ(ring.promote(bad), 2u);

    auto &reg = obs::StatRegistry::instance();
    const uint64_t recoveries0 =
        reg.counter("serve.ring_recoveries").value();
    FirmwarePackage pkg;
    uint32_t v = 0;
    ASSERT_TRUE(ring.loadActive(pkg, v));
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(pkg.name, "synthetic-v1");
    EXPECT_EQ(ring.activeVersion(), 1u);
    EXPECT_EQ(reg.counter("serve.ring_recoveries").value() - recoveries0,
              1u);
    EXPECT_FALSE(ring.verifyImage(2));
}

TEST_F(RingTest, CorruptManifestIsQuarantinedAndRingReopensEmpty)
{
    const std::string dir = freshDir("ring_manifest");
    std::string manifest;
    {
        FirmwareRing ring(dir, 4);
        ASSERT_EQ(ring.promote(syntheticPackage(1)), 1u);
        ASSERT_EQ(ring.promote(syntheticPackage(2)), 2u);
        manifest = ring.manifestPath();
    }
    // Flip a byte of the active-version field (after the 12-byte
    // header).
    {
        std::fstream f(manifest, std::ios::in | std::ios::out |
                                     std::ios::binary);
        f.seekg(12);
        char c = 0;
        f.read(&c, 1);
        f.seekp(12);
        c = static_cast<char>(c ^ 0x5a);
        f.write(&c, 1);
    }
    FirmwareRing ring(dir, 4);
    EXPECT_TRUE(ring.empty());
    EXPECT_EQ(ring.activeVersion(), 0u);
    EXPECT_TRUE(std::filesystem::exists(manifest + ".quarantined"));
    EXPECT_FALSE(std::filesystem::exists(manifest));
    FirmwarePackage pkg;
    uint32_t v = 0;
    EXPECT_FALSE(ring.loadActive(pkg, v));
}

TEST_F(DriftTest, StableDistributionDoesNotDrift)
{
    DriftDetector det(DriftConfig{4, 3.0, 16.0, 4.0, 0.25});
    det.setReference(identityScaler(2), identityScaler(2), 2);
    const std::vector<float> row{0.5f, -0.5f};
    for (int i = 0; i < 8; ++i)
        det.observe(row, CoreMode::HighPerf, 0);
    ASSERT_TRUE(det.windowComplete());
    DriftVerdict v = det.takeWindow();
    EXPECT_FALSE(v.drifted);
    EXPECT_NEAR(v.maxAbsMeanZ, 0.5, 1e-6);
}

TEST_F(DriftTest, MeanShiftInScalerUnitsDrifts)
{
    DriftDetector det(DriftConfig{4, 3.0, 16.0, 4.0, 0.25});
    det.setReference(identityScaler(2), identityScaler(2), 2);
    const std::vector<float> shifted{0.0f, 5.0f};
    for (int i = 0; i < 4; ++i)
        det.observe(shifted, CoreMode::LowPower, 0);
    DriftVerdict v = det.takeWindow();
    EXPECT_TRUE(v.drifted);
    EXPECT_EQ(v.reason, "feature mean shift");
    EXPECT_EQ(v.worstFeature, 1u);
    EXPECT_NEAR(v.maxAbsMeanZ, 5.0, 1e-6);
}

TEST_F(DriftTest, TripRateTrendDriftsAfterBaselineWindow)
{
    DriftDetector det(DriftConfig{4, 3.0, 16.0, 4.0, 0.25});
    det.setReference(identityScaler(1), identityScaler(1), 1);
    const std::vector<float> calm{0.0f};

    // First window: high trip rate, but it only sets the baseline.
    for (int i = 0; i < 4; ++i)
        det.observe(calm, CoreMode::HighPerf, 1);
    DriftVerdict first = det.takeWindow();
    EXPECT_FALSE(first.drifted);
    EXPECT_NEAR(first.tripRate, 1.0, 1e-9);

    // Second window at the same rate: no trend, no drift.
    for (int i = 0; i < 4; ++i)
        det.observe(calm, CoreMode::HighPerf, 1);
    EXPECT_FALSE(det.takeWindow().drifted);

    // Re-reference with a calm baseline, then spike the rate.
    det.setReference(identityScaler(1), identityScaler(1), 1);
    for (int i = 0; i < 4; ++i)
        det.observe(calm, CoreMode::HighPerf, 0);
    EXPECT_FALSE(det.takeWindow().drifted);
    for (int i = 0; i < 4; ++i)
        det.observe(calm, CoreMode::HighPerf, 2);
    DriftVerdict spiked = det.takeWindow();
    EXPECT_TRUE(spiked.drifted);
    EXPECT_EQ(spiked.reason, "guardrail trip-rate trend");
}

TEST_F(DriftTest, NonFiniteInputsAreNeutralized)
{
    DriftDetector det(DriftConfig{2, 3.0, 16.0, 4.0, 0.25});
    det.setReference(identityScaler(1), identityScaler(1), 1);
    const std::vector<float> bad{
        std::numeric_limits<float>::quiet_NaN()};
    det.observe(bad, CoreMode::HighPerf, 0);
    det.observe(bad, CoreMode::HighPerf, 0);
    DriftVerdict v = det.takeWindow();
    EXPECT_FALSE(v.drifted);
    EXPECT_EQ(v.maxAbsMeanZ, 0.0);
}

TEST_F(ServiceTest, FullLifecycleCycleOnDistributionShift)
{
    const std::string dir = freshDir("svc_cycle");
    Service service(testServeConfig(dir), testBuildConfig(),
                    shiftSchedule());
    const ServeOutcome &out = service.run();

    EXPECT_GE(out.driftsDetected, 1u);
    EXPECT_GE(out.retrains, 2u); // bootstrap + at least one drift
    EXPECT_GE(out.shadowsScored, 8u);
    EXPECT_GE(out.promotions, 1u);
    EXPECT_EQ(out.rollbacks, 0u) << "fault-free run must not roll back";
    EXPECT_EQ(out.retrainFailures, 0u);
    EXPECT_EQ(out.swapFailures, 0u);
    EXPECT_GE(out.activeVersion, 2u);

    EXPECT_TRUE(lifecycleContains(out, "HEALTHY->DRIFTING"));
    EXPECT_TRUE(lifecycleContains(out, "DRIFTING->RETRAINING"));
    EXPECT_TRUE(lifecycleContains(out, "RETRAINING->SHADOWING"));
    EXPECT_TRUE(lifecycleContains(out, "SHADOWING->PROMOTING"));
    EXPECT_TRUE(lifecycleContains(out, "probation passed"));
    EXPECT_TRUE(service.ring().verifyAll());

    // The lifecycle artifact matches the in-memory sequence.
    const std::string artifact = readAll(dir + "/lifecycle.txt");
    std::string expect;
    for (const std::string &line : out.lifecycle)
        expect += line + "\n";
    EXPECT_EQ(artifact, expect);
}

TEST_F(ServiceTest, SameSeedRunsAreByteIdentical)
{
    const std::string dir_a = freshDir("svc_det_a");
    const std::string dir_b = freshDir("svc_det_b");

    Service a(testServeConfig(dir_a), testBuildConfig(),
              shiftSchedule());
    const ServeOutcome out_a = a.run();
    Service b(testServeConfig(dir_b), testBuildConfig(),
              shiftSchedule());
    const ServeOutcome out_b = b.run();

    ASSERT_EQ(out_a.lifecycle.size(), out_b.lifecycle.size());
    for (size_t i = 0; i < out_a.lifecycle.size(); ++i)
        EXPECT_EQ(out_a.lifecycle[i], out_b.lifecycle[i]) << i;
    EXPECT_EQ(out_a.activeVersion, out_b.activeVersion);
    EXPECT_EQ(readAll(dir_a + "/lifecycle.txt"),
              readAll(dir_b + "/lifecycle.txt"));
    EXPECT_EQ(
        readAll(a.ring().imagePath(out_a.activeVersion)),
        readAll(b.ring().imagePath(out_b.activeVersion)));
}

TEST_F(ServiceTest, ScheduleTrieMatchesMemoOffRun)
{
    // The memo singleton latches PSCA_SIM_MEMO at first use, so the
    // run with the memo off, which replays every pass, goes to a
    // fresh process. That process re-executes this test with another
    // pid, so the directory it writes to is named without one, and it
    // exits before this test makes its own.
    const std::string dir_off =
        std::filesystem::temp_directory_path().string() +
        "/psca_serve_test_trie_memo_off";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("PSCA_SIM_MEMO", "0", 1);
            std::filesystem::remove_all(dir_off);
            std::filesystem::create_directories(dir_off);
            Service off(testServeConfig(dir_off), testBuildConfig(),
                        shiftSchedule());
            std::ofstream(dir_off + "/outcome.txt")
                << outcomeText(off.run());
            std::exit(!SimMemo::instance().enabled() &&
                              trieServedBlocks() == 0
                          ? 0
                          : 1);
        },
        ::testing::ExitedWithCode(0), "");
    g_testDirs.push_back(dir_off);

    const std::string dir_on = freshDir("svc_trie_on");
    const uint64_t served0 = trieServedBlocks();
    Service on(testServeConfig(dir_on), testBuildConfig(),
               shiftSchedule());
    const ServeOutcome a = on.run();
    EXPECT_GT(trieServedBlocks() - served0, 0u);

    const ServeOutcome b = parseOutcome(readAll(dir_off + "/outcome.txt"));
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.driftsDetected, b.driftsDetected);
    EXPECT_EQ(a.retrains, b.retrains);
    EXPECT_EQ(a.retrainFailures, b.retrainFailures);
    EXPECT_EQ(a.shadowsScored, b.shadowsScored);
    EXPECT_EQ(a.promotions, b.promotions);
    EXPECT_EQ(a.rejections, b.rejections);
    EXPECT_EQ(a.rollbacks, b.rollbacks);
    EXPECT_EQ(a.swapFailures, b.swapFailures);
    EXPECT_EQ(a.shadowCorruptions, b.shadowCorruptions);
    EXPECT_EQ(a.activeVersion, b.activeVersion);
    EXPECT_EQ(a.ppwGainPct, b.ppwGainPct);
    EXPECT_EQ(a.lifecycle, b.lifecycle);
    EXPECT_EQ(readAll(dir_on + "/lifecycle.txt"),
              readAll(dir_off + "/lifecycle.txt"));
    const auto ring = ringFiles(dir_on);
    EXPECT_TRUE(ring.count("ring.manifest"));
    EXPECT_EQ(ring, ringFiles(dir_off));
}

TEST_F(ServiceTest, StopsAndShortSegmentsSettleLikeMemoOffRun)
{
    // A stop one block into a pass and a one-block segment both leave
    // a pass on the walker's spine with owed accounting, which
    // finishRun() and the next segment must settle. So does a stop
    // requested mid-segment while the next segment is being recorded:
    // the promotion at b=37 falls in segment 2, whose successor is
    // inside the budget. And a stop requested as segment 1 is entered
    // (b=24) lands before its first block, with both of segment 2's
    // mode passes in flight. The PPW gain at every stop must equal a
    // run that replays every pass (memo off, in a fresh process as
    // above).
    std::vector<ServeSegment> schedule = shiftSchedule();
    schedule.insert(schedule.begin() + 1, {ilpWorkload(4, 400000), 1});
    schedule.push_back({memBoundWorkload(3, 400000), 12});
    const auto gains = [&](const std::string &dir) {
        Service service(testServeConfig(dir), testBuildConfig(), schedule);
        std::string bits;
        const auto gain = [&](uint64_t stop) {
            bits += std::to_string(std::bit_cast<uint64_t>(
                        service.run(stop).ppwGainPct)) +
                " ";
        };
        gain(1);
        {
            StopOnEvent stop("SEGMENT 1");
            gain(0);
        }
        gain(26);
        {
            StopOnEvent stop("SHADOWING->PROMOTING");
            gain(0);
        }
        gain(0);
        return bits;
    };
    const std::string dir_off =
        std::filesystem::temp_directory_path().string() +
        "/psca_serve_test_settle_memo_off";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            setenv("PSCA_SIM_MEMO", "0", 1);
            std::filesystem::remove_all(dir_off);
            std::filesystem::create_directories(dir_off);
            std::ofstream(dir_off + "/gains.txt") << gains(dir_off);
            std::exit(SimMemo::instance().enabled() ? 1 : 0);
        },
        ::testing::ExitedWithCode(0), "");
    g_testDirs.push_back(dir_off);

    auto &reg = obs::StatRegistry::instance();
    const uint64_t settles0 = reg.counter("replay.memo_settles").value();
    const uint64_t traces0 = reg.counter("record.traces").value();
    const std::string dir_on = freshDir("svc_settle_on");
    EXPECT_EQ(gains(dir_on), readAll(dir_off + "/gains.txt"));
    EXPECT_GE(reg.counter("replay.memo_settles").value() - settles0, 2u);
    // Each stop landed where it was requested (the promotion's one a
    // block after it), and the segments recorded beside the stopped
    // runs were entered on resume, not recorded again.
    const std::string lifecycle = readAll(dir_on + "/lifecycle.txt");
    EXPECT_NE(lifecycle.find("b=24 STOP requested"), std::string::npos);
    EXPECT_NE(lifecycle.find("b=38 STOP requested"), std::string::npos);
    EXPECT_EQ(reg.counter("record.traces").value() - traces0,
              schedule.size());
}

TEST_F(ServiceTest, ResumedRunsKeepTheLifecycleOfOneRun)
{
    // A run resumed in the same process keeps its drift window and
    // guardrail, so where it was stopped does not move a transition:
    // runs whose block budgets stop them at b=24 and b=32 (no STOP
    // line) give the lifecycle and ring of one run without stops.
    std::vector<ServeSegment> schedule = shiftSchedule();
    schedule.insert(schedule.begin() + 1, {ilpWorkload(4, 400000), 1});
    schedule.push_back({memBoundWorkload(3, 400000), 12});
    const auto lifecycle = [&](const std::string &dir,
                               std::vector<uint64_t> stops) {
        Service service(testServeConfig(dir), testBuildConfig(), schedule);
        stops.push_back(0);
        for (const uint64_t stop : stops)
            service.run(stop);
        return readAll(dir + "/lifecycle.txt");
    };
    const std::string dir_once = freshDir("svc_resume_once");
    const std::string dir_stopped = freshDir("svc_resume_stopped");
    const std::string once = lifecycle(dir_once, {});
    EXPECT_NE(once.find("PROMOTING"), std::string::npos);
    EXPECT_EQ(lifecycle(dir_stopped, {24, 32}), once);
    EXPECT_EQ(ringFiles(dir_stopped), ringFiles(dir_once));
}

TEST_F(ServiceTest, RecordsOnlyTheSegmentsARunEnters)
{
    // The next segment is recorded beside the current one only when
    // the block budget outlasts the current one: a run that ends inside
    // a segment, or at its last block, wastes no recording.
    auto &reg = obs::StatRegistry::instance();
    const uint64_t traces0 = reg.counter("record.traces").value();
    const auto traces = [&] {
        return reg.counter("record.traces").value() - traces0;
    };
    Service service(testServeConfig(freshDir("svc_budget")),
                    testBuildConfig(), shiftSchedule());
    EXPECT_EQ(service.run(12).blocks, 12u);
    EXPECT_EQ(traces(), 1u);
    EXPECT_EQ(service.run(24).blocks, 24u);
    EXPECT_EQ(traces(), 1u);
    EXPECT_EQ(service.run(30).blocks, 30u);
    EXPECT_EQ(traces(), 2u);
    EXPECT_EQ(service.run(0).blocks, 84u);
    EXPECT_EQ(traces(), 2u);
}

TEST_F(ServiceTest, PipelinedSegmentsMatchAcrossThreadCounts)
{
    // Serving a segment while the next one's two mode passes record
    // must not move a byte: one thread runs the three tasks in turn,
    // two let the serving thread take the LowPower pass once its
    // blocks are done (or the recorder take it after its HighPerf
    // pass), four run them side by side.
    std::vector<ServeSegment> schedule = shiftSchedule();
    schedule.push_back({memBoundWorkload(5, 400000), 24});
    const auto serveAt = [&](int threads, const std::string &dir) {
        ThreadPool::configure(threads);
        Service service(testServeConfig(dir), testBuildConfig(),
                        schedule);
        return outcomeText(service.run());
    };
    const std::string dir_1 = freshDir("svc_threads_1");
    const std::string out_1 = serveAt(1, dir_1);
    const auto ring = ringFiles(dir_1);
    EXPECT_NE(out_1.find("SEGMENT 2"), std::string::npos);
    EXPECT_TRUE(ring.count("ring.manifest"));
    for (int threads : {2, 4}) {
        const std::string dir =
            freshDir("svc_threads_" + std::to_string(threads));
        EXPECT_EQ(serveAt(threads, dir), out_1) << threads;
        EXPECT_EQ(readAll(dir_1 + "/lifecycle.txt"),
                  readAll(dir + "/lifecycle.txt"))
            << threads;
        EXPECT_EQ(ringFiles(dir), ring) << threads;
    }
    ThreadPool::configure(parallelThreadCount());
}

TEST_F(ServiceTest, SegmentHashesItsTraceOnce)
{
    // `psca serve --schedule media:7:48,hpc:2:48`: both segments'
    // walkers settle owed spine blocks from the memo, whose key reuses
    // the trace hash the segment's recording took. Two records, two
    // hash passes, not four.
    std::vector<ServeSegment> schedule;
    for (const auto &[cat, seed] :
         {std::pair{AppCategory::Multimedia, 7},
          std::pair{AppCategory::HpcPerf, 2}})
    {
        ServeSegment seg;
        seg.workload.genome = sampleGenome(cat, seed);
        seg.workload.inputSeed = 1;
        seg.workload.lengthInstr = 240000;
        seg.workload.name = seg.workload.genome.name;
        seg.blocks = 48;
        schedule.push_back(std::move(seg));
    }
    ServeConfig cfg;
    cfg.dir = freshDir("svc_hash_once");
    BuildConfig build;
    build.counterIds = defaultCounterIds();

    auto &reg = obs::StatRegistry::instance();
    const uint64_t traces0 = reg.counter("record.traces").value();
    const uint64_t passes0 =
        reg.counter("record.trace_hash_passes").value();
    const uint64_t settles0 = reg.counter("replay.memo_settles").value();
    Service service(cfg, build, std::move(schedule));
    service.run();
    EXPECT_EQ(reg.counter("record.traces").value() - traces0, 2u);
    EXPECT_GE(reg.counter("replay.memo_settles").value() - settles0, 2u);
    EXPECT_EQ(reg.counter("record.trace_hash_passes").value() - passes0,
              2u);
}

TEST_F(ServiceTest, RetrainFailureFailsSafeToActiveFirmware)
{
    const std::string dir = freshDir("svc_retrainfail");
    // Ordinal 1 is the first post-bootstrap retrain (bootstrap is
    // ordinal 0 and must succeed for the service to come up).
    FaultRegistry::instance().configure("serve.retrain_fail:1", 11);
    // serve.retrain_fail at rate 1 would also kill the bootstrap
    // train; it is checked only on the drift path, so bootstrap
    // (which calls trainCandidate directly) still succeeds.
    Service service(testServeConfig(dir), testBuildConfig(),
                    shiftSchedule());
    const ServeOutcome &out = service.run();

    EXPECT_GE(out.driftsDetected, 1u);
    EXPECT_GE(out.retrainFailures, 1u);
    EXPECT_EQ(out.promotions, 0u);
    EXPECT_EQ(out.activeVersion, 1u);
    EXPECT_TRUE(lifecycleContains(out, "retrain failed"));
    EXPECT_TRUE(service.ring().verifyAll());
    FirmwarePackage pkg;
    uint32_t v = 0;
    FirmwareRing reopened(dir, 4);
    ASSERT_TRUE(reopened.loadActive(pkg, v));
    EXPECT_EQ(v, 1u);
}

TEST_F(ServiceTest, ShadowCorruptionRejectsCandidate)
{
    const std::string dir = freshDir("svc_shadowcorrupt");
    FaultRegistry::instance().configure("serve.shadow_corrupt:1", 13);
    Service service(testServeConfig(dir), testBuildConfig(),
                    shiftSchedule());
    const ServeOutcome &out = service.run();

    EXPECT_GE(out.shadowCorruptions, 1u);
    EXPECT_EQ(out.promotions, 0u);
    EXPECT_GE(out.rejections, 1u);
    EXPECT_EQ(out.activeVersion, 1u);
    EXPECT_TRUE(lifecycleContains(out, "corrupt"));
    EXPECT_TRUE(service.ring().verifyAll());
}

TEST_F(ServiceTest, MidSwapCrashKeepsServingLastGoodFirmware)
{
    const std::string dir = freshDir("svc_swapcrash");
    // Bootstrap fault-free so v1 exists, then resume with the swap
    // site armed: the drift-triggered promotion dies mid-transaction
    // and the service keeps serving v1.
    {
        Service bootstrap_only(testServeConfig(dir),
                               testBuildConfig(), shiftSchedule());
        bootstrap_only.run(/*max_blocks=*/1);
    }
    const std::string v1_bytes = readAll(dir + "/fw.v1.bin");
    ASSERT_FALSE(v1_bytes.empty());

    FaultRegistry::instance().configure("serve.swap_crash:1", 17);
    Service service(testServeConfig(dir), testBuildConfig(),
                    shiftSchedule());
    const ServeOutcome &out = service.run();

    EXPECT_GE(out.swapFailures, 1u);
    EXPECT_EQ(out.promotions, 0u);
    EXPECT_EQ(out.activeVersion, 1u);
    EXPECT_TRUE(lifecycleContains(out, "swap failed"));
    EXPECT_TRUE(service.ring().verifyAll());
    EXPECT_EQ(readAll(dir + "/fw.v1.bin"), v1_bytes);
}

TEST_F(ServiceTest, ProbationRegressionRollsBackByteIdentical)
{
    const std::string dir = freshDir("svc_probation");
    // Every probation block gains 50 synthetic guardrail trips: any
    // promoted candidate regresses immediately.
    FaultRegistry::instance().configure(
        "serve.probation_regress:1:50", 19);
    Service service(testServeConfig(dir), testBuildConfig(),
                    shiftSchedule());
    const ServeOutcome &out = service.run();

    EXPECT_GE(out.promotions, 1u);
    EXPECT_GE(out.rollbacks, 1u);
    EXPECT_EQ(out.activeVersion, 1u)
        << "service must converge back to the pre-swap firmware";
    EXPECT_TRUE(lifecycleContains(out, "PROMOTING->ROLLED_BACK"));
    EXPECT_TRUE(lifecycleContains(out, "rollback to v1 verified"));
    EXPECT_TRUE(service.ring().verifyAll());

    // The restored image is byte-identical to the original v1.
    FirmwareRing reopened(dir, 4);
    FirmwarePackage pkg;
    uint32_t v = 0;
    ASSERT_TRUE(reopened.loadActive(pkg, v));
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(reopened.imageChecksum(1),
              reopened.imageChecksum(reopened.activeVersion()));
}

TEST_F(ServiceTest, HealthAndIncrementalEventsOverHttp)
{
    const std::string dir = freshDir("svc_http");
    obs::HttpServer &server = obs::HttpServer::instance();
    ASSERT_TRUE(server.start(0));
    const int port = server.port();

    // No service yet: /health reports idle.
    EXPECT_NE(httpGet(port, "/health").find("\"state\": \"idle\""),
              std::string::npos);

    Service service(testServeConfig(dir), testBuildConfig(),
                    shiftSchedule());
    service.run(/*max_blocks=*/4);

    const std::string health = httpGet(port, "/health");
    EXPECT_NE(health.find("200 OK"), std::string::npos);
    EXPECT_NE(health.find("\"state\": \"HEALTHY\""),
              std::string::npos);
    EXPECT_NE(health.find("\"active_version\": 1"),
              std::string::npos);

    // Incremental event polling: ?since past the tail returns an
    // empty list, a full fetch does not.
    const std::string all = httpGet(port, "/events");
    EXPECT_NE(all.find("\"serve\""), std::string::npos);
    const std::string none =
        httpGet(port, "/events?since=999999999");
    EXPECT_EQ(none.find("\"serve\""), std::string::npos);
    EXPECT_NE(none.find("200 OK"), std::string::npos);

    server.stop();
}

TEST_F(ServiceTest, DisabledLifecycleServesBootstrapForever)
{
    const std::string dir = freshDir("svc_disabled");
    ServeConfig cfg = testServeConfig(dir);
    cfg.lifecycle = false;
    obs::StatRegistry::instance().reset();
    Service service(cfg, testBuildConfig(), shiftSchedule());
    const ServeOutcome &out = service.run();

    EXPECT_EQ(out.driftsDetected, 0u);
    EXPECT_EQ(out.promotions, 0u);
    EXPECT_EQ(out.rollbacks, 0u);
    EXPECT_EQ(out.activeVersion, 1u);
    EXPECT_GT(out.blocks, 0u);

    // The switch gates only the verdict: no state transition is
    // logged, but the drift windows and gauges still move.
    EXPECT_FALSE(lifecycleContains(out, "->"));
    const obs::Counter *windows =
        obs::StatRegistry::instance().findCounter("serve.drift_windows");
    ASSERT_NE(windows, nullptr);
    EXPECT_GT(windows->value(), 0u);
    double max_z = 0.0;
    obs::StatRegistry::instance().forEachGauge(
        [&max_z](const std::string &name, double v) {
            if (name == "drift.max_abs_mean_z")
                max_z = v;
        });
    EXPECT_GT(max_z, 0.0);
}
