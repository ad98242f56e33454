/**
 * @file
 * Distribution-layer tests (DESIGN.md §13): protocol frame
 * round-trip and corruption/oversize rejection over a socketpair,
 * fleet byte-identity (a coordinator + 4 workers produce the same
 * corpus cache and result artifact as a single process), worker-loss
 * recovery (SIGKILL one worker mid-campaign; the campaign completes
 * with units reassigned and artifacts still byte-identical),
 * coordinator crash-resume (SIGKILL the coordinator mid-scope; a
 * replacement replays the journal, the workers rejoin, artifacts
 * still byte-identical), and duplicate-Result idempotency
 * (net.dup_result at rate 1 delivers every Result twice; the
 * coordinator dedupes by unit index).
 *
 * Same fork discipline as test_runner.cc: the parent process never
 * touches the ThreadPool, SimMemo, or Journal singletons — every
 * pipeline runs in a forked child that _exit()s. Fleet children set
 * their PSCA_DIST_* role env vars after the fork, so the parent's
 * environment never arms the distribution layer.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/journal.hh"
#include "core/pipeline.hh"
#include "core/runner.hh"
#include "dist/dist.hh"
#include "dist/protocol.hh"
#include "dist/worker.hh"
#include "obs/report.hh"
#include "telemetry/counters.hh"
#include "trace/genome.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;
using namespace psca::dist;
namespace fs = std::filesystem;

namespace {

// ---- Protocol frames ----------------------------------------------

TEST(DistProtocol, FrameRoundTrip)
{
    int fds[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // A payload with embedded NULs and every byte value.
    std::string payload;
    for (int i = 0; i < 1024; ++i)
        payload.push_back(static_cast<char>(i & 0xff));
    ASSERT_TRUE(sendFrame(fds[0], Msg::Result, payload));
    ASSERT_TRUE(sendFrame(fds[0], Msg::Heartbeat, ""));

    Frame f;
    ASSERT_EQ(recvFrame(fds[1], f), RecvStatus::Ok);
    EXPECT_EQ(f.type, Msg::Result);
    EXPECT_EQ(f.payload, payload);
    ASSERT_EQ(recvFrame(fds[1], f), RecvStatus::Ok);
    EXPECT_EQ(f.type, Msg::Heartbeat);
    EXPECT_TRUE(f.payload.empty());

    // Orderly close is a clean frame boundary.
    close(fds[0]);
    EXPECT_EQ(recvFrame(fds[1], f), RecvStatus::Closed);
    close(fds[1]);
}

/** Raw wire image of one frame, for byte-level tampering. */
std::vector<uint8_t>
rawFrame(Msg type, const std::string &payload)
{
    const uint8_t t = static_cast<uint8_t>(type);
    const uint32_t len = static_cast<uint32_t>(payload.size());
    std::vector<uint8_t> frame(4 + 1 + 4 + payload.size() + 8);
    size_t off = 0;
    std::memcpy(frame.data() + off, &kFrameMagic, 4);
    off += 4;
    frame[off++] = t;
    std::memcpy(frame.data() + off, &len, 4);
    off += 4;
    std::memcpy(frame.data() + off, payload.data(), payload.size());
    off += payload.size();
    uint64_t sum = fnv1aUpdate(kFnv1aBasis, &t, sizeof(t));
    sum = fnv1aUpdate(sum, &len, sizeof(len));
    sum = fnv1aUpdate(sum, payload.data(), payload.size());
    std::memcpy(frame.data() + off, &sum, 8);
    return frame;
}

TEST(DistProtocol, CorruptionRejected)
{
    // Flipping any single byte of (magic, type, len, payload,
    // checksum) must yield Corrupt, never a quietly wrong frame.
    const std::vector<uint8_t> good = rawFrame(Msg::Assign, "units");
    for (size_t flip = 0; flip < good.size(); ++flip) {
        int fds[2] = {-1, -1};
        ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        std::vector<uint8_t> bad = good;
        bad[flip] ^= 0x01;
        ASSERT_TRUE(sendAll(fds[0], bad.data(), bad.size()));
        close(fds[0]);
        Frame f;
        EXPECT_EQ(recvFrame(fds[1], f), RecvStatus::Corrupt)
            << "flipped byte " << flip;
        close(fds[1]);
    }
}

TEST(DistProtocol, OversizedFrameRejected)
{
    // A header claiming a payload larger than the receiver's cap is
    // rejected from the header alone — the receiver never tries to
    // allocate or read the body, so a lying (or hostile) peer cannot
    // force a giant allocation.
    int fds[2] = {-1, -1};
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const uint8_t t = static_cast<uint8_t>(Msg::Result);
    const uint32_t len = 2u << 20;
    std::vector<uint8_t> header(9);
    std::memcpy(header.data(), &kFrameMagic, 4);
    header[4] = t;
    std::memcpy(header.data() + 5, &len, 4);
    ASSERT_TRUE(sendAll(fds[0], header.data(), header.size()));
    Frame f;
    EXPECT_EQ(recvFrame(fds[1], f, /*max_payload=*/1u << 20),
              RecvStatus::Oversized);
    close(fds[0]);
    close(fds[1]);
}

TEST(DistProtocol, TruncationRejected)
{
    // EOF mid-frame (a worker died mid-send) is Corrupt, not Closed.
    const std::vector<uint8_t> good = rawFrame(Msg::Data, "payload");
    for (size_t keep : {size_t{3}, size_t{9}, good.size() - 1}) {
        int fds[2] = {-1, -1};
        ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        ASSERT_TRUE(sendAll(fds[0], good.data(), keep));
        close(fds[0]);
        Frame f;
        EXPECT_EQ(recvFrame(fds[1], f), RecvStatus::Corrupt)
            << "kept " << keep << " bytes";
        close(fds[1]);
    }
}

// ---- Fleet byte-identity ------------------------------------------

// 12 units so a 3-worker fleet at PSCA_THREADS=4 assigns a full
// batch to EVERY worker — the kill test then always finds assigned
// units on the victim.
constexpr size_t kCorpusSize = 12;

std::string
scratchDir(const std::string &name)
{
    const std::string dir = "/tmp/psca_dist_test/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/**
 * The campaign's corpus under its recording config (set into
 * @p build): one Distributed scope, or a cache load once stored.
 */
std::vector<TraceRecord>
recordTestCorpus(BuildConfig &build)
{
    build.intervalInstr = 5000;
    build.warmupInstr = 10000;
    build.counterIds = {
        CounterRegistry::index(Ctr::InstRetired),
        CounterRegistry::index(Ctr::StallCount),
        CounterRegistry::index(Ctr::L1dMiss),
        CounterRegistry::index(Ctr::UopsStalledOnDep),
    };

    std::vector<Workload> fleet;
    std::vector<uint32_t> ids;
    for (uint64_t i = 0; i < kCorpusSize; ++i) {
        Workload w;
        w.genome =
            sampleGenome(static_cast<AppCategory>(i % 6), 700 + i);
        w.inputSeed = 1;
        w.lengthInstr = 300000;
        w.name = w.genome.name;
        fleet.push_back(std::move(w));
        ids.push_back(static_cast<uint32_t>(i));
    }
    return recordCorpus(fleet, ids, build, "dtest");
}

/**
 * The campaign body every fleet process runs (lockstep-redundant):
 * corpus record -> dataset -> forest fit -> scored result artifact.
 * Same shape as test_runner.cc's pipeline; the corpus and forest
 * scopes are the Distributed ones.
 */
int
childPipeline()
{
    obs::RunReportGuard report("dist_test_report");

    BuildConfig build;
    const std::vector<TraceRecord> records = recordTestCorpus(build);

    AssemblyOptions ao;
    ao.granularityInstr = 5000;
    ao.pSla = 0.90;
    const Dataset ds =
        assembleDataset(records, ao, build.intervalInstr);

    ForestConfig fc;
    fc.numTrees = 8;
    fc.maxDepth = 6;
    fc.seed = 5;
    const RandomForest rf(ds, fc);

    uint64_t h = ds.contentHash();
    std::vector<double> scores(ds.numSamples());
    for (size_t i = 0; i < ds.numSamples(); ++i)
        scores[i] = rf.score(ds.row(i));
    h = fnv1aUpdate(h, scores.data(), scores.size() * sizeof(double));
    const bool ok = writeArtifactFile(
        cacheDirectory() + "/result.bin", [&](BinaryWriter &out) {
            out.put(h);
            out.put<uint64_t>(ds.numSamples());
        });
    return ok ? 0 : 1;
}

/**
 * Fork one fleet process. Roles are set AFTER the fork so the test
 * parent never arms the distribution layer. Workers journal nothing
 * (the coordinator owns the journal) and report into their own
 * subdirectory so they cannot clobber the coordinator's report.
 */
pid_t
forkFleetChild(const char *role, const std::string &dir, int workers,
               int worker_index,
               const std::vector<std::pair<std::string, std::string>>
                   &extra_env = {})
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid != 0)
        return pid;
    setenv("PSCA_DIST_ROLE", role, 1);
    for (const auto &[k, v] : extra_env)
        setenv(k.c_str(), v.c_str(), 1);
    if (std::strcmp(role, "coordinator") == 0) {
        const std::string n = std::to_string(workers);
        setenv("PSCA_DIST_WORKERS", n.c_str(), 1);
    } else {
        setenv("PSCA_JOURNAL", "0", 1);
        const std::string rdir =
            dir + "/w" + std::to_string(worker_index);
        fs::create_directories(rdir);
        setenv("PSCA_REPORT_DIR", rdir.c_str(), 1);
    }
    _exit(runner::guardedMain([] { return childPipeline(); }));
}

/** Single-process reference run (no distribution). */
int
runLocalToCompletion()
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0)
        _exit(runner::guardedMain([] { return childPipeline(); }));
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void
expectArtifactsIdentical(const std::string &dir,
                         const std::string &ref_dir)
{
    EXPECT_EQ(slurp(dir + "/result.bin"),
              slurp(ref_dir + "/result.bin"));
    const std::vector<std::string> caches =
        filesContaining(ref_dir, "dtest_");
    ASSERT_FALSE(caches.empty());
    EXPECT_EQ(filesContaining(dir, "dtest_"), caches);
    for (const std::string &name : caches)
        EXPECT_EQ(slurp(dir + "/" + name),
                  slurp(ref_dir + "/" + name))
            << name;
}

TEST(DistFleet, FourWorkersByteIdenticalToSingleProcess)
{
    setenv("PSCA_THREADS", "2", 1);

    const std::string ref_dir = scratchDir("fleet4_ref");
    setenv("PSCA_CACHE_DIR", ref_dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", ref_dir.c_str(), 1);
    ASSERT_EQ(runLocalToCompletion(), 0);

    const std::string dir = scratchDir("fleet4");
    setenv("PSCA_CACHE_DIR", dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", dir.c_str(), 1);
    constexpr int kWorkers = 4;
    const pid_t coord = forkFleetChild("coordinator", dir, kWorkers, 0);
    std::vector<pid_t> workers;
    for (int i = 1; i <= kWorkers; ++i)
        workers.push_back(forkFleetChild("worker", dir, kWorkers, i));

    int status = 0;
    ASSERT_EQ(waitpid(coord, &status, 0), coord);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    for (pid_t w : workers) {
        ASSERT_EQ(waitpid(w, &status, 0), w);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "worker " << w;
    }

    expectArtifactsIdentical(dir, ref_dir);

    // The fleet actually distributed: the coordinator journaled
    // worker results, and its report says so.
    const std::string report = dir + "/dist_test_report.json";
    EXPECT_GE(reportValue(report, "dist.units_completed"),
              static_cast<double>(kCorpusSize)) << report;
    EXPECT_GE(reportValue(report, "dist.scopes_served"), 2.0);
}

TEST(DistFleet, WorkerKilledMidCampaignIsReassigned)
{
    setenv("PSCA_THREADS", "4", 1);

    const std::string ref_dir = scratchDir("kill_ref");
    setenv("PSCA_CACHE_DIR", ref_dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", ref_dir.c_str(), 1);
    ASSERT_EQ(runLocalToCompletion(), 0);

    const std::string dir = scratchDir("kill");
    setenv("PSCA_CACHE_DIR", dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", dir.c_str(), 1);
    constexpr int kWorkers = 3;
    // Worker 1 SIGKILLs itself the moment it parses its first
    // non-empty assignment, before running any of it: it dies holding
    // units, which the coordinator must hand to the survivors.
    using Env = std::vector<std::pair<std::string, std::string>>;
    const Env crash_env = {{"PSCA_FAULTS", "dist.worker_crash:1"}};
    const pid_t coord = forkFleetChild("coordinator", dir, kWorkers, 0);
    std::vector<pid_t> workers;
    for (int i = 1; i <= kWorkers; ++i)
        workers.push_back(forkFleetChild("worker", dir, kWorkers, i,
                                         i == 1 ? crash_env : Env{}));

    int status = 0;
    ASSERT_EQ(waitpid(workers[0], &status, 0), workers[0]);
    const bool killed = WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL;
    ASSERT_TRUE(killed);

    ASSERT_EQ(waitpid(coord, &status, 0), coord);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    for (size_t i = 1; i < workers.size(); ++i)
        waitpid(workers[i], &status, 0); // the survivors exit 0

    expectArtifactsIdentical(dir, ref_dir);

    const std::string report = dir + "/dist_test_report.json";
    EXPECT_GE(reportValue(report, "dist.workers_lost"), 1.0);
    EXPECT_GE(reportValue(report, "dist.units_reassigned"), 1.0);
}

TEST(DistFleet, CoordinatorKilledAndRestartedMidScope)
{
    setenv("PSCA_THREADS", "2", 1);

    const std::string ref_dir = scratchDir("crash_ref");
    setenv("PSCA_CACHE_DIR", ref_dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", ref_dir.c_str(), 1);
    ASSERT_EQ(runLocalToCompletion(), 0);

    const std::string dir = scratchDir("crash");
    setenv("PSCA_CACHE_DIR", dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", dir.c_str(), 1);
    constexpr int kWorkers = 2;
    // Workers get a deep rejoin budget so none degrades to local
    // execution while the replacement coordinator boots.
    const std::vector<std::pair<std::string, std::string>> wenv = {
        {"PSCA_DIST_RETRIES", "10"}};
    pid_t coord = forkFleetChild("coordinator", dir, kWorkers, 0);
    std::vector<pid_t> workers;
    for (int i = 1; i <= kWorkers; ++i)
        workers.push_back(
            forkFleetChild("worker", dir, kWorkers, i, wenv));

    // SIGKILL the coordinator once the first unit result is
    // journaled — mid-scope by construction. The journal survives,
    // the address file survives (only an orderly shutdown withdraws
    // it), so a replacement resumes the scope and the workers rejoin
    // through the republished address.
    const std::string journal_path = dir + "/journal.psj";
    bool killed = false;
    for (int spins = 0; spins < 120000; ++spins) {
        if (Journal::countEntries(journal_path) >= 1) {
            kill(coord, SIGKILL);
            killed = true;
            break;
        }
        int status = 0;
        if (waitpid(coord, &status, WNOHANG) == coord) {
            ADD_FAILURE() << "coordinator exited before first result";
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(killed);
    int status = 0;
    ASSERT_EQ(waitpid(coord, &status, 0), coord);
    ASSERT_TRUE(WIFSIGNALED(status));

    coord = forkFleetChild("coordinator", dir, kWorkers, 0);
    ASSERT_EQ(waitpid(coord, &status, 0), coord);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    for (pid_t w : workers) {
        ASSERT_EQ(waitpid(w, &status, 0), w);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "worker " << w;
    }

    expectArtifactsIdentical(dir, ref_dir);

    // The replacement's report is the one on disk: it must have seen
    // the workers come back (Hello with a previous id) and no worker
    // may have fallen back to local execution.
    const std::string report = dir + "/dist_test_report.json";
    EXPECT_GE(reportValue(report, "dist.rejoins"), 1.0) << report;
    for (int i = 1; i <= kWorkers; ++i)
        EXPECT_EQ(reportValue(dir + "/w" + std::to_string(i) +
                                  "/dist_test_report.json",
                              "dist.local_fallbacks"),
                  -1.0)
            << "worker " << i << " degraded to local execution";
}

TEST(DistFleet, DuplicateResultsAreIdempotent)
{
    setenv("PSCA_THREADS", "2", 1);

    const std::string ref_dir = scratchDir("dup_ref");
    setenv("PSCA_CACHE_DIR", ref_dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", ref_dir.c_str(), 1);
    ASSERT_EQ(runLocalToCompletion(), 0);

    const std::string dir = scratchDir("dup");
    setenv("PSCA_CACHE_DIR", dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", dir.c_str(), 1);
    constexpr int kWorkers = 2;
    // Every Result is delivered twice (rate 1): the coordinator must
    // Ack both copies but journal the unit once, first-write-wins.
    const std::vector<std::pair<std::string, std::string>> wenv = {
        {"PSCA_FAULTS", "net.dup_result:1"}};
    const pid_t coord = forkFleetChild("coordinator", dir, kWorkers, 0);
    std::vector<pid_t> workers;
    for (int i = 1; i <= kWorkers; ++i)
        workers.push_back(
            forkFleetChild("worker", dir, kWorkers, i, wenv));

    int status = 0;
    ASSERT_EQ(waitpid(coord, &status, 0), coord);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    for (pid_t w : workers) {
        ASSERT_EQ(waitpid(w, &status, 0), w);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "worker " << w;
    }

    expectArtifactsIdentical(dir, ref_dir);

    const std::string report = dir + "/dist_test_report.json";
    EXPECT_GE(reportValue(report, "dist.duplicate_results"), 1.0)
        << report;
}

/** Whether every listening socket this process holds is close-on-exec. */
bool
listenersCloseOnExec()
{
    for (const auto &e : fs::directory_iterator("/proc/self/fd")) {
        const int fd = std::atoi(e.path().filename().c_str());
        int listening = 0;
        socklen_t len = sizeof(listening);
        if (::getsockopt(fd, SOL_SOCKET, SO_ACCEPTCONN, &listening,
                         &len) == 0 &&
            listening != 0 && (::fcntl(fd, F_GETFD) & FD_CLOEXEC) == 0)
            return false;
    }
    return true;
}

TEST(DistFleet, WarmRerunReleasesQueuedWorkers)
{
    // On a warm cache the coordinator may serve no scope, so it never
    // accepts a join (a warm `psca fleet`: every scope's result is a
    // cache file or fully journaled). A
    // worker that holds the coordinator's listener (forked after the
    // bind, as an exec'd worker did before the listener was
    // close-on-exec) keeps its join queued after the coordinator
    // closes its copy; only a Shutdown answer releases it before its
    // reply timeout.
    setenv("PSCA_THREADS", "2", 1);
    const std::string dir = scratchDir("rerun");
    setenv("PSCA_CACHE_DIR", dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", dir.c_str(), 1);
    ASSERT_EQ(runLocalToCompletion(), 0);

    constexpr double kIoTimeoutS = 30.0;
    const auto start = std::chrono::steady_clock::now();
    std::fflush(nullptr);
    const pid_t coord = fork();
    if (coord == 0) {
        setenv("PSCA_DIST_ROLE", "coordinator", 1);
        setenv("PSCA_DIST_WORKERS", "1", 1);
        pid_t worker = -1;
        int rc = runner::guardedMain([&] {
            if (!listenersCloseOnExec())
                return 4;
            const std::string addr = dist::coordinatorAddress();
            std::fflush(nullptr);
            worker = fork();
            if (worker == 0) {
                Worker w(addr, "", 10.0, kIoTimeoutS, 500, 0);
                _exit(w.connected() ? 5 : 0);
            }
            // Let the join queue before the campaign runs: the
            // corpus is a cache load, so it distributes nothing.
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            obs::RunReportGuard report("dist_test_report");
            BuildConfig build;
            return recordTestCorpus(build).size() == kCorpusSize ? 0
                                                                 : 7;
        });
        int status = 0;
        if (worker > 0 && waitpid(worker, &status, 0) == worker &&
            rc == 0)
            rc = WIFEXITED(status) ? WEXITSTATUS(status) : 6;
        _exit(rc);
    }
    int status = 0;
    ASSERT_EQ(waitpid(coord, &status, 0), coord);
    const double secs = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
    EXPECT_LT(secs, kIoTimeoutS / 3);
    EXPECT_EQ(reportValue(dir + "/dist_test_report.json",
                          "dist.scopes_served"),
              -1.0);
}

TEST(DistFleet, ChildrenInheritFleetTuningButNotRoles)
{
    // psca fleet sets each child's role variables itself; the caller's
    // timeouts, retries and frame cap must reach the children.
    const std::vector<std::string> tuning = {
        "PSCA_DIST_IO_TIMEOUT_S=5", "PSCA_DIST_CONNECT_S=7",
        "PSCA_DIST_HEARTBEAT_MS=100", "PSCA_DIST_RETRIES=2",
        "PSCA_DIST_TIMEOUT_S=9", "PSCA_DIST_MAX_FRAME_MB=8"};
    std::vector<std::string> env = {"PSCA_DIST_ROLE=worker",
                                    "PSCA_DIST_ADDR=127.0.0.1:9",
                                    "PSCA_DIST_WORKERS=3"};
    env.insert(env.end(), tuning.begin(), tuning.end());
    for (const char *s : {"PSCA_JOURNAL=1", "PSCA_REPORT_DIR=/r",
                          "PSCA_HTTP_PORT=8080", "PSCA_THREADS=2"})
        env.emplace_back(s);

    std::vector<std::string> worker = tuning;
    worker.emplace_back("PSCA_THREADS=2");
    EXPECT_EQ(dist::filterEnv(env, dist::kFleetWorkerDropPrefixes),
              worker);

    std::vector<std::string> coordinator = tuning;
    for (const char *s :
         {"PSCA_JOURNAL=1", "PSCA_REPORT_DIR=/r", "PSCA_THREADS=2"})
        coordinator.emplace_back(s);
    EXPECT_EQ(dist::filterEnv(env, dist::kFleetCoordinatorDropPrefixes),
              coordinator);
}

} // namespace
