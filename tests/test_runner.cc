/**
 * @file
 * Crash/kill/resume integration tests for the journaled runner: a
 * forked child executes a small record-corpus + forest-fit pipeline;
 * the parent SIGKILLs it at seeded progress points (observed through
 * Journal::countEntries), re-runs it to completion, and asserts the
 * published artifacts are byte-identical to an uninterrupted run —
 * at one worker thread and at four. Also covers the resumable exit
 * code contract (SIGTERM and the deadline watchdog both exit 75).
 *
 * The parent process must NEVER touch the ThreadPool, SimMemo, or
 * Journal singletons: children inherit them across fork(), and a
 * pool whose worker threads died in the fork would hang the child.
 * All pipeline work happens in forked children that _exit().
 */

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/journal.hh"
#include "core/pipeline.hh"
#include "core/runner.hh"
#include "obs/report.hh"
#include "telemetry/counters.hh"
#include "trace/genome.hh"
#include "test_util.hh"

using namespace psca;
using namespace psca::test;
namespace fs = std::filesystem;

namespace {

constexpr size_t kCorpusSize = 8;

std::string
scratchDir(const std::string &name)
{
    const std::string dir = "/tmp/psca_runner_test/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** The child's pipeline: corpus record -> dataset -> forest fit. */
int
childPipeline()
{
    obs::RunReportGuard report("runner_test_report");

    BuildConfig build;
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
        w.genome = sampleGenome(
            static_cast<AppCategory>(i % 6), 900 + i);
        w.inputSeed = 1;
        w.lengthInstr = 300000;
        w.name = w.genome.name;
        fleet.push_back(std::move(w));
        ids.push_back(static_cast<uint32_t>(i));
    }
    const std::vector<TraceRecord> records =
        recordCorpus(fleet, ids, build, "rtest");

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

    // Result artifact: dataset content plus every forest score, so
    // any divergence between a resumed and a straight-through run —
    // in the records, the assembly, or any tree — changes the bytes.
    uint64_t h = ds.contentHash();
    std::vector<double> scores(ds.numSamples());
    for (size_t i = 0; i < ds.numSamples(); ++i)
        scores[i] = rf.score(ds.row(i));
    h = fnv1aUpdate(h, scores.data(),
                    scores.size() * sizeof(double));
    const bool ok = writeArtifactFile(
        cacheDirectory() + "/result.bin", [&](BinaryWriter &out) {
            out.put(h);
            out.put<uint64_t>(ds.numSamples());
        });
    return ok ? 0 : 1;
}

/** Fork the pipeline child; returns its pid. */
pid_t
forkPipeline()
{
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0)
        _exit(childPipeline());
    return pid;
}

/**
 * Wait until the journal holds at least @p target entries, then
 * SIGKILL the child. Returns false if the child exited first.
 */
bool
killAtEntryCount(pid_t pid, const std::string &journal_path,
                 size_t target)
{
    for (int spins = 0; spins < 120000; ++spins) {
        int status = 0;
        if (waitpid(pid, &status, WNOHANG) == pid)
            return false; // finished before the kill point
        if (Journal::countEntries(journal_path) >= target) {
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
            return true;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
    ADD_FAILURE() << "child never reached " << target
                  << " journal entries";
    return true;
}

/** Run the pipeline child to completion; returns its exit status. */
int
runToCompletion()
{
    const pid_t pid = forkPipeline();
    int status = 0;
    waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/**
 * The headline contract: SIGKILL the pipeline at three seeded
 * progress points, resume each time, and the final artifacts are
 * byte-identical to a never-interrupted run.
 */
void
killResumeByteIdentity(const std::string &tag, const char *threads)
{
    setenv("PSCA_THREADS", threads, 1);

    // Reference: one uninterrupted run.
    const std::string ref_dir = scratchDir(tag + "_ref");
    setenv("PSCA_CACHE_DIR", ref_dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", ref_dir.c_str(), 1);
    ASSERT_EQ(runToCompletion(), 0);

    // Interrupted: SIGKILL at three seeded journal-progress points.
    const std::string dir = scratchDir(tag + "_killed");
    setenv("PSCA_CACHE_DIR", dir.c_str(), 1);
    setenv("PSCA_REPORT_DIR", dir.c_str(), 1);
    const std::string journal_path = dir + "/journal.psj";
    size_t entries = 0;
    for (size_t target : {size_t{1}, entries + 2, entries + 4}) {
        const pid_t pid = forkPipeline();
        if (!killAtEntryCount(pid, journal_path,
                              std::max(target, entries + 1)))
            break; // finished early; resume coverage shrinks, OK
        entries = Journal::countEntries(journal_path);
    }

    // How many live completed units should the final run skip? All
    // journal frames are corpus UnitDone entries until the corpus
    // completes (writes its whole-corpus cache and retires, adding
    // one ScopeRetired frame); after that, journaled units belong to
    // the forest fit.
    const size_t pre = Journal::countEntries(journal_path);
    const bool corpus_cached =
        !filesContaining(dir, "rtest_").empty();
    const size_t live = !corpus_cached
        ? pre
        : (pre > kCorpusSize ? pre - kCorpusSize - 1 : 0);

    ASSERT_EQ(runToCompletion(), 0);

    // Resume must skip (not recompute) >= 90% of completed units.
    const std::string report = dir + "/runner_test_report.json";
    const double skipped =
        reportValue(report, "runner.units_skipped");
    const double executed =
        reportValue(report, "runner.units_executed");
    EXPECT_GE(skipped, 0.9 * static_cast<double>(live))
        << "skipped " << skipped << " executed " << executed
        << " of " << live << " live completed units";
    EXPECT_GT(executed, 0.0);

    // Artifact byte-identity: the result file and every published
    // cache file must match the uninterrupted run bit for bit.
    EXPECT_EQ(slurp(dir + "/result.bin"),
              slurp(ref_dir + "/result.bin"));
    const std::vector<std::string> caches =
        filesContaining(ref_dir, "rtest_");
    ASSERT_FALSE(caches.empty());
    EXPECT_EQ(filesContaining(dir, "rtest_"), caches);
    for (const std::string &name : caches)
        EXPECT_EQ(slurp(dir + "/" + name),
                  slurp(ref_dir + "/" + name))
            << name;
}

TEST(KillResume, ByteIdenticalSingleThread)
{
    killResumeByteIdentity("t1", "1");
}

TEST(KillResume, ByteIdenticalFourThreads)
{
    killResumeByteIdentity("t4", "4");
}

TEST(Runner, SigtermExitsWithResumableStatus)
{
    const std::string dir = scratchDir("sigterm");
    const std::string ready = dir + "/ready";
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        const int rc = runner::guardedMain([&ready] {
            std::ofstream(ready) << "up";
            while (!stopRequested())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return 0;
        });
        _exit(rc);
    }
    for (int spins = 0; spins < 20000 && !fs::exists(ready); ++spins)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_TRUE(fs::exists(ready));
    kill(pid, SIGTERM);
    int status = 0;
    waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), runner::kResumableExit);
}

TEST(Runner, DeadlineWatchdogRequestsStopAndExitsResumable)
{
    setenv("PSCA_DEADLINE_S", "0.2", 1);
    setenv("PSCA_DEADLINE_GRACE_S", "60", 1);
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        const int rc = runner::guardedMain([] {
            while (!stopRequested())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            return 0;
        });
        _exit(rc);
    }
    unsetenv("PSCA_DEADLINE_S");
    unsetenv("PSCA_DEADLINE_GRACE_S");
    int status = 0;
    waitpid(pid, &status, 0);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), runner::kResumableExit);
}

} // namespace
