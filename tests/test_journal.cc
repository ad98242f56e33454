/**
 * @file
 * Tests for the crash-safe execution journal (common/journal.hh):
 * transactional artifact writes, two-phase multi-file commits,
 * journal replay and resume, torn-tail truncation, header-corruption
 * quarantine, checkpoint tampering, the coordinator's checkpoint merge
 * path, deterministic retry backoff, and the cooperative stop flag.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/journal.hh"
#include "common/rng.hh"
#include "common/serialize.hh"

using namespace psca;
namespace fs = std::filesystem;

namespace {

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    const std::string dir = "/tmp/psca_journal_test/" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

/** Count non-directory entries whose name contains @p needle. */
size_t
countFilesContaining(const std::string &dir, const std::string &needle)
{
    size_t n = 0;
    for (const auto &e : fs::directory_iterator(dir))
        if (e.path().filename().string().find(needle) !=
            std::string::npos)
            ++n;
    return n;
}

/** Deterministic unit result: pure function of the index. */
uint64_t
unitValue(size_t i)
{
    return mixSeeds(0xabcdefULL, i + 1);
}

/** Run a checkpointedMap of n units through @p journal. */
std::vector<uint64_t>
runUnits(Journal &journal, size_t n, uint64_t config_h = 7)
{
    return checkpointedMap<uint64_t>(
        journal, "test.units", config_h, n,
        [](BinaryWriter &w, const uint64_t &v) { w.put(v); },
        [](BinaryReader &in) { return in.get<uint64_t>(); },
        [](size_t i) { return unitValue(i); });
}

TEST(ArtifactStore, WriteIsAtomicAndChecksummed)
{
    const std::string dir = scratchDir("artifact_write");
    const std::string path = dir + "/a.bin";
    uint64_t sum = 0;
    ASSERT_TRUE(writeArtifactFile(path, [](BinaryWriter &out) {
        out.put<uint64_t>(42);
        out.putString("payload");
    }, &sum));
    EXPECT_TRUE(fs::exists(path));
    EXPECT_NE(sum, 0u);
    // No temp siblings left behind.
    EXPECT_EQ(countFilesContaining(dir, ".tmp"), 0u);

    BinaryReader in(path);
    EXPECT_EQ(in.get<uint64_t>(), 42u);
    EXPECT_EQ(in.getString(), "payload");
}

TEST(ArtifactStore, FailedPublishLeavesTargetUntouched)
{
    const std::string dir = scratchDir("artifact_fail");
    // The final name is taken by a non-empty directory, so the
    // commit-point rename must fail: writeArtifactFile reports
    // failure, removes its temp, and the target is untouched.
    const std::string path = dir + "/occupied";
    fs::create_directories(path);
    std::ofstream(path + "/keep") << "x";
    EXPECT_FALSE(writeArtifactFile(
        path, [](BinaryWriter &out) { out.put<uint64_t>(1); }));
    EXPECT_TRUE(fs::is_directory(path));
    EXPECT_TRUE(fs::exists(path + "/keep"));
    EXPECT_EQ(countFilesContaining(dir, ".tmp"), 0u);
}

TEST(ArtifactStore, TxnCommitPublishesAllFiles)
{
    const std::string dir = scratchDir("txn_commit");
    ArtifactTxn txn;
    txn.stage(dir + "/x.bin").put<uint64_t>(1);
    txn.stage(dir + "/y.bin").put<uint64_t>(2);
    ASSERT_TRUE(txn.commit());
    EXPECT_TRUE(fs::exists(dir + "/x.bin"));
    EXPECT_TRUE(fs::exists(dir + "/y.bin"));
    EXPECT_EQ(countFilesContaining(dir, ".tmp"), 0u);
}

TEST(ArtifactStore, TxnAbortAndDestructorPublishNothing)
{
    const std::string dir = scratchDir("txn_abort");
    {
        ArtifactTxn txn;
        txn.stage(dir + "/x.bin").put<uint64_t>(1);
        txn.abort();
    }
    {
        ArtifactTxn txn; // destroyed without commit()
        txn.stage(dir + "/y.bin").put<uint64_t>(2);
    }
    EXPECT_FALSE(fs::exists(dir + "/x.bin"));
    EXPECT_FALSE(fs::exists(dir + "/y.bin"));
    EXPECT_EQ(countFilesContaining(dir, ".tmp"), 0u);
}

TEST(ArtifactStore, TxnPublishFailureReportsFalse)
{
    const std::string dir = scratchDir("txn_fail");
    // One final name is taken by a non-empty directory: its rename
    // must fail and commit() must report the incomplete publish.
    const std::string blocked = dir + "/occupied";
    fs::create_directories(blocked);
    std::ofstream(blocked + "/keep") << "x";
    ArtifactTxn txn;
    txn.stage(blocked).put<uint64_t>(1);
    txn.stage(dir + "/good.bin").put<uint64_t>(2);
    EXPECT_FALSE(txn.commit());
    EXPECT_TRUE(fs::is_directory(blocked));
    EXPECT_EQ(countFilesContaining(dir, ".tmp"), 0u);
}

TEST(ArtifactStore, ForkedWritersNeverShareATempFile)
{
    // Forked processes inherit the parent's thread id and temp-name
    // serial. Processes writing one directory (fleet workers sharing
    // a cache) must still stage to distinct temp files, or a writer's
    // rename can find its temp already renamed away by another.
    const std::string dir = scratchDir("forked_writers");
    const std::string path = dir + "/shared.bin";
    constexpr int kChildren = 4;
    constexpr int kWrites = 100;
    std::fflush(nullptr);
    std::vector<pid_t> children;
    for (int c = 0; c < kChildren; ++c) {
        const pid_t pid = fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            int failures = 0;
            for (int i = 0; i < kWrites; ++i)
                failures += !writeArtifactFile(path, [&](BinaryWriter &out) {
                    out.put<uint64_t>(static_cast<uint64_t>(c * kWrites + i));
                });
            _exit(failures == 0 ? 0 : 1);
        }
        children.push_back(pid);
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status));
        EXPECT_EQ(WEXITSTATUS(status), 0) << "a writer lost its temp file";
    }
    EXPECT_EQ(countFilesContaining(dir, ".tmp"), 0u);
}

TEST(Quarantine, CollisionsGetSequenceSuffixes)
{
    const std::string dir = scratchDir("quarantine");
    const std::string path = dir + "/victim.bin";
    auto plant = [&] { std::ofstream(path) << "corrupt"; };

    plant();
    const QuarantineResult first = quarantineFile(path, "test");
    EXPECT_EQ(first.dest, path + ".quarantined");
    EXPECT_FALSE(first.collided);

    plant();
    const QuarantineResult second = quarantineFile(path, "test");
    EXPECT_EQ(second.dest, path + ".quarantined.1");
    EXPECT_TRUE(second.collided);

    plant();
    const QuarantineResult third = quarantineFile(path, "test");
    EXPECT_EQ(third.dest, path + ".quarantined.2");
    EXPECT_TRUE(third.collided);

    EXPECT_TRUE(fs::exists(first.dest));
    EXPECT_TRUE(fs::exists(second.dest));
    EXPECT_TRUE(fs::exists(third.dest));
}

TEST(RetryBackoff, DeterministicAndBounded)
{
    for (uint64_t key : {1ULL, 99ULL, 0xdeadULL}) {
        for (int attempt = 0; attempt < 4; ++attempt) {
            const int a = retryBackoffMs(key, attempt);
            const int b = retryBackoffMs(key, attempt);
            EXPECT_EQ(a, b) << "backoff must be reproducible";
            EXPECT_GE(a, 1 << attempt);
            EXPECT_LT(a, 2 << attempt);
        }
    }
    // Different keys draw from different jitter substreams.
    bool any_differ = false;
    for (int attempt = 2; attempt < 6; ++attempt)
        any_differ |=
            retryBackoffMs(1, attempt) != retryBackoffMs(2, attempt);
    EXPECT_TRUE(any_differ);
}

TEST(Journal, ExecutesAllUnitsFreshAndJournalsThem)
{
    const std::string dir = scratchDir("fresh");
    Journal journal(dir, true, true);
    const std::vector<uint64_t> out = runUnits(journal, 16);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], unitValue(i));
    const JournalStats st = journal.stats();
    EXPECT_TRUE(st.active);
    EXPECT_EQ(st.unitsExecuted, 16u);
    EXPECT_EQ(st.unitsSkipped, 0u);
    EXPECT_EQ(Journal::countEntries(journal.journalPath()), 16u);
    EXPECT_EQ(journal.unitsDone("test.units", 7), 16u);
}

TEST(Journal, ResumeSkipsCompletedUnitsWithIdenticalResults)
{
    const std::string dir = scratchDir("resume");
    std::vector<uint64_t> first;
    {
        Journal journal(dir, true, true);
        first = runUnits(journal, 16);
    }
    Journal journal(dir, true, true);
    const std::vector<uint64_t> second = runUnits(journal, 16);
    EXPECT_EQ(first, second);
    const JournalStats st = journal.stats();
    EXPECT_EQ(st.unitsSkipped, 16u);
    EXPECT_EQ(st.unitsExecuted, 0u);
}

TEST(Journal, DifferentConfigHashRecomputes)
{
    const std::string dir = scratchDir("confighash");
    {
        Journal journal(dir, true, true);
        runUnits(journal, 8, /*config_h=*/7);
    }
    Journal journal(dir, true, true);
    runUnits(journal, 8, /*config_h=*/8);
    EXPECT_EQ(journal.stats().unitsExecuted, 8u);
    EXPECT_EQ(journal.stats().unitsSkipped, 0u);
}

TEST(Journal, TamperedCheckpointIsQuarantinedAndRecomputed)
{
    const std::string dir = scratchDir("tamper");
    {
        Journal journal(dir, true, true);
        runUnits(journal, 8);
    }
    // Flip one payload byte of unit 3's checkpoint artifact.
    const std::string victim = Journal(dir, true, true).unitPath(
        Journal::scopeHash("test.units"), 7, 3);
    ASSERT_TRUE(fs::exists(victim));
    {
        std::fstream f(victim,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16);
        char b = 0;
        f.seekg(16);
        f.get(b);
        b = static_cast<char>(b ^ 0x5a);
        f.seekp(16);
        f.put(b);
    }
    // Unit 4: a same-key checkpoint with another payload and a valid
    // trailer of its own, as a stale run with different results
    // would leave. Only the journaled checksum can reject it.
    const uint64_t scope_h = Journal::scopeHash("test.units");
    const std::string stale = Journal(dir, true, true).unitPath(
        scope_h, 7, 4);
    {
        Journal other(scratchDir("tamper_other"), true, true);
        checkpointedMap<uint64_t>(
            other, "test.units", 7, 8,
            [](BinaryWriter &w, const uint64_t &v) { w.put(v); },
            [](BinaryReader &in) { return in.get<uint64_t>(); },
            [](size_t i) { return unitValue(i) + 1; });
        fs::copy_file(other.unitPath(scope_h, 7, 4), stale,
                      fs::copy_options::overwrite_existing);
    }
    // Unit 5: one byte appended after the trailer.
    const std::string appended = Journal(dir, true, true).unitPath(
        scope_h, 7, 5);
    std::ofstream(appended, std::ios::binary | std::ios::app) << 'x';
    Journal journal(dir, true, true);
    const std::vector<uint64_t> out = runUnits(journal, 8);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], unitValue(i)) << "unit " << i;
    const JournalStats st = journal.stats();
    EXPECT_EQ(st.verifyFailures, 3u);
    EXPECT_EQ(st.unitsExecuted, 3u);
    EXPECT_EQ(st.unitsSkipped, 5u);
    EXPECT_GE(countFilesContaining(dir, ".quarantined"), 3u);
}

TEST(Journal, TornTailIsTruncatedEntriesSurvive)
{
    const std::string dir = scratchDir("torn");
    std::string jpath;
    {
        Journal journal(dir, true, true);
        runUnits(journal, 8);
        jpath = journal.journalPath();
    }
    // A SIGKILL mid-append leaves a partial frame at the tail.
    {
        std::ofstream f(jpath,
                        std::ios::binary | std::ios::app);
        const char garbage[7] = {33, 0, 0, 0, 1, 2, 3};
        f.write(garbage, sizeof(garbage));
    }
    Journal journal(dir, true, true);
    EXPECT_EQ(journal.stats().tornTails, 1u);
    EXPECT_EQ(journal.unitsDone("test.units", 7), 8u);
    const std::vector<uint64_t> out = runUnits(journal, 8);
    EXPECT_EQ(journal.stats().unitsSkipped, 8u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], unitValue(i));
    // The torn bytes are gone: the file replays clean now.
    EXPECT_EQ(Journal::countEntries(jpath), 8u);
}

TEST(Journal, CorruptHeaderQuarantinesWholeJournal)
{
    const std::string dir = scratchDir("header");
    std::string jpath;
    {
        Journal journal(dir, true, true);
        runUnits(journal, 8);
        jpath = journal.journalPath();
    }
    {
        std::fstream f(jpath,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(2);
        f.put('\x7f'); // break the magic
    }
    Journal journal(dir, true, true);
    EXPECT_EQ(journal.stats().quarantines, 1u);
    EXPECT_EQ(journal.unitsDone("test.units", 7), 0u);
    EXPECT_GE(countFilesContaining(dir, "journal.psj.quarantined"), 1u);
    // The run rebuilds from scratch — corruption costs time, never
    // correctness.
    const std::vector<uint64_t> out = runUnits(journal, 8);
    EXPECT_EQ(journal.stats().unitsExecuted, 8u);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], unitValue(i));
}

TEST(Journal, ResumeDisabledStartsFresh)
{
    const std::string dir = scratchDir("noresume");
    {
        Journal journal(dir, true, true);
        runUnits(journal, 8);
    }
    Journal journal(dir, true, /*resume=*/false);
    EXPECT_EQ(journal.unitsDone("test.units", 7), 0u);
    runUnits(journal, 8);
    EXPECT_EQ(journal.stats().unitsExecuted, 8u);
}

TEST(Journal, DisabledJournalTouchesNoFiles)
{
    const std::string dir = "/tmp/psca_journal_test/disabled";
    fs::remove_all(dir);
    Journal journal(dir, /*enabled=*/false, true);
    const std::vector<uint64_t> out = runUnits(journal, 8);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], unitValue(i));
    EXPECT_FALSE(fs::exists(dir));
    EXPECT_FALSE(journal.stats().active);
}

TEST(Journal, RetireScopeCompactsAndDeletesCheckpoints)
{
    const std::string dir = scratchDir("retire");
    {
        Journal journal(dir, true, true);
        runUnits(journal, 8);
        EXPECT_EQ(countFilesContaining(dir, "ckpt_"), 8u);
        journal.retireScope("test.units", 7);
        EXPECT_EQ(journal.unitsDone("test.units", 7), 0u);
        EXPECT_EQ(countFilesContaining(dir, "ckpt_"), 0u);
        EXPECT_EQ(journal.stats().scopesRetired, 1u);
    }
    // Replay compacts the retired scope away.
    Journal journal(dir, true, true);
    EXPECT_EQ(journal.unitsDone("test.units", 7), 0u);
}

TEST(Journal, ThrowingUnitIsRetriedDeterministically)
{
    const std::string dir = scratchDir("retry");
    Journal journal(dir, true, true);
    std::atomic<int> failures{0};
    journal.runCheckpointed(
        "test.flaky", 1, 4,
        [](size_t, BinaryReader &in) {
            in.get<uint64_t>();
            return in.good();
        },
        [&](size_t i) {
            // Unit 2 fails on its first attempt only.
            if (i == 2 && failures.fetch_add(1) == 0)
                throw std::runtime_error("transient");
        },
        [](size_t, BinaryWriter &w) { w.put<uint64_t>(0); });
    const JournalStats st = journal.stats();
    EXPECT_EQ(st.unitsExecuted, 4u);
    EXPECT_GE(st.unitRetries, 1u);
    EXPECT_EQ(journal.unitsDone("test.flaky", 1), 4u);
}

TEST(Journal, StopRequestInterruptsAtUnitBoundary)
{
    const std::string dir = scratchDir("stop");
    Journal journal(dir, true, true);
    clearStopRequest();
    requestStop();
    EXPECT_THROW(runUnits(journal, 8), RunInterrupted);
    clearStopRequest();
    // Nothing ran while stopped; a clean re-entry completes the work.
    const std::vector<uint64_t> out = runUnits(journal, 8);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], unitValue(i));
    EXPECT_EQ(journal.unitsDone("test.units", 7), 8u);
}

/** Whole-file bytes (empty when the file is missing). */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Journal, MergePathAndLocalPathShareOneCheckpointFormat)
{
    const std::string local_dir = scratchDir("merge_local");
    const std::string merged_dir = scratchDir("merge_coord");
    const uint64_t scope_h = Journal::scopeHash("test.units");
    {
        Journal local(local_dir, true, true);
        runUnits(local, 8);
        Journal merged(merged_dir, true, true);
        for (uint64_t i = 0; i < 8; ++i) {
            // readUnitPayload strips exactly what save_unit wrote.
            BinaryWriter w;
            w.put(unitValue(i));
            const std::string expect = w.takeBuffer();
            std::string payload;
            ASSERT_TRUE(
                local.readUnitPayload("test.units", 7, i, payload));
            EXPECT_EQ(payload, expect) << "unit " << i;
            // The coordinator's merge path publishes the same file.
            ASSERT_TRUE(merged.commitUnitPayload(
                "test.units", 7, i, payload.data(), payload.size()));
            const std::string local_file =
                fileBytes(local.unitPath(scope_h, 7, i));
            ASSERT_FALSE(local_file.empty());
            EXPECT_EQ(fileBytes(merged.unitPath(scope_h, 7, i)),
                      local_file)
                << "unit " << i;
        }
        std::string payload;
        EXPECT_FALSE(local.readUnitPayload("test.units", 7, 8, payload));
        EXPECT_FALSE(local.readUnitPayload("test.units", 8, 0, payload));
    }
    {
        // A fresh process resumes every merged unit.
        Journal journal(merged_dir, true, true);
        const std::vector<uint64_t> out = runUnits(journal, 8);
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], unitValue(i)) << "unit " << i;
        EXPECT_EQ(journal.stats().unitsSkipped, 8u);
        EXPECT_EQ(journal.stats().unitsExecuted, 0u);
    }
    // A well-formed checkpoint of another unit must not stand in for
    // unit 5: its keys differ, so the journaled checksum does too.
    Journal journal(merged_dir, true, true);
    fs::copy_file(journal.unitPath(scope_h, 7, 2),
                  journal.unitPath(scope_h, 7, 5),
                  fs::copy_options::overwrite_existing);
    std::string payload;
    EXPECT_FALSE(journal.readUnitPayload("test.units", 7, 5, payload));
    const std::vector<uint64_t> out = runUnits(journal, 8);
    for (size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], unitValue(i)) << "unit " << i;
    EXPECT_EQ(journal.stats().verifyFailures, 1u);
    EXPECT_EQ(journal.stats().unitsExecuted, 1u);
}

TEST(Journal, CountEntriesToleratesMissingFile)
{
    EXPECT_EQ(Journal::countEntries(
                  "/tmp/psca_journal_test/nonexistent.psj"),
              0u);
}

} // namespace
