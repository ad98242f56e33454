/**
 * @file
 * Watchdog supervision and resumable process lifecycle around the
 * journal layer (common/journal.hh). Every bench, example, and CLI
 * main body runs inside runner::guardedMain(), which provides:
 *
 *  - Signal-driven checkpointing: the first SIGINT/SIGTERM sets the
 *    cooperative stop flag (requestStop()); checkpointed regions
 *    drain their in-flight units, journal them, and unwind with
 *    RunInterrupted, so the run report still flushes and the process
 *    exits with kResumableExit. A second signal force-exits
 *    immediately (still kResumableExit — the journal is append-safe
 *    at any instant).
 *
 *  - A run deadline (PSCA_DEADLINE_S): a watchdog thread requests a
 *    cooperative stop when the budget expires and force-exits after a
 *    grace period (PSCA_DEADLINE_GRACE_S, default 30 s) if the run
 *    has not unwound by itself. CI timeouts thus become planned
 *    checkpoints instead of lost work.
 *
 * Exit-code contract: 0 = complete; kResumableExit (75, the sysexits
 * EX_TEMPFAIL convention) = interrupted but resumable — re-running
 * the same command continues from the journal; anything else = error.
 */

#ifndef PSCA_CORE_RUNNER_HH
#define PSCA_CORE_RUNNER_HH

#include <sys/types.h>

#include <atomic>
#include <functional>

namespace psca {
namespace runner {

/**
 * Exit status of an interrupted-but-resumable run (sysexits
 * EX_TEMPFAIL): the journal holds every completed unit, re-running
 * the same command resumes.
 */
constexpr int kResumableExit = 75;

/**
 * Run @p body under signal handlers and the watchdog. Returns the
 * body's return value, or kResumableExit when the body unwound with
 * RunInterrupted (stop request, deadline). Other exceptions are
 * reported and return 1. Nested calls run the body directly.
 */
int guardedMain(const std::function<int()> &body);

/**
 * Fork-and-respawn supervisor for crash-resume (DESIGN.md §13).
 * Calls @p spawn to start one child process, waits for it, and while
 * it dies abnormally (killed by a signal) or exits with
 * kResumableExit — both of which the journal makes resumable —
 * respawns it, up to @p max_restarts times, counting
 * runner.supervisor_restarts. A clean exit (0) or a hard error (any
 * other code) ends supervision immediately with that code; so does a
 * pending stop request (SIGINT on the supervisor itself).
 *
 * @p current_child, when given, always holds the pid of the running
 * child (or -1 between children) — chaos harnesses use it to aim a
 * SIGKILL at whatever incarnation is currently alive.
 */
int supervise(const std::function<pid_t()> &spawn, int max_restarts,
              const char *what,
              std::atomic<pid_t> *current_child = nullptr);

} // namespace runner
} // namespace psca

#endif // PSCA_CORE_RUNNER_HH
