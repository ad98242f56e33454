/**
 * @file
 * Entry points for the coordinator/worker experiment fleet
 * (DESIGN.md §13, OPERATIONS.md). The distribution model is
 * lockstep-redundant: every process — coordinator and workers —
 * runs the identical deterministic campaign pipeline, and only the
 * four Distributed checkpoint scopes (corpus recording, PF screen-1,
 * crossval folds, forest fits) split their units across the fleet,
 * exchanging results so every process leaves each scope with
 * identical in-memory state. Merges happen in original index order
 * with unchanged taskSeed substreams, so an N-worker campaign
 * produces byte-identical artifacts to the 1-process run at any
 * PSCA_THREADS.
 *
 * Environment (all parsed through common/env.hh):
 *  - PSCA_DIST_ROLE        off | coordinator | worker (default off)
 *  - PSCA_DIST_ADDR        host:port, or "auto" (default): the
 *                          coordinator binds an ephemeral 127.0.0.1
 *                          port and publishes it atomically to
 *                          <PSCA_CACHE_DIR>/dist_addr; workers poll
 *                          that file
 *  - PSCA_DIST_WORKERS     workers the coordinator waits for before
 *                          assigning the first scope (default 1)
 *  - PSCA_DIST_CONNECT_S   join window / worker connect budget,
 *                          seconds (default 60)
 *  - PSCA_DIST_TIMEOUT_S   heartbeat silence after which the
 *                          coordinator declares an in-scope worker
 *                          dead and reassigns its units (default 30)
 *  - PSCA_DIST_IO_TIMEOUT_S  worker-side cap on waiting for one
 *                          coordinator reply (default 600)
 *
 * Failure policy: distribution is an accelerator, never a
 * correctness dependency. A worker that loses its coordinator
 * degrades to computing scopes locally; a coordinator whose workers
 * all die (or never join) falls back to the local parallelFor path.
 * Either way the campaign completes with the same bytes.
 */

#ifndef PSCA_DIST_DIST_HH
#define PSCA_DIST_DIST_HH

#include <string>
#include <vector>

namespace psca {
namespace dist {

enum class Role
{
    Off,
    Coordinator,
    Worker,
};

/** This process's fleet role (parsed once from PSCA_DIST_ROLE). */
Role role();

/** True once init succeeded and the distribution hook is armed. */
bool active();

/**
 * Read PSCA_DIST_* and arm the distribution layer: bind/connect the
 * socket, install the Journal distribution hook and the live-stats
 * snapshot augmenter. Idempotent; a no-op when PSCA_DIST_ROLE is
 * off/unset. Called from runner::guardedMain() before the campaign
 * body (and again by `psca fleet` after it sets the role env vars).
 */
void maybeInitFromEnv();

/**
 * Tear the fleet connection down: the coordinator broadcasts
 * Shutdown and closes (removing its dist_addr file); a worker sends
 * Bye. Safe to call without init, and more than once.
 */
void shutdown();

/** The coordinator's resolved listen address ("" unless serving). */
std::string coordinatorAddress();

/**
 * Environment prefixes a `psca fleet` worker child does not inherit:
 * the role variables the fleet sets for it (PSCA_DIST_ROLE, _ADDR and
 * _WORKERS), and the journal, report and HTTP settings it must not
 * share with the coordinator. The fleet's tuning variables
 * (PSCA_DIST_IO_TIMEOUT_S, _CONNECT_S, _HEARTBEAT_MS, _RETRIES,
 * _TIMEOUT_S, _MAX_FRAME_MB) pass through.
 */
extern const std::vector<std::string> kFleetWorkerDropPrefixes;

/**
 * The same for a fleet coordinator child: the role variables and the
 * HTTP port. It keeps the caller's journal and report settings: its
 * journal is what makes a restart resume, and its report is the run's.
 */
extern const std::vector<std::string> kFleetCoordinatorDropPrefixes;

/**
 * The environment a spawned child starts from: @p env, in order,
 * without the entries that start with any of @p drop_prefixes.
 */
std::vector<std::string> filterEnv(
    const std::vector<std::string> &env,
    const std::vector<std::string> &drop_prefixes);

} // namespace dist
} // namespace psca

#endif // PSCA_DIST_DIST_HH
