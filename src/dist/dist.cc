/**
 * @file
 * Fleet wiring: parses PSCA_DIST_* once, owns the Coordinator/Worker
 * singleton for this process, and implements the Journal distribution
 * hook that routes Distributed checkpoint scopes to it. See dist.hh
 * for the model and DESIGN.md §13 for the protocol.
 */

#include "dist/dist.hh"

#include <atomic>
#include <memory>
#include <mutex>

#include "common/env.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "dist/coordinator.hh"
#include "dist/worker.hh"
#include "obs/snapshot.hh"

namespace psca {
namespace dist {

namespace {

std::mutex g_mu;
std::atomic<bool> g_inScope{false};
bool g_inited = false;
Role g_role = Role::Off;
std::unique_ptr<Coordinator> g_coordinator;
std::unique_ptr<Worker> g_worker;

void
augmentLiveSnapshot(obs::StatSnapshot &snap)
{
    // No lock: the augmenter is only installed after g_coordinator is
    // constructed and cleared before it is destroyed.
    if (g_coordinator)
        g_coordinator->augmentSnapshot(snap);
}

/**
 * The Journal distribution hook. Fires only for the process-wide
 * journal — standalone Journal objects built by tests (or future
 * tools) keep their plain local execution semantics.
 */
bool
distScope(Journal &journal, const std::string &scope,
          uint64_t config_h, size_t n,
          const std::vector<size_t> &pending,
          const std::function<bool(size_t, BinaryReader &)> &load_unit,
          const std::function<void(size_t)> &exec_unit,
          const std::function<void(size_t, BinaryWriter &)> &save_unit)
{
    if (&journal != &Journal::instance())
        return false;
    // Reentrancy guard: a Distributed scope reached while another
    // scope is already on the wire must run locally. This happens
    // when a worker's unit body itself contains a Distributed scope
    // (a crossval fold fitting its forest, whose per-tree fits are
    // checkpointed) — the coordinator's top-level pipeline never
    // reaches that inner scope, so asking the fleet for it would
    // wait forever, and the worker's socket is mid request-reply for
    // the outer scope. With >= 2 threads the same inner scope is
    // already suppressed by the inParallelTask() check upstream;
    // this guard closes the single-thread (inline parallelFor) path.
    if (g_inScope.exchange(true, std::memory_order_acquire))
        return false;
    struct ScopeReset
    {
        ~ScopeReset() { g_inScope.store(false, std::memory_order_release); }
    } reset;
    if (g_role == Role::Coordinator && g_coordinator &&
        g_coordinator->listening())
    {
        return g_coordinator->runScope(journal, scope, config_h, n,
                                       pending, load_unit, save_unit);
    }
    // usable(), not connected(): a worker whose socket is currently
    // down but whose rejoin budget is not exhausted reconnects at
    // scope entry instead of silently running every later scope
    // locally.
    if (g_role == Role::Worker && g_worker && g_worker->usable())
        return g_worker->runScope(scope, config_h, n, load_unit,
                                  exec_unit, save_unit);
    return false;
}

} // namespace

Role
role()
{
    const std::string s = env::enumOr(
        "PSCA_DIST_ROLE", {"off", "coordinator", "worker"}, "off");
    if (s == "coordinator")
        return Role::Coordinator;
    if (s == "worker")
        return Role::Worker;
    return Role::Off;
}

bool
active()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return (g_coordinator && g_coordinator->listening()) ||
           (g_worker && g_worker->connected());
}

void
maybeInitFromEnv()
{
    std::lock_guard<std::mutex> lock(g_mu);
    if (g_inited)
        return;
    const Role r = role();
    if (r == Role::Off)
        return;
    g_inited = true;
    g_role = r;

    const std::string addr_spec =
        env::stringOr("PSCA_DIST_ADDR", "auto");
    const std::string addr_file = cacheDirectory() + "/dist_addr";
    const double connect_s =
        env::doubleOr("PSCA_DIST_CONNECT_S", 60.0, 0.1, 86400.0);

    if (r == Role::Coordinator) {
        const int workers = static_cast<int>(
            env::intOr("PSCA_DIST_WORKERS", 1, 1, 1024));
        const double hb_s =
            env::doubleOr("PSCA_DIST_TIMEOUT_S", 30.0, 0.1, 86400.0);
        g_coordinator = std::make_unique<Coordinator>(
            addr_spec, addr_file, workers, connect_s, hb_s);
        if (!g_coordinator->listening()) {
            g_coordinator.reset();
            return;
        }
        obs::setLiveSnapshotAugmenter(&augmentLiveSnapshot);
    } else {
        const double io_s = env::doubleOr("PSCA_DIST_IO_TIMEOUT_S",
                                          600.0, 1.0, 86400.0);
        const auto heartbeat_ms = static_cast<uint32_t>(
            env::intOr("PSCA_DIST_HEARTBEAT_MS", 500, 10, 60000));
        const int retries = static_cast<int>(
            env::intOr("PSCA_DIST_RETRIES", 3, 0, 1000));
        g_worker = std::make_unique<Worker>(addr_spec, addr_file,
                                            connect_s, io_s,
                                            heartbeat_ms, retries);
        if (!g_worker->connected()) {
            g_worker.reset();
            return;
        }
    }
    setDistScopeHook(&distScope);
}

void
shutdown()
{
    std::lock_guard<std::mutex> lock(g_mu);
    setDistScopeHook(nullptr);
    obs::setLiveSnapshotAugmenter(nullptr);
    if (g_coordinator) {
        g_coordinator->shutdown();
        g_coordinator.reset();
    }
    if (g_worker) {
        g_worker->shutdown();
        g_worker.reset();
    }
    g_inited = false;
    g_role = Role::Off;
}

std::string
coordinatorAddress()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_coordinator ? g_coordinator->address() : std::string();
}

const std::vector<std::string> kFleetWorkerDropPrefixes = {
    "PSCA_DIST_ROLE=", "PSCA_DIST_ADDR=",   "PSCA_DIST_WORKERS=",
    "PSCA_JOURNAL=",   "PSCA_REPORT_DIR=",  "PSCA_HTTP_PORT="};

const std::vector<std::string> kFleetCoordinatorDropPrefixes = {
    "PSCA_DIST_ROLE=", "PSCA_DIST_ADDR=", "PSCA_DIST_WORKERS=",
    "PSCA_HTTP_PORT="};

std::vector<std::string>
filterEnv(const std::vector<std::string> &env,
          const std::vector<std::string> &drop_prefixes)
{
    std::vector<std::string> kept;
    for (const std::string &s : env) {
        bool dropped = false;
        for (const std::string &p : drop_prefixes) {
            if (s.rfind(p, 0) == 0) {
                dropped = true;
                break;
            }
        }
        if (!dropped)
            kept.push_back(s);
    }
    return kept;
}

} // namespace dist
} // namespace psca
