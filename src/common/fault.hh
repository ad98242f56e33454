/**
 * @file
 * Deterministic fault injection. Code declares named fault sites —
 *
 *     static FaultSite &drop = FAULT_SITE("telemetry.dropped_snapshot");
 *     if (drop.enabled() && drop.fires(interval_key)) { ... degrade ... }
 *
 * — that cost one cached-reference bool load when disabled, and are
 * activated via PSCA_FAULTS="site:rate[:param],..." (or
 * FaultRegistry::configure() from tests and benches).
 *
 * Determinism contract: every draw is a pure function of
 * (fault seed, site name, caller-supplied stream key) through the
 * same taskSeed()/mixSeeds() machinery the thread pool uses for RNG
 * substreams. Callers key draws by stable identities (trace content
 * hash, interval index, inference count) — never by wall clock or
 * thread id — so a given PSCA_FAULTS + PSCA_FAULT_SEED produces a
 * bit-identical fault sequence at any PSCA_THREADS.
 *
 * Every fire is tallied per site; the obs report layer exports the
 * tallies as "fault.<site>.fires" counters (obs sits above common in
 * the link order, so the pull goes that way), and the layer that
 * handles the fault counts its own degradation response
 * (carry-forwards, quarantines, vetoes) — run reports show both the
 * injection and the recovery.
 *
 * Site catalog (rates are per-check probabilities; see DESIGN.md §10):
 *
 *   telemetry.stuck_counter   one counter's delta reads 0 (param:
 *                             registry index; default seed-derived)
 *   telemetry.saturation      one counter wraps at 2^param bits
 *                             (default 20; index seed-derived)
 *   telemetry.noise           multiplicative Gaussian noise on every
 *                             recorded delta (param: sigma, def 0.05)
 *   telemetry.dropped_snapshot  the whole interval snapshot is lost
 *   uc.deadline_miss          inference misses its budget deadline
 *                             (param>=1: miss deterministically when
 *                             static ops exceed the budget)
 *   uc.vm_trap                the firmware VM traps mid-program
 *   persist.memo_corrupt      a sim-memo file fails checksum on load
 *   persist.cache_corrupt     a corpus cache file fails checksum
 *   persist.io_error          transient open/IO failure (bounded
 *                             retry with backoff handles it)
 *   net.frame_corrupt         one wire frame is corrupted in flight;
 *                             the receiver detects the bad checksum
 *                             and drops the connection
 *   net.torn_send             a frame send tears mid-way and the
 *                             connection dies with a partial frame
 *                             on the wire
 *   net.conn_reset            the connection resets instead of
 *                             delivering a frame
 *   net.recv_stall            a receive stalls param ms (default 20)
 *                             before reading
 *   net.heartbeat_drop        a worker heartbeat is silently dropped
 *   net.dup_result            a worker delivers one Result frame
 *                             twice (the coordinator dedupes by unit
 *                             index, first write wins)
 *   dist.worker_crash         a worker SIGKILLs itself right after it
 *                             is assigned a non-empty batch (keyed by
 *                             scope and first unit; the coordinator
 *                             reassigns the batch)
 *   serve.retrain_fail        a background retrain dies before
 *                             producing a candidate (keyed by retrain
 *                             ordinal; the service cools down on the
 *                             active firmware)
 *   serve.swap_crash          the promotion transaction crashes
 *                             between staging and commit (keyed by
 *                             the candidate version; the ring keeps
 *                             the last-good image)
 *   serve.shadow_corrupt      a shadow A/B score word is corrupted
 *                             (keyed by scored-block ordinal; the
 *                             promotion gate rejects the candidate on
 *                             the non-finite score)
 *   serve.probation_regress   the post-swap probation window sees
 *                             synthetic guardrail trips, param per
 *                             block (default 1; keyed by promotion
 *                             ordinal and probation block — forces
 *                             the auto-rollback path)
 *
 * The net.* sites key their draws by stable wire identities (scope
 * hash, unit index, heartbeat sequence) mixed with the connection
 * generation, so a retry after reconnect draws a fresh substream and
 * seeded chaos schedules cannot livelock a rejoining worker
 * (src/dist/netfault.hh).
 */

#ifndef PSCA_COMMON_FAULT_HH
#define PSCA_COMMON_FAULT_HH

#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/rng.hh"

namespace psca {

/** One named fault-injection point. */
class FaultSite
{
  public:
    const std::string &name() const { return name_; }

    /** True when PSCA_FAULTS (or configure()) armed this site. */
    bool enabled() const { return enabled_; }

    /** Per-check fire probability in [0, 1]. */
    double rate() const { return rate_; }

    /** The optional site parameter, or @p def when not given. */
    double
    param(double def) const
    {
        return hasParam_ ? param_ : def;
    }

    /**
     * Deterministic Bernoulli draw: fires iff the substream for
     * (site, key) lands below rate. Pure function of the fault seed,
     * the site name, and @p key — independent of call order and
     * thread count. Tallies the fire (exported to run reports as
     * "fault.<site>.fires").
     */
    bool
    fires(uint64_t key) const
    {
        uint64_t s = taskSeed(siteSeed_, key);
        const double u =
            static_cast<double>(splitMix64(s) >> 11) * 0x1.0p-53;
        if (u >= rate_)
            return false;
        fireCount_.fetch_add(1, std::memory_order_relaxed);
        // With tracing on, each fire lands in the flame view next to
        // whatever degraded-mode handling it triggered.
        traceInstantHook(name_.c_str(), "key",
                         static_cast<long long>(key));
        return true;
    }

    /** Fires tallied since the last configure(). */
    uint64_t
    fireCount() const
    {
        return fireCount_.load(std::memory_order_relaxed);
    }

    /** Deterministic standard-normal draw for (key, lane). */
    double
    gaussian(uint64_t key, uint64_t lane) const
    {
        Rng rng(taskSeed(mixSeeds(siteSeed_, lane), key));
        return rng.gaussian();
    }

    /** Deterministic uniform draw in [0, n) for (key, lane). */
    uint64_t
    draw(uint64_t key, uint64_t lane, uint64_t n) const
    {
        Rng rng(taskSeed(mixSeeds(siteSeed_, ~lane), key));
        return rng.below(n);
    }

  private:
    friend class FaultRegistry;

    explicit FaultSite(std::string name) : name_(std::move(name)) {}

    std::string name_;
    uint64_t siteSeed_ = 0;
    bool enabled_ = false;
    double rate_ = 0.0;
    double param_ = 0.0;
    bool hasParam_ = false;
    mutable std::atomic<uint64_t> fireCount_{0};
};

/**
 * Process-wide site registry. Sites are created on first declaration
 * and live for the process; configure() rewrites their arming in
 * place, so cached FAULT_SITE references stay valid. Like
 * ThreadPool::configure(), configure() must not race live fault
 * checks — call it between runs, the way tests and benches do.
 */
class FaultRegistry
{
  public:
    static FaultRegistry &instance();

    /** Look up (creating if needed) the site named @p name. */
    FaultSite &site(const std::string &name);

    /**
     * Re-arm all sites from a spec string
     * ("site:rate[:param],...", "" disarms everything). Malformed
     * specs are fatal: a typo must never silently run fault-free.
     */
    void configure(const std::string &spec, uint64_t seed);

    /** Re-arm from spec with the current seed. */
    void configure(const std::string &spec);

    /** True when at least one site is armed. */
    bool anyEnabled() const { return anyEnabled_; }

    uint64_t seed() const { return seed_; }

    /** Visit every declared site (report export, tests). */
    void forEachSite(
        const std::function<void(const FaultSite &)> &fn) const;

  private:
    FaultRegistry(); // parses PSCA_FAULTS / PSCA_FAULT_SEED

    struct SpecEntry
    {
        double rate = 0.0;
        double param = 0.0;
        bool hasParam = false;
    };

    void armSite(FaultSite &site) const;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<FaultSite>> sites_;
    std::map<std::string, SpecEntry> spec_;
    uint64_t seed_ = 0;
    bool anyEnabled_ = false;
};

/** Shorthand used by FAULT_SITE. */
inline FaultSite &
faultSite(const char *name)
{
    return FaultRegistry::instance().site(name);
}

/**
 * Declare-and-cache a fault site: the registry lookup runs once per
 * call site, after which the expression is a static reference load.
 */
#define FAULT_SITE(name)                                              \
    ([]() -> ::psca::FaultSite & {                                    \
        static ::psca::FaultSite &site_ref = ::psca::faultSite(name); \
        return site_ref;                                              \
    }())

} // namespace psca

#endif // PSCA_COMMON_FAULT_HH
