#include "dist/worker.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <mutex>
#include <set>
#include <thread>

#include "common/fault.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/serialize.hh"
#include "dist/netfault.hh"
#include "obs/snapshot.hh"
#include "obs/stats.hh"

namespace psca {
namespace dist {

namespace {

obs::Counter &
counter(const char *name)
{
    return obs::StatRegistry::instance().counter(name);
}

/** One connect() attempt to "host:port"; -1 on failure. */
int
tryConnect(const std::string &spec)
{
    std::string host;
    int port = 0;
    if (!parseHostPort(spec, host, port) || port == 0)
        return -1;
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0)
    {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Read the coordinator's published "host:port" line, if any. */
std::string
readAddrFile(const std::string &path)
{
    std::ifstream in(path);
    std::string line;
    if (!in || !std::getline(in, line))
        return "";
    while (!line.empty() &&
           (line.back() == '\n' || line.back() == '\r' ||
            line.back() == ' '))
        line.pop_back();
    return line;
}

/**
 * Per-message-kind lanes for the wire fault keys: each (scope, lane,
 * unit) triple is an independent substream, and the caller mixes in
 * the connection generation so retries after a rejoin draw fresh.
 */
enum : uint64_t
{
    kLaneEnter = 1,
    kLaneResult = 2,
    kLaneFetch = 3,
    kLaneHeartbeat = 4,
    kLaneLeave = 5,
};

} // namespace

Worker::Worker(const std::string &addr_spec,
               const std::string &addr_file,
               double connect_timeout_s, double io_timeout_s,
               uint32_t heartbeat_ms, int max_rejoins)
    : addrSpec_(addr_spec), addrFile_(addr_file),
      connectTimeoutS_(connect_timeout_s), ioTimeoutS_(io_timeout_s),
      heartbeatMs_(heartbeat_ms), maxRejoins_(max_rejoins)
{
    if (connectAndHello(connect_timeout_s))
        return;
    if (sawShutdown_)
        inform("dist: coordinator shut down before this worker "
               "joined; running locally");
    else
        warn("dist: cannot reach coordinator (",
             addr_spec == "auto" ? addr_file : addr_spec, ") within ",
             connect_timeout_s, "s; running locally");
}

Worker::~Worker()
{
    shutdown();
}

bool
Worker::connectAndHello(double budget_s)
{
    // Bounded reconnect with the journal's deterministic backoff:
    // the coordinator may still be binding (or, under "auto", not
    // have published its address yet).
    const auto deadline = std::chrono::steady_clock::now() +
        std::chrono::duration_cast<
            std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(budget_s));
    const uint64_t backoff_key =
        mixSeeds(Journal::scopeHash("dist.connect"), generation_);
    int fd = -1;
    for (int attempt = 0;; ++attempt) {
        std::string spec = addrSpec_;
        if (spec == "auto")
            spec = readAddrFile(addrFile_);
        if (!spec.empty())
            fd = tryConnect(spec);
        if (fd >= 0)
            break;
        if (stopRequested() ||
            std::chrono::steady_clock::now() >= deadline)
            return false;
        retryBackoffSleep(backoff_key, std::min(attempt, 8));
    }

    // Welcome may take a while: the coordinator only accepts inside
    // its first distributed scope. The handshake itself is never
    // fault-injected — chaos targets the steady-state wire, so a
    // seeded schedule can kill a delivery but not the recovery.
    setSockTimeouts(fd, std::max(budget_s, ioTimeoutS_));
    BinaryWriter hello;
    hello.put<uint32_t>(kProtocolVersion);
    hello.put<uint32_t>(static_cast<uint32_t>(
        ThreadPool::instance().numThreads()));
    hello.put<uint32_t>(id_); // previous id; 0 on first join
    Frame reply;
    if (!sendFrame(fd, Msg::Hello, hello.takeBuffer()) ||
        recvFrame(fd, reply) != RecvStatus::Ok)
    {
        ::close(fd);
        return false;
    }
    if (reply.type == Msg::Shutdown) {
        sawShutdown_ = true;
        ::close(fd);
        return false;
    }
    if (reply.type != Msg::Welcome) {
        ::close(fd);
        return false;
    }
    BinaryReader in(reply.payload.data(), reply.payload.size());
    const auto assigned = in.get<uint32_t>();
    if (!in.good()) {
        ::close(fd);
        return false;
    }
    setSockTimeouts(fd, ioTimeoutS_);
    const bool first = generation_ == 0;
    id_ = assigned;
    fd_ = fd;
    ++generation_;
    obs::StatRegistry::instance()
        .gauge("dist.worker_id")
        .set(static_cast<double>(id_));
    inform("dist: ", first ? "joined" : "rejoined",
           " fleet as worker ", id_);
    emitEvent("dist", LogLevel::Info,
              std::string(first ? "joined" : "rejoined") +
                  " fleet as worker " + std::to_string(id_));
    return true;
}

bool
Worker::rejoin(const char *why)
{
    closeFd();
    if (permanentlyLocal_)
        return false;
    if (sawShutdown_)
        // Orderly end of the campaign, not a fault: finish locally
        // without burning the retry budget or counting a fallback.
        return false;
    warn("dist: connection to coordinator lost (", why,
         "); attempting to rejoin");
    emitEvent("dist", LogLevel::Warn,
              std::string("coordinator connection lost (") + why +
                  "); attempting to rejoin");
    const uint64_t backoff_key = Journal::scopeHash("dist.rejoin");
    for (int attempt = 0; attempt < maxRejoins_; ++attempt) {
        retryBackoffSleep(mixSeeds(backoff_key, generation_),
                          std::min(attempt, 8));
        if (stopRequested())
            return false;
        if (addrSpec_ == "auto" && readAddrFile(addrFile_).empty()) {
            // The address file is gone: the coordinator withdrew it
            // during orderly shutdown (a SIGKILL leaves it behind
            // for the supervisor's replacement). The campaign is
            // over — same as receiving Shutdown, and no fallback:
            // remaining scopes legitimately run locally.
            inform("dist: coordinator address withdrawn; fleet is "
                   "done, continuing locally");
            sawShutdown_ = true;
            return false;
        }
        if (connectAndHello(connectTimeoutS_)) {
            counter("dist.rejoins").add();
            return true;
        }
        if (sawShutdown_)
            return false;
    }
    permanentlyLocal_ = true;
    counter("dist.local_fallbacks").add();
    warn("dist: could not rejoin within ", maxRejoins_,
         " attempts; degrading to local execution");
    emitEvent("dist", LogLevel::Warn,
              "rejoin budget exhausted; degrading to local "
              "execution");
    return false;
}

void
Worker::shutdown()
{
    if (fd_ < 0)
        return;
    (void)sendFrame(fd_, Msg::Bye, "");
    closeFd();
}

void
Worker::closeFd()
{
    if (fd_ < 0)
        return;
    ::close(fd_);
    fd_ = -1;
}

void
Worker::drainShutdown()
{
    // A failed send often races an orderly coordinator shutdown: the
    // Shutdown frame may already sit in our receive buffer. Peek for
    // it so we do not burn the rejoin budget on a fleet that is done.
    if (fd_ < 0)
        return;
    setSockTimeouts(fd_, 0.05);
    Frame f;
    if (recvFrame(fd_, f) == RecvStatus::Ok &&
        f.type == Msg::Shutdown)
        sawShutdown_ = true;
}

bool
Worker::transact(const char *what, Msg type,
                 const std::string &payload, Frame &out,
                 uint64_t fault_key)
{
    if (fd_ < 0) {
        lastWhy_ = what;
        return false;
    }
    const uint64_t wire_key = mixSeeds(fault_key, generation_);
    counter("dist.bytes_sent").add(payload.size() + 17);
    if (!sendFrameChaos(fd_, type, payload, wire_key)) {
        drainShutdown();
        closeFd();
        lastWhy_ = what;
        return false;
    }
    const RecvStatus st =
        recvFrameChaos(fd_, out, wire_key, maxFramePayloadCap());
    if (st != RecvStatus::Ok) {
        closeFd();
        lastWhy_ = recvStatusName(st);
        return false;
    }
    counter("dist.bytes_received").add(out.payload.size() + 17);
    if (out.type == Msg::Shutdown) {
        sawShutdown_ = true;
        closeFd();
        lastWhy_ = "coordinator shut down";
        return false;
    }
    return true;
}

bool
Worker::runScope(
    const std::string &scope, uint64_t config_h, size_t n,
    const std::function<bool(size_t, BinaryReader &)> &load_unit,
    const std::function<void(size_t)> &exec_unit,
    const std::function<void(size_t, BinaryWriter &)> &save_unit)
{
    if (!usable())
        return false;
    const uint64_t scope_h = Journal::scopeHash(scope);
    const uint64_t scope_key = mixSeeds(scope_h, config_h);
    counter("dist.scopes_joined").add();

    auto ident = [&](BinaryWriter &w) {
        w.put<uint64_t>(scope_h);
        w.put<uint64_t>(config_h);
    };

    std::set<uint64_t> have; // slots this worker has filled

    enum class Batch
    {
        Done,
        Lost, // connection died mid-batch; rewind to ScopeEnter
    };

    /**
     * Execute one assigned batch on the thread pool, streaming each
     * serialized result back in completion order while the batch
     * runs (the protocol thread is this one; pool threads only
     * compute and enqueue). Heartbeats cover gaps longer than
     * heartbeatMs_ so a slow unit cannot look like a dead worker.
     *
     * On connection loss the batch keeps computing to completion —
     * results that could not be delivered are simply dropped; after
     * the rejoin the coordinator either already journaled them
     * (dedupe by unit index) or reassigns them, and re-executing a
     * unit is idempotent because unit bodies are deterministic.
     */
    auto run_batch = [&](const std::vector<uint64_t> &units) {
        struct Ready
        {
            uint64_t unit;
            std::string bytes;
        };
        std::mutex mu;
        std::condition_variable cv;
        std::deque<Ready> ready;
        size_t remaining = units.size();
        std::atomic<bool> interrupted{false};
        std::exception_ptr compute_err;

        std::thread compute([&] {
            try {
                ThreadPool::instance().parallelFor(
                    units.size(), [&](size_t k) {
                        const size_t i =
                            static_cast<size_t>(units[k]);
                        if (stopRequested()) {
                            interrupted.store(
                                true, std::memory_order_relaxed);
                            std::lock_guard<std::mutex> lock(mu);
                            --remaining;
                            cv.notify_one();
                            return;
                        }
                        runUnit(scope, config_h, i, exec_unit,
                                "dist.unit");
                        BinaryWriter w;
                        save_unit(i, w);
                        std::lock_guard<std::mutex> lock(mu);
                        ready.push_back(
                            Ready{units[k], w.takeBuffer()});
                        --remaining;
                        cv.notify_one();
                    });
            } catch (...) {
                std::lock_guard<std::mutex> lock(mu);
                compute_err = std::current_exception();
                remaining = 0;
                cv.notify_one();
            }
        });

        bool conn_ok = true;
        std::exception_ptr send_err;
        for (;;) {
            Ready r;
            bool drained = false;
            {
                std::unique_lock<std::mutex> lock(mu);
                if (ready.empty() && remaining != 0)
                    cv.wait_for(
                        lock,
                        std::chrono::milliseconds(heartbeatMs_));
                if (!ready.empty()) {
                    r = std::move(ready.front());
                    ready.pop_front();
                } else if (remaining == 0) {
                    drained = true;
                } else {
                    // Batch still computing; prove liveness.
                    lock.unlock();
                    const uint64_t hb_key = mixSeeds(
                        mixSeeds(mixSeeds(scope_key,
                                          kLaneHeartbeat),
                                 heartbeatSeq_++),
                        generation_);
                    if (fd_ >= 0 && conn_ok &&
                        !heartbeatDropped(hb_key))
                    {
                        counter("dist.bytes_sent").add(17);
                        (void)sendFrameChaos(fd_, Msg::Heartbeat,
                                             "", hb_key);
                    }
                    continue;
                }
            }
            if (drained)
                break;
            if (fd_ < 0 || !conn_ok)
                continue; // keep draining so compute can finish
            try {
                BinaryWriter w;
                ident(w);
                w.put<uint64_t>(r.unit);
                w.put<uint64_t>(fnv1aUpdate(kFnv1aBasis,
                                            r.bytes.data(),
                                            r.bytes.size()));
                w.putString(r.bytes);
                const std::string payload = w.takeBuffer();
                const uint64_t result_key = mixSeeds(
                    mixSeeds(scope_key, kLaneResult), r.unit);
                // net.dup_result: deliver the same Result twice —
                // the coordinator must dedupe by unit index.
                const int copies =
                    duplicateResult(mixSeeds(result_key,
                                             generation_))
                        ? 2
                        : 1;
                bool acked = true;
                for (int c = 0; c < copies && acked; ++c) {
                    Frame reply;
                    acked = transact("result", Msg::Result, payload,
                                     reply,
                                     mixSeeds(result_key,
                                              static_cast<uint64_t>(
                                                  c))) &&
                        reply.type == Msg::Ack;
                }
                if (!acked) {
                    if (fd_ >= 0) {
                        closeFd();
                        lastWhy_ = "unexpected result reply";
                    }
                    conn_ok = false;
                    continue;
                }
                have.insert(r.unit);
                counter("dist.units_executed").add();
            } catch (...) {
                // Shutdown mid-batch: keep draining so the compute
                // thread can finish, then propagate.
                send_err = std::current_exception();
                conn_ok = false;
            }
        }
        compute.join();
        if (compute_err)
            std::rethrow_exception(compute_err);
        if (send_err)
            std::rethrow_exception(send_err);
        if (interrupted.load(std::memory_order_relaxed))
            throw RunInterrupted("worker interrupted mid-batch");
        return conn_ok && fd_ >= 0 ? Batch::Done : Batch::Lost;
    };

    enum class Step
    {
        Done,
        Lost,  // connection died; rejoin and rewind to ScopeEnter
        Abort, // coordinator declined; run the scope locally
    };

    // The assign loop. ScopeEnter doubles as the poll message: it is
    // idempotent on the coordinator, and — unlike a bare Poll — a
    // coordinator that has not reached this scope yet (a restarted
    // one replaying its journal, say) can park us with Wait until
    // its own pipeline arrives here, keeping a fleet whose members
    // drift a scope apart in lockstep instead of diverging.
    auto enter_phase = [&]() -> Step {
        for (;;) {
            BinaryWriter w;
            ident(w);
            w.put<uint64_t>(n);
            w.putString(scope);
            w.put<uint32_t>(static_cast<uint32_t>(
                ThreadPool::instance().numThreads()));
            Frame reply;
            if (!transact("enter", Msg::ScopeEnter, w.takeBuffer(),
                          reply, mixSeeds(scope_key, kLaneEnter)))
                return Step::Lost;
            if (reply.type == Msg::Assign) {
                BinaryReader in(reply.payload.data(),
                                reply.payload.size());
                const std::vector<uint64_t> units =
                    in.getVector<uint64_t>();
                if (!in.good()) {
                    closeFd();
                    lastWhy_ = "bad assign payload";
                    return Step::Lost;
                }
                // dist.worker_crash: die by SIGKILL holding the whole
                // batch, before any of it runs.
                const FaultSite &crash = FAULT_SITE("dist.worker_crash");
                if (!units.empty() && crash.enabled() &&
                    crash.fires(mixSeeds(scope_key, units.front())))
                    std::raise(SIGKILL);
                if (run_batch(units) == Batch::Lost)
                    return Step::Lost;
            } else if (reply.type == Msg::Wait) {
                BinaryReader in(reply.payload.data(),
                                reply.payload.size());
                const auto ms = in.get<uint32_t>();
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(
                        std::min<uint32_t>(ms, 1000)));
            } else if (reply.type == Msg::ScopeDone) {
                return Step::Done;
            } else if (reply.type == Msg::Error) {
                BinaryReader in(reply.payload.data(),
                                reply.payload.size());
                warn("dist: coordinator declined scope '", scope,
                     "' (", in.getString(), "); running it locally");
                return Step::Abort;
            } else {
                closeFd();
                lastWhy_ = "unexpected reply";
                return Step::Lost;
            }
        }
    };

    // Fetch every unit a peer computed (or the journal already
    // held), in index order, so this process's in-memory state is
    // identical to the coordinator's.
    auto fetch_phase = [&]() -> Step {
        for (uint64_t i = 0; i < n; ++i) {
            if (have.count(i) != 0)
                continue;
            BinaryWriter w;
            ident(w);
            w.put<uint64_t>(i);
            Frame reply;
            if (!transact("fetch", Msg::Fetch, w.takeBuffer(), reply,
                          mixSeeds(mixSeeds(scope_key, kLaneFetch),
                                   i)))
                return Step::Lost;
            if (reply.type != Msg::Data) {
                warn("dist: unit ", i, " of scope '", scope,
                     "' not fetchable; recomputing scope locally");
                return Step::Abort;
            }
            BinaryReader in(reply.payload.data(),
                            reply.payload.size());
            const auto unit = in.get<uint64_t>();
            const auto sum = in.get<uint64_t>();
            const std::string bytes = in.getString();
            if (!in.good() || unit != i ||
                fnv1aUpdate(kFnv1aBasis, bytes.data(),
                            bytes.size()) != sum)
            {
                closeFd();
                warn("dist: unit ", i, " of scope '", scope,
                     "' fetched corrupt; recomputing scope locally");
                return Step::Abort;
            }
            BinaryReader payload(bytes.data(), bytes.size());
            if (!load_unit(static_cast<size_t>(i), payload)) {
                closeFd();
                warn("dist: unit ", i, " of scope '", scope,
                     "' failed to deserialize; recomputing scope "
                     "locally");
                return Step::Abort;
            }
            have.insert(i);
            counter("dist.units_fetched").add();
        }
        return Step::Done;
    };

    // Scope participation: any connection loss rejoins and rewinds
    // to ScopeEnter. Work already done survives in `have` (executed
    // and acked, or fetched and loaded), so a rewind never repeats
    // delivered units, and re-delivery of undelivered ones is
    // idempotent on the coordinator.
    for (;;) {
        if (fd_ < 0 &&
            !rejoin(lastWhy_.empty() ? "reconnect at scope entry"
                                     : lastWhy_.c_str()))
            return false;
        Step st = enter_phase();
        if (st == Step::Done)
            st = fetch_phase();
        if (st == Step::Lost)
            continue;
        if (st == Step::Abort)
            return false;
        break;
    }

    // Leave the scope, shipping a cumulative registry snapshot for
    // the coordinator's /stats.json aggregation.
    obs::StatSnapshot snap;
    snap.capture(obs::StatRegistry::instance());
    BinaryWriter sw;
    snap.serialize(sw);
    BinaryWriter w;
    ident(w);
    w.putString(sw.takeBuffer());
    Frame reply;
    if (!transact("leave", Msg::ScopeLeave, w.takeBuffer(), reply,
                  mixSeeds(scope_key, kLaneLeave)))
        return true; // slots are all filled; loss only affects stats
    return true;
}

} // namespace dist
} // namespace psca
