#include "dist/coordinator.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/journal.hh"
#include "common/logging.hh"
#include "common/serialize.hh"
#include "dist/netfault.hh"
#include "dist/protocol.hh"
#include "obs/stats.hh"

namespace psca {
namespace dist {

namespace {

obs::Counter &
counter(const char *name)
{
    return obs::StatRegistry::instance().counter(name);
}

// Chaos-substream lanes for coordinator-side wire faults, keyed per
// connection by (lane, worker id, frame sequence). Worker ids are
// monotonically fresh across rejoins, so a retried handshake or
// delivery always draws a new substream and cannot livelock.
constexpr uint64_t kCoordRxLane = 0xc0de0001u;
constexpr uint64_t kCoordTxLane = 0xc0de0002u;

} // namespace

Coordinator::Coordinator(const std::string &addr_spec,
                         const std::string &addr_file,
                         int expected_workers,
                         double connect_timeout_s,
                         double heartbeat_timeout_s)
    : addrFile_(addr_file), expectedWorkers_(expected_workers),
      connectTimeoutS_(connect_timeout_s),
      heartbeatTimeoutS_(heartbeat_timeout_s)
{
    std::string host = "127.0.0.1";
    int port = 0;
    if (addr_spec != "auto" &&
        !parseHostPort(addr_spec, host, port))
    {
        warn("dist: bad PSCA_DIST_ADDR '", addr_spec,
             "' (expected host:port or auto); fleet disabled");
        return;
    }

    // Close-on-exec: workers fork+exec'd after the bind must not hold
    // the listener, or closing it would not refuse their joins.
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) {
        warn("dist: socket() failed (", std::strerror(errno), ")");
        return;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        warn("dist: bad bind address '", host,
             "' (expected IPv4 dotted quad)");
        ::close(fd);
        return;
    }
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(fd, 64) != 0)
    {
        warn("dist: cannot listen on ", host, ":", port, " (",
             std::strerror(errno), ")");
        ::close(fd);
        return;
    }
    sockaddr_in bound = {};
    socklen_t blen = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &blen) == 0)
        port = static_cast<int>(ntohs(bound.sin_port));
    listenFd_ = fd;
    address_ = host + ":" + std::to_string(port);

    if (!addrFile_.empty()) {
        // Publish atomically so a polling worker never reads a torn
        // address.
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(addrFile_).parent_path(), ec);
        const std::string tmp = addrFile_ + ".tmp";
        {
            std::ofstream out(tmp, std::ios::trunc);
            out << address_ << "\n";
        }
        std::filesystem::rename(tmp, addrFile_, ec);
        if (ec)
            warn("dist: cannot publish address file '", addrFile_,
                 "'");
    }

    // Registered only when a fleet is actually serving, so fleetless
    // runs keep their reports byte-identical.
    obs::StatRegistry::instance().gauge("dist.workers_connected");
    inform("dist: coordinator listening on ", address_,
           " (expecting ", expectedWorkers_, " workers)");
    emitEvent("dist", LogLevel::Info,
              "coordinator listening on " + address_);
}

Coordinator::~Coordinator()
{
    shutdown();
}

void
Coordinator::shutdown()
{
    for (Conn &c : conns_) {
        if (c.fd < 0)
            continue;
        (void)sendFrame(c.fd, Msg::Shutdown, "");
        ::close(c.fd);
        c.fd = -1;
    }
    conns_.clear();
    if (listenFd_ >= 0) {
        // Joins still queued on the listener get Shutdown too: a
        // coordinator that served no scope never accepted them, and
        // each worker would wait out its reply timeout. Reading the
        // Hello first makes the close an orderly one.
        ::fcntl(listenFd_, F_SETFL, O_NONBLOCK);
        for (int fd; (fd = ::accept(listenFd_, nullptr, nullptr)) >= 0;) {
            setSockTimeouts(fd, 1.0);
            Frame hello;
            (void)recvFrame(fd, hello);
            (void)sendFrame(fd, Msg::Shutdown, "");
            ::close(fd);
        }
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!addrFile_.empty()) {
        std::error_code ec;
        std::filesystem::remove(addrFile_, ec);
        addrFile_.clear();
    }
}

size_t
Coordinator::liveWorkers() const
{
    size_t live = 0;
    for (const Conn &c : conns_)
        if (c.fd >= 0 && c.helloed)
            ++live;
    return live;
}

bool
Coordinator::assignmentGateOpen()
{
    return joined_ >= static_cast<uint32_t>(expectedWorkers_) ||
        std::chrono::steady_clock::now() >= joinDeadline_;
}

void
Coordinator::acceptNew()
{
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0)
        return;
    // The serve loop is single-threaded: one connection mid-frame
    // (or one peer not draining its socket) must never hold every
    // other worker's fetches hostage for the full heartbeat window.
    // poll() gates readiness, so a short per-call bound only bites
    // on genuinely wedged wire traffic — which dropWorker() then
    // converts into a reassignment the fleet absorbs.
    setSockTimeouts(fd, std::min(heartbeatTimeoutS_, 5.0));
    Conn c;
    c.fd = fd;
    c.lastSeen = std::chrono::steady_clock::now();
    conns_.push_back(std::move(c));
}

void
Coordinator::dropWorker(size_t idx, const char *why, Scope *ss)
{
    Conn &c = conns_[idx];
    if (c.fd < 0)
        return;
    ::close(c.fd);
    c.fd = -1;
    size_t reassigned = 0;
    if (ss != nullptr && !c.assigned.empty()) {
        // Units the worker held but never journaled go back to the
        // head of the queue: the journal IS the completion record,
        // so nothing a dead worker did half-way can be lost or
        // double-counted.
        for (auto it = c.assigned.rbegin(); it != c.assigned.rend();
             ++it)
            ss->queue.push_front(*it);
        reassigned = c.assigned.size();
        c.assigned.clear();
        counter("dist.units_reassigned").add(reassigned);
    }
    const bool clean = std::strcmp(why, "bye") == 0;
    if (c.helloed) {
        // Re-anchor the rejoin grace at the moment of *observed*
        // loss. lastLive_ otherwise only advances while the serve
        // loop spins; if the loop was wedged in one blocking socket
        // call, the stale timestamp would make the fleet look long
        // dead the instant it recovers and trigger local fallback
        // just as the dropped workers are reconnecting.
        lastLive_ = std::chrono::steady_clock::now();
    }
    if (c.helloed && !clean)
        counter("dist.workers_lost").add();
    obs::StatRegistry::instance()
        .gauge("dist.workers_connected")
        .set(static_cast<double>(liveWorkers()));
    if (!clean) {
        warn("dist: worker ", c.id, " lost (", why, "); ",
             reassigned, " units reassigned");
        emitEvent("dist", LogLevel::Warn,
                  "worker " + std::to_string(c.id) + " lost (" + why +
                      "); " + std::to_string(reassigned) +
                      " units reassigned");
    }
}

bool
Coordinator::handleFrame(size_t idx, Scope &ss)
{
    Conn &c = conns_[idx];
    Frame f;
    const RecvStatus st = recvFrameChaos(
        c.fd, f,
        mixSeeds(mixSeeds(kCoordRxLane, c.id), c.rxSeq++),
        maxFramePayloadCap());
    if (st != RecvStatus::Ok) {
        if (st == RecvStatus::Oversized)
            counter("dist.oversized_frames").add();
        dropWorker(idx,
                   st == RecvStatus::Closed ? "disconnected"
                                            : recvStatusName(st),
                   &ss);
        return false;
    }
    c.lastSeen = std::chrono::steady_clock::now();
    counter("dist.bytes_received").add(f.payload.size() + 17);

    auto reply = [&](Msg type, const std::string &payload) {
        counter("dist.bytes_sent").add(payload.size() + 17);
        if (!sendFrameChaos(c.fd, type, payload,
                            mixSeeds(mixSeeds(kCoordTxLane, c.id),
                                     c.txSeq++)))
        {
            dropWorker(idx, "send failed", &ss);
            return false;
        }
        return true;
    };
    auto replyError = [&](const std::string &msg) {
        BinaryWriter w;
        w.putString(msg);
        return reply(Msg::Error, w.takeBuffer());
    };
    /** Assign up to the worker's capacity, or report scope status. */
    auto assignOrWait = [&]() {
        if (!assignmentGateOpen()) {
            BinaryWriter w;
            w.put<uint32_t>(100);
            return reply(Msg::Wait, w.takeBuffer());
        }
        if (!ss.queue.empty()) {
            const size_t k =
                std::min<size_t>(ss.queue.size(),
                                 std::max<uint32_t>(1, c.threads));
            std::vector<uint64_t> units(ss.queue.begin(),
                                        ss.queue.begin() +
                                            static_cast<long>(k));
            ss.queue.erase(ss.queue.begin(),
                           ss.queue.begin() + static_cast<long>(k));
            c.assigned.insert(c.assigned.end(), units.begin(),
                              units.end());
            counter("dist.units_assigned").add(k);
            BinaryWriter w;
            w.putVector(units);
            return reply(Msg::Assign, w.takeBuffer());
        }
        if (ss.doneCount == ss.n)
            return reply(Msg::ScopeDone, "");
        BinaryWriter w;
        w.put<uint32_t>(200);
        return reply(Msg::Wait, w.takeBuffer());
    };

    BinaryReader in(f.payload.data(), f.payload.size());
    switch (f.type) {
      case Msg::Hello: {
        const auto version = in.get<uint32_t>();
        const auto threads = in.get<uint32_t>();
        const auto prev_id = in.get<uint32_t>();
        if (!in.good() || version != kProtocolVersion) {
            replyError("protocol version mismatch");
            dropWorker(idx, "bad hello", &ss);
            return false;
        }
        c.helloed = true;
        c.id = nextWorkerId_++;
        c.threads = std::max<uint32_t>(1, threads);
        ++joined_;
        counter("dist.workers_joined").add();
        if (prev_id != 0) {
            // A rejoining worker: it gets a fresh id, so retire the
            // snapshot its previous incarnation shipped — the next
            // ScopeLeave carries a cumulative superset and must not
            // be double-merged into /stats.json.
            counter("dist.rejoins").add();
            {
                std::lock_guard<std::mutex> lock(snapMu_);
                workerSnapshots_.erase(prev_id);
            }
            inform("dist: worker ", c.id, " rejoined (was ",
                   prev_id, ", ", c.threads, " threads)");
            emitEvent("dist", LogLevel::Info,
                      "worker " + std::to_string(c.id) +
                          " rejoined (was " +
                          std::to_string(prev_id) + ")");
        } else {
            inform("dist: worker ", c.id, " joined (", c.threads,
                   " threads)");
            emitEvent("dist", LogLevel::Info,
                      "worker " + std::to_string(c.id) + " joined");
        }
        obs::StatRegistry::instance()
            .gauge("dist.workers_connected")
            .set(static_cast<double>(liveWorkers()));
        BinaryWriter w;
        w.put<uint32_t>(c.id);
        return reply(Msg::Welcome, w.takeBuffer());
      }
      case Msg::ScopeEnter: {
        const auto scope_h = in.get<uint64_t>();
        const auto config_h = in.get<uint64_t>();
        const auto n = in.get<uint64_t>();
        const std::string name = in.getString();
        const auto cap = in.get<uint32_t>();
        if (!in.good())
            return replyError("bad ScopeEnter"), false;
        if (scope_h != ss.scopeHash || config_h != ss.configHash ||
            n != ss.n)
        {
            const uint64_t key =
                mixSeeds(mixSeeds(scope_h, config_h), n);
            if (served_.count(key) != 0) {
                // A lagging worker asking for a scope already
                // retired: it must compute that scope locally and
                // catch up (identical bytes either way).
                return replyError(
                    "scope '" + name +
                    "' already served; coordinator now serves '" +
                    ss.name + "'");
            }
            // A worker AHEAD of the coordinator (it finished this
            // scope early and moved on): hold it until the
            // coordinator's own pipeline reaches that scope.
            BinaryWriter w;
            w.put<uint32_t>(200);
            return reply(Msg::Wait, w.takeBuffer());
        }
        c.inScope = true;
        c.left = false;
        c.threads = std::max<uint32_t>(1, cap);
        return assignOrWait();
      }
      case Msg::Poll: {
        const auto scope_h = in.get<uint64_t>();
        const auto config_h = in.get<uint64_t>();
        if (!in.good() || scope_h != ss.scopeHash ||
            config_h != ss.configHash || !c.inScope)
            return replyError("poll outside the served scope");
        return assignOrWait();
      }
      case Msg::Heartbeat:
        return true; // one-way; lastSeen already refreshed
      case Msg::Result: {
        const auto scope_h = in.get<uint64_t>();
        const auto config_h = in.get<uint64_t>();
        const auto unit = in.get<uint64_t>();
        const auto payload_sum = in.get<uint64_t>();
        const std::string bytes = in.getString();
        if (!in.good() || scope_h != ss.scopeHash ||
            config_h != ss.configHash || unit >= ss.n ||
            fnv1aUpdate(kFnv1aBasis, bytes.data(), bytes.size()) !=
                payload_sum)
        {
            dropWorker(idx, "corrupt result", &ss);
            return false;
        }
        auto assigned_it =
            std::find(c.assigned.begin(), c.assigned.end(), unit);
        if (assigned_it != c.assigned.end())
            c.assigned.erase(assigned_it);
        if (ss.doneSet.count(unit) != 0) {
            // A unit reassigned after a heartbeat timeout — or
            // deliberately duplicated by the net.dup_result chaos
            // site — can land twice; both copies are byte-identical
            // (first write wins), so the second is simply
            // acknowledged and ignored.
            counter("dist.duplicate_results").add();
            return reply(Msg::Ack, "");
        }
        BinaryReader payload(bytes.data(), bytes.size());
        if (!(*ss.loadUnit)(static_cast<size_t>(unit), payload)) {
            dropWorker(idx, "result failed to deserialize", &ss);
            return false;
        }
        if (!ss.journal->commitUnitPayload(ss.name, ss.configHash,
                                           unit, bytes.data(),
                                           bytes.size()))
        {
            // Mirrors the local best-effort checkpoint semantics:
            // the in-memory slot is filled and the campaign
            // continues; only resumability (and fetchability) of
            // this unit is lost.
            warn("dist: unit ", unit, " of scope '", ss.name,
                 "' received but not journaled");
        }
        const auto queued = std::find(ss.queue.begin(),
                                      ss.queue.end(), unit);
        if (queued != ss.queue.end())
            ss.queue.erase(queued);
        ss.doneSet.insert(unit);
        ++ss.doneCount;
        counter("dist.units_completed").add();
        return reply(Msg::Ack, "");
      }
      case Msg::Fetch: {
        const auto scope_h = in.get<uint64_t>();
        const auto config_h = in.get<uint64_t>();
        const auto unit = in.get<uint64_t>();
        std::string bytes;
        if (!in.good() || scope_h != ss.scopeHash ||
            config_h != ss.configHash ||
            !ss.journal->readUnitPayload(ss.name, ss.configHash,
                                         unit, bytes))
            return replyError("unit " + std::to_string(unit) +
                              " not fetchable");
        counter("dist.fetches_served").add();
        BinaryWriter w;
        w.put<uint64_t>(unit);
        w.put<uint64_t>(fnv1aUpdate(kFnv1aBasis, bytes.data(),
                                    bytes.size()));
        w.putString(bytes);
        return reply(Msg::Data, w.takeBuffer());
      }
      case Msg::ScopeLeave: {
        const auto scope_h = in.get<uint64_t>();
        const auto config_h = in.get<uint64_t>();
        const std::string snap_bytes = in.getString();
        if (!in.good() || scope_h != ss.scopeHash ||
            config_h != ss.configHash)
            return replyError("leave outside the served scope");
        obs::StatSnapshot snap;
        BinaryReader sr(snap_bytes.data(), snap_bytes.size());
        if (snap.deserialize(sr)) {
            std::lock_guard<std::mutex> lock(snapMu_);
            workerSnapshots_[c.id] = std::move(snap);
        }
        c.left = true;
        return reply(Msg::Ack, "");
      }
      case Msg::Bye:
        dropWorker(idx, "bye", &ss);
        return false;
      default:
        dropWorker(idx, "unexpected frame", &ss);
        return false;
    }
}

void
Coordinator::checkLiveness(Scope &ss)
{
    const auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < conns_.size(); ++i) {
        Conn &c = conns_[i];
        if (c.fd < 0 || !c.inScope || c.left)
            continue;
        const double silent =
            std::chrono::duration<double>(now - c.lastSeen).count();
        if (silent > heartbeatTimeoutS_)
            dropWorker(i, "heartbeat timeout", &ss);
    }
}

bool
Coordinator::runScope(
    Journal &journal, const std::string &scope, uint64_t config_h,
    size_t n, const std::vector<size_t> &pending,
    const std::function<bool(size_t, BinaryReader &)> &load_unit,
    const std::function<void(size_t, BinaryWriter &)> &save_unit)
{
    (void)save_unit;
    if (!listening())
        return false;
    if (!joinWaited_) {
        joinWaited_ = true;
        joinDeadline_ = std::chrono::steady_clock::now() +
            std::chrono::duration_cast<
                std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(connectTimeoutS_));
    }

    Scope ss;
    ss.journal = &journal;
    ss.name = scope;
    ss.scopeHash = Journal::scopeHash(scope);
    ss.configHash = config_h;
    ss.n = n;
    ss.loadUnit = &load_unit;
    // Whether this serve succeeds or falls back to local execution,
    // the scope is history afterwards: a worker asking for it later
    // is lagging and must compute it locally.
    served_.insert(mixSeeds(mixSeeds(ss.scopeHash, config_h),
                            static_cast<uint64_t>(n)));
    for (size_t u : pending)
        ss.queue.push_back(u);
    // Everything not pending was loaded from the journal before the
    // hook ran; those units are fetchable but never assigned.
    {
        auto p = pending.begin();
        for (size_t i = 0; i < n; ++i) {
            if (p != pending.end() && *p == i) {
                ++p;
                continue;
            }
            ss.doneSet.insert(i);
        }
    }
    ss.doneCount = ss.doneSet.size();
    for (Conn &c : conns_) {
        c.inScope = false;
        c.left = false;
        c.assigned.clear();
    }
    counter("dist.scopes_served").add();
    lastLive_ = std::chrono::steady_clock::now();
    const uint64_t span_start =
        traceHooksEnabled() ? steadyNowNs() : 0;

    // Barrier grace: once every unit is journaled and every in-scope
    // worker has left, linger briefly for live workers that have not
    // entered yet so they can be told ScopeDone and fetch instead of
    // recomputing the scope locally.
    std::chrono::steady_clock::time_point grace_deadline{};
    bool grace_armed = false;

    for (;;) {
        if (stopRequested()) {
            emitEvent("dist", LogLevel::Warn,
                      "coordinator interrupted; broadcasting "
                      "shutdown");
            shutdown();
            throw RunInterrupted(
                "distributed scope '" + scope +
                "' interrupted; completed units are journaled");
        }

        const bool complete = ss.doneCount == ss.n;
        bool in_scope_left = true;
        bool all_entered = true;
        for (const Conn &c : conns_) {
            if (c.fd < 0 || !c.helloed)
                continue;
            if (c.inScope && !c.left)
                in_scope_left = false;
            if (!c.inScope)
                all_entered = false;
        }
        if (complete && in_scope_left) {
            if (all_entered)
                break;
            const auto now = std::chrono::steady_clock::now();
            if (!grace_armed) {
                grace_armed = true;
                grace_deadline = now + std::chrono::seconds(2);
            }
            if (now >= grace_deadline)
                break;
        }

        const auto now_tp = std::chrono::steady_clock::now();
        if (liveWorkers() > 0)
            lastLive_ = now_tp;
        else if (assignmentGateOpen() && !complete) {
            // Rejoin grace: once any worker has ever joined, demand
            // continuous worker absence longer than the heartbeat
            // timeout before abandoning the fleet — workers that
            // lost their sockets to a chaos burst (or a coordinator
            // restart) are usually mid-rejoin, not dead. A fleet
            // nobody ever joined falls back as soon as the join
            // deadline passes, as before.
            const double dead_for =
                std::chrono::duration<double>(now_tp - lastLive_)
                    .count();
            const double grace =
                joined_ > 0 ? std::max(heartbeatTimeoutS_, 2.0)
                            : 0.0;
            if (dead_for >= grace) {
                // No fleet left. The local parallelFor path
                // re-executes every still-pending index
                // deterministically; units already journaled just
                // get rewritten with identical bytes.
                warn("dist: no live workers for scope '", scope,
                     "'; falling back to local execution");
                emitEvent("dist", LogLevel::Warn,
                          "scope '" + scope +
                              "' falling back to local execution");
                counter("dist.local_fallbacks").add();
                if (span_start)
                    traceSpanHook("dist.scope", span_start,
                                  steadyNowNs(), "units",
                                  static_cast<long long>(n),
                                  "fallback", 1);
                return false;
            }
        }

        std::vector<pollfd> pfds;
        std::vector<size_t> conn_of;
        pfds.push_back(pollfd{listenFd_, POLLIN, 0});
        for (size_t i = 0; i < conns_.size(); ++i) {
            if (conns_[i].fd < 0)
                continue;
            pfds.push_back(pollfd{conns_[i].fd, POLLIN, 0});
            conn_of.push_back(i);
        }
        const int pr = ::poll(pfds.data(),
                              static_cast<nfds_t>(pfds.size()), 100);
        if (pr < 0) {
            // EINTR is routine (signal delivery); anything else is
            // throttled so a persistent poll error — which returns
            // immediately — cannot spin this loop hot.
            if (errno != EINTR) {
                warn("dist: poll failed (", std::strerror(errno),
                     ")");
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(50));
            }
        } else if (pr > 0) {
            if (pfds[0].revents != 0)
                acceptNew();
            for (size_t k = 1; k < pfds.size(); ++k)
                if (pfds[k].revents != 0)
                    (void)handleFrame(conn_of[k - 1], ss);
        }
        checkLiveness(ss);
    }

    if (span_start)
        traceSpanHook("dist.scope", span_start, steadyNowNs(),
                      "units", static_cast<long long>(n), "workers",
                      static_cast<long long>(liveWorkers()));
    return true;
}

void
Coordinator::augmentSnapshot(obs::StatSnapshot &snap)
{
    std::lock_guard<std::mutex> lock(snapMu_);
    for (const auto &[id, worker_snap] : workerSnapshots_)
        snap.merge(worker_snap);
}

} // namespace dist
} // namespace psca
