#include "core/runner.hh"

#include <csignal>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "common/env.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "dist/dist.hh"
#include "obs/http.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace psca {
namespace runner {

namespace {

std::atomic<int> g_signalCount{0};

extern "C" void
onStopSignal(int)
{
    // Async-signal-safe: one relaxed atomic increment, one relaxed
    // store inside requestStop(). Anything heavier (logging, IO)
    // happens on the threads that poll the flag.
    const int prior =
        g_signalCount.fetch_add(1, std::memory_order_relaxed);
    if (prior == 0) {
        requestStop();
    } else {
        // Second signal: the user is insisting. The journal is
        // append-atomic at any instant, so a hard exit stays
        // resumable — only the currently in-flight units are lost.
        _exit(kResumableExit);
    }
}

/**
 * The watchdog: one background thread that enforces the run deadline.
 * Started only when PSCA_DEADLINE_S is set, and joined (via stop())
 * before guardedMain returns so it never outlives the body's stack.
 */
class Watchdog
{
  public:
    Watchdog(double deadline_s, double grace_s)
        : deadlineS_(deadline_s), graceS_(grace_s),
          start_(std::chrono::steady_clock::now())
    {
        if (deadlineS_ > 0)
            thread_ = std::thread([this] { loop(); });
    }

    ~Watchdog() { stop(); }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            done_ = true;
        }
        cv_.notify_all();
        if (thread_.joinable())
            thread_.join();
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mu_);
        bool stop_requested = false;
        for (;;) {
            cv_.wait_for(lock, std::chrono::milliseconds(250),
                         [this] { return done_; });
            if (done_)
                return;
            const double elapsed =
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start_)
                    .count();
            if (!stop_requested && elapsed >= deadlineS_) {
                stop_requested = true;
                warn("deadline: PSCA_DEADLINE_S=", deadlineS_,
                     " reached after ", elapsed,
                     " s; requesting checkpoint-and-stop (grace ",
                     graceS_, " s)");
                emitEvent("watchdog", LogLevel::Warn,
                          "deadline reached; requesting "
                          "checkpoint-and-stop");
                requestStop();
            }
            if (stop_requested && elapsed >= deadlineS_ + graceS_) {
                warn("deadline: run did not unwind within the grace "
                     "period; forcing resumable exit");
                _exit(kResumableExit);
            }
        }
    }

    const double deadlineS_;
    const double graceS_;
    const std::chrono::steady_clock::time_point start_;

    std::mutex mu_;
    std::condition_variable cv_;
    bool done_ = false;

    std::thread thread_;
};

} // namespace

int
guardedMain(const std::function<int()> &body)
{
    static std::atomic<bool> entered{false};
    if (entered.exchange(true)) {
        // Nested (an example calling a library main helper): the
        // outer guard already owns signals and the watchdog.
        return body();
    }

    clearStopRequest();
    g_signalCount.store(0, std::memory_order_relaxed);

    struct sigaction sa = {};
    sa.sa_handler = onStopSignal;
    sigemptyset(&sa.sa_mask);
    struct sigaction old_int = {};
    struct sigaction old_term = {};
    sigaction(SIGINT, &sa, &old_int);
    sigaction(SIGTERM, &sa, &old_term);

    const double deadline_s =
        env::doubleOr("PSCA_DEADLINE_S", 0.0, 0.0, 1e9);
    const double grace_s =
        env::doubleOr("PSCA_DEADLINE_GRACE_S", 30.0, 0.0, 1e9);

    // Arm the telemetry plane before the body spawns threads: the
    // trace log parses PSCA_TRACE on first touch, and the live
    // endpoint starts if PSCA_HTTP_PORT is set.
    obs::TraceLog::instance();
    obs::HttpServer::maybeStartFromEnv();
    // Join the fleet (or start serving one) if PSCA_DIST_ROLE says
    // so; a no-op otherwise. Must come after the telemetry plane so
    // dist gauges and spans land in it.
    dist::maybeInitFromEnv();
    const double linger_s =
        env::doubleOr("PSCA_HTTP_LINGER_S", 0.0, 0.0, 86400.0);

    int status = 0;
    {
        Watchdog watchdog(deadline_s, grace_s);
        try {
            status = body();
            if (stopRequested()) {
                // Stop arrived after the last checkpointed region
                // (or the body swallowed it): still signal resumable.
                status = kResumableExit;
            }
        } catch (const RunInterrupted &e) {
            // Run reports and stats flushed during unwinding (their
            // guards sit inside the body). Completed units are
            // journaled; the same command resumes.
            inform("interrupted: ", e.what());
            inform("exiting with resumable status ", kResumableExit,
                   "; re-run the same command to resume");
            emitEvent("checkpoint", LogLevel::Info,
                      "run interrupted; exiting with resumable "
                      "status");
            status = kResumableExit;
        } catch (const std::exception &e) {
            warn("uncaught exception: ", e.what());
            status = 1;
        }
        watchdog.stop();
    }

    // Leave the fleet before the telemetry plane goes down: the
    // coordinator broadcasts Shutdown (and withdraws its address
    // file), a worker sends Bye.
    dist::shutdown();

    // Orderly telemetry shutdown: optionally hold the live endpoint
    // open so a scraper can take a final reading, then stop it and
    // flush the span trace (also covered by atexit for bare mains).
    obs::HttpServer &http = obs::HttpServer::instance();
    if (http.running() && linger_s > 0 && !stopRequested()) {
        inform("http: lingering ", linger_s,
               " s for final scrapes (PSCA_HTTP_LINGER_S)");
        const auto linger_until = std::chrono::steady_clock::now() +
            std::chrono::duration<double>(linger_s);
        while (std::chrono::steady_clock::now() < linger_until &&
               !stopRequested())
        {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(100));
        }
    }
    http.stop();
    obs::TraceLog::instance().finalize();

    sigaction(SIGINT, &old_int, nullptr);
    sigaction(SIGTERM, &old_term, nullptr);
    entered.store(false);
    return status;
}

int
supervise(const std::function<pid_t()> &spawn, int max_restarts,
          const char *what, std::atomic<pid_t> *current_child)
{
    int restarts = 0;
    for (;;) {
        const pid_t pid = spawn();
        if (pid < 0) {
            warn("supervise: cannot spawn ", what);
            return 1;
        }
        if (current_child)
            current_child->store(pid);
        int status = 0;
        pid_t r;
        do {
            r = ::waitpid(pid, &status, 0);
        } while (r < 0 && errno == EINTR);
        if (current_child)
            current_child->store(-1);
        if (r < 0) {
            warn("supervise: waitpid failed for ", what, " (",
                 std::strerror(errno), ")");
            return 1;
        }

        const bool signaled = WIFSIGNALED(status);
        const int code =
            WIFEXITED(status) ? WEXITSTATUS(status) : 0;
        if (!signaled && code == 0)
            return 0;
        if (!signaled && code != kResumableExit) {
            // A hard error, not a crash: the journal would just
            // replay into the same failure. Surface it.
            warn("supervise: ", what, " exited with status ", code,
                 "; not restarting");
            return code;
        }
        if (stopRequested()) {
            inform("supervise: stop requested; not restarting ",
                   what);
            return kResumableExit;
        }
        if (restarts >= max_restarts) {
            warn("supervise: ", what, " died ", restarts + 1,
                 " times (restart budget ", max_restarts,
                 " exhausted)");
            return signaled ? 1 : kResumableExit;
        }
        ++restarts;
        obs::StatRegistry::instance()
            .counter("runner.supervisor_restarts")
            .add();
        warn("supervise: ", what,
             signaled ? " killed by signal " : " exited with status ",
             signaled ? WTERMSIG(status) : code, "; restarting (",
             restarts, "/", max_restarts,
             ") — the journal resumes completed work");
        emitEvent("supervisor", LogLevel::Warn,
                  std::string(what) + " died; restart " +
                      std::to_string(restarts) + "/" +
                      std::to_string(max_restarts));
    }
}

} // namespace runner
} // namespace psca
