#include "obs/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <mutex>

#include "common/env.hh"
#include "common/logging.hh"
#include "obs/json.hh"
#include "obs/stats.hh"

namespace psca {
namespace obs {

uint64_t
processBaseNs()
{
    static const uint64_t base = steadyNowNs();
    return base;
}

int
threadTag()
{
    static std::atomic<int> next{0};
    thread_local const int tag =
        next.fetch_add(1, std::memory_order_relaxed);
    return tag;
}

namespace {

/**
 * Bridge the common-layer trace hooks (journal units, fault fires,
 * quarantines) into the process TraceLog. Registered at static-init
 * time; the targets in logging.cc are constant-initialized pointers.
 */
bool
hookEnabled()
{
    return TraceLog::instance().enabled();
}

void
hookSpan(const char *name, uint64_t start_ns, uint64_t end_ns,
         const char *k1, long long v1, const char *k2, long long v2)
{
    SpanArg args[2];
    int n = 0;
    if (k1)
        args[n++] = SpanArg{k1, v1};
    if (k2)
        args[n++] = SpanArg{k2, v2};
    TraceLog::instance().span(name, start_ns, end_ns, args, n);
}

void
hookInstant(const char *name, const char *key, long long value)
{
    if (key) {
        SpanArg arg{key, value};
        TraceLog::instance().instant(name, &arg, 1);
    } else {
        TraceLog::instance().instant(name, nullptr, 0);
    }
}

const bool g_trace_hooks_registered = [] {
    setTraceHooks(hookEnabled, hookSpan, hookInstant);
    return true;
}();

} // namespace

TraceLog &
TraceLog::instance()
{
    static TraceLog log;
    return log;
}

TraceLog::TraceLog()
{
    const std::string path = env::stringOr("PSCA_TRACE", "");
    if (!path.empty() && path != "0")
        enable(path);
}

void
TraceLog::enable(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        path_ = path;
        auto &reg = StatRegistry::instance();
        recordedCounter_ = &reg.counter("trace.events");
        droppedCounter_ = &reg.counter("trace.dropped");
    }
    enabled_.store(true, std::memory_order_relaxed);
    // Bare binaries (tests, tools) never call finalize(); flush at
    // process exit. guardedMain finalizes earlier, making this a
    // no-op there.
    static std::once_flag once;
    std::call_once(
        once, [] { std::atexit([] { instance().finalize(); }); });
}

std::string
TraceLog::path() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return path_;
}

TraceLog::ThreadBuf *
TraceLog::myBuf()
{
    thread_local const std::shared_ptr<ThreadBuf> buf = [this] {
        auto b = std::make_shared<ThreadBuf>();
        b->tid = threadTag();
        b->ev.reserve(kDrainBatch);
        std::lock_guard<std::mutex> lock(mu_);
        bufs_.push_back(b);
        return b;
    }();
    return buf.get();
}

void
TraceLog::record(Ev &&e)
{
    ThreadBuf *b = myBuf();
    bool drain;
    {
        std::lock_guard<std::mutex> lock(b->mu);
        b->ev.push_back(std::move(e));
        drain = b->ev.size() >= kDrainBatch;
    }
    recorded_.fetch_add(1, std::memory_order_relaxed);
    if (recordedCounter_)
        recordedCounter_->add();
    if (drain) {
        std::lock_guard<std::mutex> lock(mu_);
        drainInto(*b);
    }
}

void
TraceLog::drainInto(ThreadBuf &buf)
{
    std::vector<Ev> local;
    {
        std::lock_guard<std::mutex> lock(buf.mu);
        local.swap(buf.ev);
    }
    uint64_t over = 0;
    for (auto &e : local) {
        if (central_.size() >= kMaxCentralEvents) {
            ++over;
            continue;
        }
        central_.push_back(std::move(e));
    }
    if (over) {
        dropped_.fetch_add(over, std::memory_order_relaxed);
        if (droppedCounter_)
            droppedCounter_->add(over);
    }
}

void
TraceLog::span(const char *name, uint64_t start_ns, uint64_t end_ns,
               const SpanArg *args, int nargs)
{
    if (!enabled())
        return;
    const uint64_t base = processBaseNs();
    Ev ev;
    ev.name = name;
    ev.ph = 'X';
    ev.tid = threadTag();
    ev.tsNs = start_ns > base ? start_ns - base : 0;
    ev.durNs = end_ns > start_ns ? end_ns - start_ns : 0;
    ev.nargs = nargs < 0 ? 0 : (nargs > kMaxArgs ? kMaxArgs : nargs);
    for (int i = 0; i < ev.nargs; ++i)
        ev.args[i] = args[i];
    record(std::move(ev));
}

void
TraceLog::instant(const char *name, const SpanArg *args, int nargs)
{
    if (!enabled())
        return;
    const uint64_t base = processBaseNs();
    const uint64_t now = steadyNowNs();
    Ev ev;
    ev.name = name;
    ev.ph = 'i';
    ev.tid = threadTag();
    ev.tsNs = now > base ? now - base : 0;
    ev.durNs = 0;
    ev.nargs = nargs < 0 ? 0 : (nargs > kMaxArgs ? kMaxArgs : nargs);
    for (int i = 0; i < ev.nargs; ++i)
        ev.args[i] = args[i];
    record(std::move(ev));
}

namespace {

/** Microseconds with millisecond-of-a-microsecond precision. */
void
writeMicros(std::ostream &os, uint64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.3f",
                  static_cast<double>(ns) / 1e3);
    os << buf;
}

} // namespace

void
TraceLog::writeFileLocked()
{
    std::ofstream out(path_);
    if (!out) {
        warn("cannot open trace file '", path_, "' for writing");
        return;
    }
    out << "{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": 0, \"args\": {\"name\": \"psca\"}}";
    for (const auto &e : central_) {
        out << ",\n{\"name\": \"" << jsonEscape(e.name)
            << "\", \"ph\": \"" << e.ph << "\", \"pid\": 1, "
            << "\"tid\": " << e.tid << ", \"ts\": ";
        writeMicros(out, e.tsNs);
        if (e.ph == 'X') {
            out << ", \"dur\": ";
            writeMicros(out, e.durNs);
        } else {
            out << ", \"s\": \"t\"";
        }
        if (e.nargs > 0) {
            out << ", \"args\": {";
            for (int i = 0; i < e.nargs; ++i) {
                if (i)
                    out << ", ";
                out << "\"" << jsonEscape(e.args[i].key)
                    << "\": " << e.args[i].value;
            }
            out << "}";
        }
        out << "}";
    }
    out << "\n]\n}\n";
    out.flush();
    if (!out)
        warn("trace file '", path_, "' is truncated (disk full?)");
}

void
TraceLog::finalize()
{
    if (!enabled_.exchange(false, std::memory_order_relaxed))
        return;
    std::lock_guard<std::mutex> lock(mu_);
    for (auto &b : bufs_)
        drainInto(*b);
    std::stable_sort(central_.begin(), central_.end(),
                     [](const Ev &a, const Ev &b) {
                         return a.tsNs != b.tsNs ? a.tsNs < b.tsNs
                                                 : a.tid < b.tid;
                     });
    writeFileLocked();
    inform("trace written to ", path_, " (",
           central_.size(), " events, ",
           dropped_.load(std::memory_order_relaxed), " dropped)");
    central_.clear();
    central_.shrink_to_fit();
}

} // namespace obs
} // namespace psca
