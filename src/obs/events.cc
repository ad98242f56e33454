#include "obs/events.hh"

#include <ostream>
#include <utility>

#include "obs/json.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace psca {
namespace obs {

namespace {

/**
 * Bridge common/logging.hh's emitEvent() into the process log.
 * Registered at static-init time; the hook target in logging.cc is a
 * constant-initialized pointer, so cross-TU order is harmless.
 */
const bool g_sink_registered = [] {
    setEventSink([](const char *category, LogLevel level,
                    const std::string &msg) {
        EventLog::instance().log(category, level, msg);
    });
    return true;
}();

} // namespace

const char *
eventLevelName(LogLevel level)
{
    switch (level) {
      case LogLevel::Debug:
        return "debug";
      case LogLevel::Info:
        return "info";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Quiet:
        break;
    }
    return "?";
}

EventLog &
EventLog::instance()
{
    static EventLog log(kProcessCapacity);
    return log;
}

EventLog::EventLog(size_t capacity)
    : capacity_(capacity < 1 ? 1 : capacity)
{}

void
EventLog::log(const char *category, LogLevel level, std::string msg)
{
    const uint64_t t = steadyNowNs() - processBaseNs();
    uint64_t newly_dropped = 0;
    {
        std::lock_guard<std::mutex> lock(mu_);
        ring_.push_back(
            Event{seq_++, t, level, category, std::move(msg)});
        while (ring_.size() > capacity_) {
            ring_.pop_front();
            ++dropped_;
            ++newly_dropped;
        }
    }
    // Accounting counters are created lazily on the first event, so a
    // run without events keeps its report byte-identical to before.
    auto &reg = StatRegistry::instance();
    reg.counter("events.logged").add();
    if (newly_dropped)
        reg.counter("events.dropped").add(newly_dropped);
}

uint64_t
EventLog::logged() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return seq_;
}

uint64_t
EventLog::dropped() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

size_t
EventLog::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.size();
}

std::vector<EventLog::Event>
EventLog::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return std::vector<Event>(ring_.begin(), ring_.end());
}

void
EventLog::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    ring_.clear();
    seq_ = 0;
    dropped_ = 0;
}

void
EventLog::writeJson(std::ostream &os, const std::string &indent,
                    uint64_t since) const
{
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\n";
    os << indent << "  \"logged\": " << seq_ << ",\n";
    os << indent << "  \"dropped\": " << dropped_ << ",\n";
    os << indent << "  \"log\": [";
    bool first = true;
    for (const auto &e : ring_) {
        if (e.seq < since)
            continue;
        os << (first ? "\n" : ",\n") << indent << "    {\"seq\": "
           << e.seq << ", \"t_ms\": ";
        jsonNumber(os, static_cast<double>(e.tNs) / 1e6);
        os << ", \"level\": \"" << eventLevelName(e.level)
           << "\", \"category\": \"" << jsonEscape(e.category)
           << "\", \"msg\": \"" << jsonEscape(e.msg) << "\"}";
        first = false;
    }
    os << (first ? "" : "\n" + indent + "  ") << "]\n"
       << indent << "}";
}

void
EventLog::writeReportSection(std::ostream &os) const
{
    if (logged() == 0)
        return;
    os << "  \"events\": ";
    writeJson(os, "  ");
    os << ",\n";
}

} // namespace obs
} // namespace psca
