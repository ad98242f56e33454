/**
 * @file
 * Bounded structured event log (DESIGN.md §12): notable run events —
 * guardrail trips, artifact quarantines, vm-trap failsafes,
 * checkpoint/resume transitions, watchdog fires — recorded as
 * (sequence, timestamp, severity, category, message) tuples in a
 * fixed-capacity ring. When full, the OLDEST events are dropped (and
 * counted): the drop policy is deterministic, never sampled, so two
 * runs producing the same event sequence retain the same tail.
 *
 * The log is serialized into run reports (only when non-empty, so
 * event-free reports keep their prior byte layout) and served live by
 * the /events HTTP endpoint. Common-layer code reaches it through
 * emitEvent() in common/logging.hh; the sink is registered at
 * static-init time by this translation unit.
 */

#ifndef PSCA_OBS_EVENTS_HH
#define PSCA_OBS_EVENTS_HH

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace psca {
namespace obs {

class EventLog
{
  public:
    struct Event
    {
        uint64_t seq;    //!< 0-based, never reused within a run
        uint64_t tNs;    //!< steady clock, relative to process base
        LogLevel level;  //!< Debug/Info/Warn severity
        std::string category; //!< dotted source tag ("guardrail")
        std::string msg;
    };

    /** Capacity of the process-wide log. */
    static constexpr size_t kProcessCapacity = 1024;

    /** The process-wide log, created on first use. */
    static EventLog &instance();

    /** A standalone log with an explicit capacity (tests, shards). */
    explicit EventLog(size_t capacity);

    void log(const char *category, LogLevel level, std::string msg);

    /** Events appended since construction/clear (kept + dropped). */
    uint64_t logged() const;

    /** Events evicted by the capacity bound. */
    uint64_t dropped() const;

    /** Events currently retained. */
    size_t size() const;

    /** Copy of the retained events, oldest first. */
    std::vector<Event> snapshot() const;

    /** Forget everything, including the drop/sequence accounting. */
    void clear();

    /**
     * The {"logged", "dropped", "log": [...]} JSON object at report
     * indentation (object lines indented by @p indent + 2 spaces).
     * @p since drops events with seq < since — the /events?since=N
     * incremental-polling path; 0 (the default) writes every retained
     * event, so existing callers keep their exact byte layout.
     */
    void writeJson(std::ostream &os, const std::string &indent,
                   uint64_t since = 0) const;

    /**
     * The report's optional `"events": {...},` section: nothing is
     * written when no event was ever logged.
     */
    void writeReportSection(std::ostream &os) const;

  private:
    mutable std::mutex mu_;
    std::deque<Event> ring_;
    const size_t capacity_;
    uint64_t seq_ = 0;
    uint64_t dropped_ = 0;
};

/** Printable severity name ("debug"/"info"/"warn"). */
const char *eventLevelName(LogLevel level);

} // namespace obs
} // namespace psca

#endif // PSCA_OBS_EVENTS_HH
