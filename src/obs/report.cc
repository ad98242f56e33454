#include "obs/report.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>

#include "common/env.hh"
#include "common/fault.hh"
#include "common/journal.hh"
#include "common/logging.hh"
#include "obs/stats.hh"

namespace psca {
namespace obs {

bool
reportEnabled()
{
    return env::flagOr("PSCA_REPORT", true);
}

std::string
reportPath(const std::string &name)
{
    const std::string dir = env::stringOr("PSCA_REPORT_DIR", "");
    if (dir.empty())
        return name + ".json";
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    return dir + "/" + name + ".json";
}

void
writeRunReport(const std::string &name)
{
    if (!reportEnabled())
        return;
    // Pull the fault-site fire tallies into the registry so every
    // injection shows up next to the degradation counters it caused.
    // Only sites that actually fired are exported: a fault-free run's
    // report stays byte-identical to one built without fault sites.
    auto &reg = StatRegistry::instance();
    FaultRegistry::instance().forEachSite(
        [&reg](const FaultSite &site) {
            if (site.fireCount() > 0) {
                reg.gauge("fault." + site.name() + ".fires")
                    .set(static_cast<double>(site.fireCount()));
            }
        });
    // Same only-when-active rule for the checkpoint/resume layer:
    // with the journal disabled (or never entered) no runner.* gauges
    // exist, so those reports stay byte-identical to a build without
    // the journal. Counts are process accounting — they describe this
    // run's execution, not its results, and legitimately differ
    // between a resumed and an uninterrupted run (DESIGN.md §11).
    const JournalStats js = Journal::globalStats();
    if (js.active) {
        auto set = [&reg](const char *name, uint64_t v) {
            reg.gauge(name).set(static_cast<double>(v));
        };
        set("runner.units_skipped", js.unitsSkipped);
        set("runner.units_executed", js.unitsExecuted);
        if (js.unitRetries > 0)
            set("runner.unit_retries", js.unitRetries);
        if (js.verifyFailures > 0)
            set("runner.verify_failures", js.verifyFailures);
        if (js.tornTails > 0)
            set("runner.torn_tails", js.tornTails);
        if (js.quarantines > 0)
            set("runner.journal_quarantines", js.quarantines);
        if (js.scopesRetired > 0)
            set("runner.scopes_retired", js.scopesRetired);
    }
    // Drain any buffered log output first so a consumer tailing the
    // log sees every line from the run before the report appears.
    std::fflush(stderr);
    std::fflush(stdout);
    const std::string path = reportPath(name);
    if (!reg.dumpJson(path, name)) {
        warn("run report '", path,
             "' is truncated: stream error during write (disk "
             "full?)");
        return;
    }
    inform("run report written to ", path);
}

RunReportGuard::~RunReportGuard()
{
    writeRunReport(name_);
}

} // namespace obs
} // namespace psca
