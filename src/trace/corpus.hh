/**
 * @file
 * Workload corpora mirroring the paper's datasets:
 *
 *  - the high-diversity training corpus (HDTR stand-in): 593
 *    applications across six categories with the Table 1 split,
 *    several short traces per application (2,648 traces total in the
 *    paper);
 *  - the held-out SPEC2017 stand-in: 20 hand-profiled applications
 *    with the Table 2 per-application input counts (118 workloads),
 *    multiple SimPoint-analogue traces per workload.
 *
 * Trace lengths are scale parameters so tests and benches can trade
 * fidelity for wall time (see ScaleConfig).
 */

#ifndef PSCA_TRACE_CORPUS_HH
#define PSCA_TRACE_CORPUS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/generator.hh"

namespace psca {

/** Default corpus identity; change to draw a fresh HDTR population. */
constexpr uint64_t kDefaultCorpusSeed = 0x15ca2019ULL;

/** Table 1 category sizes (sums to 593 applications). */
struct HdtrCategorySizes
{
    int hpcPerf = 176;
    int cloudSecurity = 75;
    int aiAnalytics = 34;
    int webProductivity = 171;
    int multimedia = 80;
    int gamesRendering = 57;

    int
    total() const
    {
        return hpcPerf + cloudSecurity + aiAnalytics + webProductivity +
            multimedia + gamesRendering;
    }
};

/**
 * Build the HDTR application population.
 *
 * @param count Number of applications (<= 593 takes a category-
 *        proportional prefix; use fewer for quick runs).
 * @param corpus_seed Identity of the population.
 */
std::vector<AppGenome> buildHdtrApps(int count = 593,
                                     uint64_t corpus_seed =
                                         kDefaultCorpusSeed);

/** Deterministic per-app trace count (averages ~4.5, as 2648/593). */
int hdtrTraceCount(const AppGenome &app);

/** One SPEC2017 stand-in benchmark. */
struct SpecApp
{
    AppGenome genome;
    int numInputs = 1; //!< Table 2 workload count
    bool isFp = false; //!< SPECfp vs SPECint suite
};

/** The 20 hand-profiled SPEC2017 stand-ins (Table 2). */
std::vector<SpecApp> buildSpecApps();

/**
 * Expand one SPEC app into its test traces: numInputs workloads x
 * traces_per_workload SimPoint-analogue traces of trace_len_instr.
 */
std::vector<Workload> specWorkloads(const SpecApp &app,
                                    uint64_t trace_len_instr,
                                    int traces_per_workload);

/** Expand the whole SPEC suite (571 traces at paper scale). */
std::vector<Workload> allSpecWorkloads(const std::vector<SpecApp> &apps,
                                       uint64_t trace_len_instr,
                                       int traces_per_workload);

} // namespace psca

#endif // PSCA_TRACE_CORPUS_HH
