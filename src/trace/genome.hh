/**
 * @file
 * Application genomes: an application is a weighted set of kernel
 * phases plus phase-length statistics. Genomes are either sampled
 * from per-category priors (the HDTR stand-in, Table 1) or
 * hand-profiled to mimic SPEC2017 benchmarks (the held-out test set,
 * Table 2). A workload is a genome executed with a particular input
 * seed, which perturbs phase weights and kernel parameters the way a
 * different input perturbs a real program's behaviour.
 */

#ifndef PSCA_TRACE_GENOME_HH
#define PSCA_TRACE_GENOME_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/kernels.hh"

namespace psca {

/** Application categories of the high-diversity training set. */
enum class AppCategory : uint8_t
{
    HpcPerf,         //!< HPC & performance benchmarks
    CloudSecurity,   //!< cloud & security
    AiAnalytics,     //!< AI & data analytics
    WebProductivity, //!< web browsers & productivity
    Multimedia,      //!< multimedia
    GamesRendering,  //!< games, rendering & augmented reality
    SpecInt,         //!< held-out SPEC2017 integer stand-in
    SpecFp,          //!< held-out SPEC2017 floating-point stand-in
    NumCategories
};

/** Display name of an application category. */
const char *appCategoryName(AppCategory cat);

/** One phase of an application: a kernel plus occupancy statistics. */
struct PhaseSpec
{
    KernelParams kernel;
    /** Steady-state selection weight among the app's phases. */
    double weight = 1.0;
    /** Mean phase length in instructions (log-normal around this). */
    double meanLenInstr = 60e3;

    bool operator==(const PhaseSpec &) const = default;
};

/** A complete application description. */
struct AppGenome
{
    std::string name;
    AppCategory category = AppCategory::HpcPerf;
    /** App-identity seed; fixes the phase schedule family. */
    uint64_t seed = 0;
    std::vector<PhaseSpec> phases;

    bool operator==(const AppGenome &) const = default;
};

/**
 * Sample a random application genome from a category prior.
 * Deterministic in (cat, seed).
 */
AppGenome sampleGenome(AppCategory cat, uint64_t seed);

} // namespace psca

#endif // PSCA_TRACE_GENOME_HH
