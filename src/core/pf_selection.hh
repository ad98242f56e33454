/**
 * @file
 * Telemetry information-content maximization (Sec. 6.2): two
 * heuristic screens cull dead and low-signal counters, then the
 * adapted Perona-Freeman spectral algorithm (Alg. 1) repeatedly
 * extracts the most-redundant group of counters from the covariance
 * matrix's second eigenvector, keeps one representative, and removes
 * the rest — yielding a ranked list of counters with maximal mutual
 * information to the full telemetry stream.
 */

#ifndef PSCA_CORE_PF_SELECTION_HH
#define PSCA_CORE_PF_SELECTION_HH

#include <cstdint>
#include <vector>

#include "core/builder.hh"
#include "math/matrix.hh"

namespace psca {

/** Screen and selection thresholds (paper values as defaults). */
struct PfConfig
{
    /** Screen 1: a counter is flagged in a trace when it reads zero
     *  for more than this fraction of intervals... (paper: 0.15; our
     *  simulator has no OS/interrupt background noise, so exact-zero
     *  reads are far more common than on silicon and the thresholds
     *  are correspondingly looser to land at a comparable survivor
     *  population). */
    double zeroFractionPerTrace = 0.5;
    /** ...and removed when flagged in more than this fraction of
     *  traces (paper: 0.05). */
    double flaggedTraceFraction = 0.4;
    /** Screen 2: remove this bottom fraction by standard deviation. */
    double stdDevCullFraction = 0.3;
    /** Alg. 1 tau: relative second-eigenvector coefficient bound for
     *  group membership. */
    double similarityThreshold = 0.92;
    /** Counters to rank. */
    size_t numToSelect = 32;
    /** Cap on samples used for the covariance estimate. */
    size_t maxSamples = 4096;
};

/** Outcome of the screens + PF ranking. */
struct PfResult
{
    /** Ranked selected counters (registry ids; best first). */
    std::vector<uint16_t> selected;
    /** Counters surviving both screens (registry ids). */
    std::vector<uint16_t> survivors;
    /** Population size after the low-activity screen only. */
    size_t afterActivityScreen = 0;
    /**
     * Config hash of screen 1's journal scope (kPfScreenScope); a
     * caller that stores what supersedes the checkpoints retires it.
     */
    uint64_t screenConfigHash = 0;
};

/** Journal scope of screen 1's per-record checkpoints. */
inline constexpr const char *kPfScreenScope = "pf.screen1";

/**
 * Run the screens and PF ranking over full-registry records (records
 * must have been recorded with all 936 counters).
 *
 * @param records Full-width telemetry records.
 * @param cfg Thresholds.
 * @param mode Which mode's telemetry to analyze.
 */
PfResult pfCounterSelection(const std::vector<TraceRecord> &records,
                            const PfConfig &cfg, CoreMode mode);

/**
 * Top-(k+1) eigenpairs of a symmetric PSD matrix via power iteration
 * with deflation; fast path for PF's second-eigenvector queries on
 * ~300x300 covariance matrices.
 */
Matrix leadingEigenvectors(const Matrix &sym, size_t count,
                           int iterations = 200);

} // namespace psca

#endif // PSCA_CORE_PF_SELECTION_HH
