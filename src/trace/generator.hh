/**
 * @file
 * Streaming trace generation from an application genome. The
 * generator is fully deterministic in (genome, input_seed, trace
 * index), and reset() reproduces the identical micro-op stream — the
 * dataset builder relies on this to simulate the same trace in both
 * cluster configurations without storing it.
 */

#ifndef PSCA_TRACE_GENERATOR_HH
#define PSCA_TRACE_GENERATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "trace/genome.hh"

namespace psca {

/**
 * One recorded trace: an application genome executed on one input,
 * starting from one recording offset (the SimPoint analogue).
 */
struct Workload
{
    AppGenome genome;
    /** Input identity; perturbs phase weights and kernel params. */
    uint64_t inputSeed = 0;
    /** Recording offset within the workload (SimPoint analogue). */
    uint64_t traceIndex = 0;
    /** Trace length in micro-ops. */
    uint64_t lengthInstr = 500000;
    /** Human-readable identity for reports. */
    std::string name;

    bool operator==(const Workload &) const = default;
};

/** Deterministic micro-op stream for one workload trace. */
class TraceGenerator
{
  public:
    explicit TraceGenerator(const Workload &workload);

    /**
     * Hand out the next micro-ops in place. Sets ops to a span of at
     * most max ops inside the generator's emit buffer and returns its
     * length: at least 1 when max > 0, fewer than max when the span
     * reaches the end of the current emit chunk. The span stays valid
     * until the next call of next(), fill() or reset().
     */
    size_t next(const MicroOp *&ops, size_t max);

    /** Append exactly n micro-ops to out. */
    void fill(std::vector<MicroOp> &out, size_t n);

    /** Restart the identical stream from the beginning. */
    void reset();

    /** Micro-ops produced since construction/reset. */
    uint64_t produced() const { return produced_; }

  private:
    void enterNextPhase();

    static constexpr size_t kEmitChunk = 4096; //!< uops per kernel emit
    static constexpr size_t kEmitSlack = 256;

    Workload workload_;
    std::vector<PhaseSpec> phases_; //!< input-perturbed copy
    Rng rng_;
    std::vector<std::unique_ptr<Kernel>> kernels_; //!< one per phase
    size_t current_phase_ = 0;
    uint64_t phase_remaining_ = 0;
    uint64_t produced_ = 0;
    std::vector<MicroOp> buffer_;
    size_t buffer_pos_ = 0;
    std::vector<double> weights_; //!< enterNextPhase scratch
};

} // namespace psca

#endif // PSCA_TRACE_GENERATOR_HH
