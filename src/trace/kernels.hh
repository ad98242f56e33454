/**
 * @file
 * Synthetic instruction-stream kernels. Each kernel emits a dynamic
 * micro-op stream with a distinctive microarchitectural signature,
 * chosen so that interval-level IPC ratios between the 8-wide
 * (two-cluster) and 4-wide (gated) modes span the space the paper's
 * labels depend on:
 *
 *  - Ilp (many chains): width-hungry, gating costs ~2x IPC;
 *  - Ilp (few chains) / FpSerial: latency-bound, gating is free;
 *  - Stream: bandwidth-bound for large footprints, gating nearly free;
 *  - PointerChase: serial misses, IPC << 1 either way;
 *  - Branchy: mispredict-bound, gating nearly free;
 *  - Stencil: moderate ILP and locality, borderline intervals;
 *  - MlpRich: cache-missing but rich in memory-level parallelism, so
 *    the second cluster's extra load ports/MSHRs still matter. In
 *    miss-rate counters it *looks* gating-friendly — this kernel is
 *    the statistical-blindspot generator (Sec. 6 / Fig. 9 roms_s).
 */

#ifndef PSCA_TRACE_KERNELS_HH
#define PSCA_TRACE_KERNELS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/rng.hh"
#include "trace/uop.hh"

namespace psca {

/** Kernel families the generator can instantiate. */
enum class KernelKind : uint8_t
{
    Stream,       //!< unit/strided streaming loads + compute + store
    PointerChase, //!< dependent-load chain over a working set
    Ilp,          //!< k independent arithmetic dependency chains
    Branchy,      //!< short blocks ending in hard-to-predict branches
    MlpRich,      //!< bursts of independent missing loads (high MLP)
    Stencil,      //!< strided loads w/ reuse + FP compute
    FpSerial,     //!< one long FP latency chain
    NumKinds
};

/** Number of kernel kinds, for table sizing. */
constexpr size_t kNumKernelKinds = static_cast<size_t>(KernelKind::NumKinds);

/** Display name of a kernel kind. */
const char *kernelKindName(KernelKind kind);

/** Parameters configuring one kernel instance. */
struct KernelParams
{
    KernelKind kind = KernelKind::Ilp;
    /** Data footprint; drives cache/TLB miss rates. */
    uint64_t workingSetBytes = 16 * 1024;
    /** Independent dependency chains (Ilp) / unrolled lanes. */
    uint8_t chains = 4;
    /** Arithmetic ops per memory op (Stream/Stencil/MlpRich). */
    uint8_t computePerElem = 2;
    /** Fraction of branch micro-ops (Branchy). */
    double branchRatio = 0.2;
    /** Probability a conditional branch follows its bias. */
    double predictability = 0.95;
    /** Independent in-flight loads per burst (MlpRich). */
    uint8_t mlpDegree = 8;
    /** Use FP op classes for arithmetic. */
    bool fp = false;
    /** Access stride (Stream/Stencil). */
    uint32_t strideBytes = 8;

    bool operator==(const KernelParams &) const = default;
};

/**
 * Abstract micro-op emitter. Kernels are deterministic given their
 * construction arguments and the Rng passed to emit().
 */
class Kernel
{
  public:
    /**
     * @param params Static kernel configuration.
     * @param pc_base Code address region for this instance.
     * @param mem_base Data address region for this instance.
     */
    Kernel(const KernelParams &params, uint64_t pc_base, uint64_t mem_base);
    virtual ~Kernel() = default;

    /** Append exactly n micro-ops to out. */
    virtual void emit(std::vector<MicroOp> &out, size_t n, Rng &rng) = 0;

    const KernelParams &params() const { return params_; }

  protected:
    /** Wrap an offset into this kernel's working set. */
    uint64_t
    wrapAddr(uint64_t offset) const
    {
        return mem_base_ + (offset & ws_mask_);
    }

    /** Arithmetic op class honoring the fp flag. */
    OpClass
    arithClass(Rng &rng) const
    {
        if (!params_.fp)
            return rng.bernoulli(0.1) ? OpClass::IntMul : OpClass::IntAlu;
        const double u = rng.uniform();
        if (u < 0.45)
            return OpClass::FpAdd;
        if (u < 0.85)
            return OpClass::FpMul;
        return OpClass::FpFma;
    }

    KernelParams params_;
    uint64_t pc_base_;
    uint64_t mem_base_;
    uint64_t ws_mask_;
};

/**
 * Instantiate the kernel class for params.kind.
 *
 * @param params Kernel configuration.
 * @param instance_id Distinguishes instances so each gets private
 *        code/data address regions (stable across re-generation).
 */
std::unique_ptr<Kernel> makeKernel(const KernelParams &params,
                                   uint32_t instance_id);

} // namespace psca

#endif // PSCA_TRACE_KERNELS_HH
