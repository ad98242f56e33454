#include "trace/kernels.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace psca {

const char *
kernelKindName(KernelKind kind)
{
    switch (kind) {
      case KernelKind::Stream: return "stream";
      case KernelKind::PointerChase: return "pointer_chase";
      case KernelKind::Ilp: return "ilp";
      case KernelKind::Branchy: return "branchy";
      case KernelKind::MlpRich: return "mlp_rich";
      case KernelKind::Stencil: return "stencil";
      case KernelKind::FpSerial: return "fp_serial";
      default: return "unknown";
    }
}

const char *
opClassName(OpClass cls)
{
    switch (cls) {
      case OpClass::IntAlu: return "int_alu";
      case OpClass::IntMul: return "int_mul";
      case OpClass::IntDiv: return "int_div";
      case OpClass::FpAdd: return "fp_add";
      case OpClass::FpMul: return "fp_mul";
      case OpClass::FpDiv: return "fp_div";
      case OpClass::FpFma: return "fp_fma";
      case OpClass::Load: return "load";
      case OpClass::Store: return "store";
      case OpClass::Branch: return "branch";
      case OpClass::Nop: return "nop";
      default: return "unknown";
    }
}

namespace {

/** Round up to a power of two (minimum 64 bytes). */
uint64_t
roundUpPow2(uint64_t x)
{
    return std::bit_ceil(std::max<uint64_t>(x, 64));
}

/** First data register; r0..r15 are address/loop registers. */
constexpr int8_t kDataReg = 16;

} // namespace

Kernel::Kernel(const KernelParams &params, uint64_t pc_base,
               uint64_t mem_base)
    : params_(params), pc_base_(pc_base), mem_base_(mem_base),
      ws_mask_(roundUpPow2(params.workingSetBytes) - 1)
{}

namespace {

/**
 * Shared loop-structure helper: kernels emit a fixed "body" of pcs
 * each iteration so branch predictors and the I-side see realistic,
 * learnable, small-footprint loops.
 */
class LoopKernel : public Kernel
{
  public:
    using Kernel::Kernel;

  protected:
    /** Begin a new loop iteration: rewind the body pc. */
    void beginIteration() { body_pc_ = pc_base_; }

    /** Emit one non-branch uop at the next body pc. */
    MicroOp &
    put(std::vector<MicroOp> &out, OpClass cls, int8_t dst, int8_t s0,
        int8_t s1 = kNoReg)
    {
        MicroOp op;
        op.pc = body_pc_;
        body_pc_ += 4;
        op.cls = cls;
        op.dst = dst;
        op.src0 = s0;
        op.src1 = s1;
        out.push_back(op);
        return out.back();
    }

    /** Emit the loop back-branch, taken except every period-th. */
    void
    putLoopBranch(std::vector<MicroOp> &out, uint32_t period)
    {
        MicroOp op;
        op.pc = body_pc_;
        body_pc_ += 4;
        op.cls = OpClass::Branch;
        op.src0 = 0; // loop counter register
        ++iteration_;
        op.branchTaken = (iteration_ % period) != 0;
        out.push_back(op);
    }

    uint64_t body_pc_ = 0;
    uint64_t iteration_ = 0;
};

/** Streaming loads/stores with per-element compute. */
class StreamKernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    void
    emit(std::vector<MicroOp> &out, size_t n, Rng &rng) override
    {
        const size_t target = out.size() + n;
        while (out.size() < target) {
            beginIteration();
            // Unroll 4 independent elements per iteration.
            for (int lane = 0; lane < 4; ++lane) {
                const int8_t data = kDataReg + lane;
                auto &ld = put(out, OpClass::Load, data, 1);
                ld.addr = wrapAddr(cursor_);
                ld.memSize = 8;
                cursor_ += params_.strideBytes;
                for (int c = 0; c < params_.computePerElem; ++c)
                    put(out, arithClass(rng), data, data,
                        static_cast<int8_t>(kDataReg + 8 + (c & 3)));
                if (lane == 3) {
                    auto &st = put(out, OpClass::Store, kNoReg, data, 1);
                    st.addr = wrapAddr(store_cursor_);
                    st.memSize = 8;
                    store_cursor_ += 4 * params_.strideBytes;
                }
            }
            put(out, OpClass::IntAlu, 1, 1); // address increment
            putLoopBranch(out, 64);
        }
        out.resize(target);
    }

  private:
    uint64_t cursor_ = 0;
    uint64_t store_cursor_ = 1 << 20;
};

/**
 * Dependent-load chains; the classic latency-bound kernel. With
 * `chains` > 1, several independent chases interleave (graph/hash
 * walks often expose a handful of parallel pointer streams): each
 * chain is strictly serial, so exactly `chains` misses are in flight
 * — below the per-cluster MSHR count this is mode-insensitive
 * (gating is free), while its frontend/miss-rate telemetry is almost
 * identical to an MSHR-saturated MlpRich burst. Branch density is
 * held constant (one per ~24 uops) so only latency and occupancy
 * counters can tell the two apart.
 */
class PointerChaseKernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    void
    emit(std::vector<MicroOp> &out, size_t n, Rng &rng) override
    {
        const size_t target = out.size() + n;
        const int k = std::clamp<int>(params_.chains, 1, 8);
        while (out.size() < target) {
            beginIteration();
            const int8_t ptr =
                static_cast<int8_t>(kDataReg + (chain_++ % k));
            // addr calc depends on this chain's pointer value.
            put(out, OpClass::IntAlu, 2, ptr);
            auto &ld = put(out, OpClass::Load, ptr, 2);
            ld.addr = wrapAddr(rng.next() & ~7ULL);
            ld.memSize = 8;
            // A little dependent bookkeeping work.
            put(out, OpClass::IntAlu, 3, ptr);
            uops_ += 3;
            if (uops_ - last_branch_ >= 24) {
                putLoopBranch(out, 64);
                last_branch_ = uops_;
            }
        }
        out.resize(target);
    }

  private:
    uint64_t chain_ = 0;
    uint64_t uops_ = 0;
    uint64_t last_branch_ = 0;
};

/**
 * k independent arithmetic dependency chains; offered ILP tracks k.
 * Dependency distance is enforced through a global register-rotation
 * counter: each op depends on the op `m` slots earlier, with m chosen
 * so that per-op latency divides out (FP chains rotate across extra
 * registers to software-pipeline their multi-cycle latency). Loop
 * bodies are a constant 15 ops regardless of k so branch density does
 * not leak the ILP degree into frontend counters — the low-mode
 * saturation blindspot (Sec. 6.1) requires that only backend
 * occupancy/readiness telemetry can witness clipped ILP.
 */
class IlpKernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    void
    emit(std::vector<MicroOp> &out, size_t n, Rng &rng) override
    {
        const size_t target = out.size() + n;
        const int k = std::max<int>(1, params_.chains);
        const int rot = params_.fp ? 5 : 1;
        const int m = std::min(28, k * rot);
        while (out.size() < target) {
            beginIteration();
            for (int slot = 0; slot < 15; ++slot) {
                const int8_t reg = static_cast<int8_t>(
                    kDataReg + (gslot_++ % static_cast<uint64_t>(m)));
                // ~5% cache-resident filler loads to scratch regs;
                // they must not break the serial chains.
                if (rng.bernoulli(0.05)) {
                    auto &ld = put(out, OpClass::Load,
                                   static_cast<int8_t>(44 + (slot & 3)),
                                   1);
                    ld.addr = wrapAddr(rng.next() & ~7ULL);
                    ld.memSize = 8;
                } else {
                    // Second source is a loop-invariant register so
                    // chains stay mutually independent.
                    put(out, arithClass(rng), reg, reg, 8);
                }
            }
            putLoopBranch(out, 64);
        }
        out.resize(target);
    }

  private:
    uint64_t gslot_ = 0;
};

/** Short blocks ending in branches of configurable predictability. */
class BranchyKernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    void
    emit(std::vector<MicroOp> &out, size_t n, Rng &rng) override
    {
        const size_t target = out.size() + n;
        while (out.size() < target) {
            // Pick one of 32 static blocks: realistic I-footprint and
            // per-pc predictor state.
            const uint32_t block = static_cast<uint32_t>(rng.below(32));
            body_pc_ = pc_base_ + block * 64;
            const int work = 1 + static_cast<int>(rng.below(3));
            for (int i = 0; i < work; ++i) {
                // Independent per-lane updates: blocks are mostly
                // mispredict-bound, not dependence-bound.
                const int8_t lane =
                    static_cast<int8_t>(kDataReg + (i & 7));
                put(out, OpClass::IntAlu, lane, lane, 8);
            }
            if (rng.bernoulli(0.15)) {
                auto &ld = put(out, OpClass::Load,
                               static_cast<int8_t>(kDataReg + 8), 1);
                ld.addr = wrapAddr(rng.next() & ~7ULL);
                ld.memSize = 8;
            }
            MicroOp br;
            br.pc = body_pc_;
            br.cls = OpClass::Branch;
            br.src0 = kDataReg;
            // Each block has a bias; predictability is the chance the
            // branch follows it.
            const bool bias = (block & 1) != 0;
            br.branchTaken =
                rng.bernoulli(params_.predictability) ? bias : !bias;
            out.push_back(br);
        }
        out.resize(target);
    }
};

/**
 * Bursts of independent, cache-missing loads: high memory-level
 * parallelism. Miss-rate counters look "memory bound", but the wide
 * mode's second memory unit still buys real throughput — the
 * blindspot generator.
 */
class MlpRichKernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    void
    emit(std::vector<MicroOp> &out, size_t n, Rng &rng) override
    {
        const size_t target = out.size() + n;
        const int degree = std::max<int>(2, params_.mlpDegree);
        while (out.size() < target) {
            beginIteration();
            for (int i = 0; i < degree; ++i) {
                const int8_t reg =
                    static_cast<int8_t>(kDataReg + (i % 28));
                auto &ld = put(out, OpClass::Load, reg, 1);
                ld.addr = wrapAddr(rng.next() & ~7ULL);
                ld.memSize = 8;
                ++uops_;
                // Thin independent post-processing per load.
                for (int c = 0; c < params_.computePerElem; ++c) {
                    put(out, OpClass::IntAlu, reg, reg);
                    ++uops_;
                }
                // Constant branch density regardless of burst degree:
                // frontend counters must not leak the MLP degree (the
                // queueing blindspot is only visible to latency and
                // occupancy telemetry).
                if (uops_ - last_branch_ >= 24) {
                    putLoopBranch(out, 64);
                    last_branch_ = uops_;
                }
            }
            put(out, OpClass::IntAlu, 1, 1);
            ++uops_;
        }
        out.resize(target);
    }

  private:
    uint64_t uops_ = 0;
    uint64_t last_branch_ = 0;
};

/** Strided loads with reuse plus an FP chain; borderline intervals. */
class StencilKernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    void
    emit(std::vector<MicroOp> &out, size_t n, Rng &rng) override
    {
        const size_t target = out.size() + n;
        while (out.size() < target) {
            beginIteration();
            const int8_t acc = kDataReg;
            for (int tap = 0; tap < 3; ++tap) {
                const int8_t reg =
                    static_cast<int8_t>(kDataReg + 1 + tap);
                auto &ld = put(out, OpClass::Load, reg, 1);
                ld.addr = wrapAddr(cursor_ +
                                   static_cast<uint64_t>(tap) *
                                       params_.strideBytes);
                ld.memSize = 8;
            }
            put(out, OpClass::FpMul, acc, kDataReg + 1, kDataReg + 2);
            put(out, OpClass::FpFma, acc, acc, kDataReg + 3);
            if (rng.bernoulli(0.5))
                put(out, OpClass::FpAdd, acc, acc, kDataReg + 2);
            auto &st = put(out, OpClass::Store, kNoReg, acc, 1);
            st.addr = wrapAddr(cursor_ + (1 << 19));
            st.memSize = 8;
            cursor_ += 8;
            put(out, OpClass::IntAlu, 1, 1);
            putLoopBranch(out, 32);
        }
        out.resize(target);
    }

  private:
    uint64_t cursor_ = 0;
};

/** One long FP latency chain; IPC latency-bound in either mode. */
class FpSerialKernel : public LoopKernel
{
  public:
    using LoopKernel::LoopKernel;

    void
    emit(std::vector<MicroOp> &out, size_t n, Rng &rng) override
    {
        const size_t target = out.size() + n;
        while (out.size() < target) {
            beginIteration();
            const int8_t acc = kDataReg;
            for (int i = 0; i < 8; ++i) {
                const OpClass cls = rng.bernoulli(0.1)
                    ? OpClass::FpDiv
                    : (rng.bernoulli(0.5) ? OpClass::FpMul
                                          : OpClass::FpFma);
                put(out, cls, acc, acc,
                    static_cast<int8_t>(kDataReg + 1 + (i & 3)));
            }
            if (rng.bernoulli(0.25)) {
                auto &ld = put(out, OpClass::Load, kDataReg + 1, 1);
                ld.addr = wrapAddr(rng.next() & ~7ULL);
                ld.memSize = 8;
            }
            putLoopBranch(out, 64);
        }
        out.resize(target);
    }
};

} // namespace

std::unique_ptr<Kernel>
makeKernel(const KernelParams &params, uint32_t instance_id)
{
    // Give each instance private 64KB code / 256MB data regions.
    const uint64_t pc_base =
        0x400000ULL + static_cast<uint64_t>(instance_id) * 0x10000ULL;
    const uint64_t mem_base =
        0x10000000ULL + static_cast<uint64_t>(instance_id) * 0x10000000ULL;

    switch (params.kind) {
      case KernelKind::Stream:
        return std::make_unique<StreamKernel>(params, pc_base, mem_base);
      case KernelKind::PointerChase:
        return std::make_unique<PointerChaseKernel>(params, pc_base,
                                                    mem_base);
      case KernelKind::Ilp:
        return std::make_unique<IlpKernel>(params, pc_base, mem_base);
      case KernelKind::Branchy:
        return std::make_unique<BranchyKernel>(params, pc_base, mem_base);
      case KernelKind::MlpRich:
        return std::make_unique<MlpRichKernel>(params, pc_base, mem_base);
      case KernelKind::Stencil:
        return std::make_unique<StencilKernel>(params, pc_base, mem_base);
      case KernelKind::FpSerial:
        return std::make_unique<FpSerialKernel>(params, pc_base, mem_base);
      default:
        panic("unknown kernel kind");
    }
}

} // namespace psca
