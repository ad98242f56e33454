#include "trace/decoded.hh"

#include "common/rng.hh"
#include "trace/generator.hh"

namespace psca {

void
DecodedTrace::clear()
{
    pc_.clear();
    addr_.clear();
    cls_.clear();
    dst_.clear();
    src0_.clear();
    src1_.clear();
    taken_.clear();
}

void
DecodedTrace::reserve(size_t n)
{
    pc_.reserve(n);
    addr_.reserve(n);
    cls_.reserve(n);
    dst_.reserve(n);
    src0_.reserve(n);
    src1_.reserve(n);
    taken_.reserve(n);
}

void
DecodedTrace::append(const MicroOp &op)
{
    pc_.push_back(op.pc);
    addr_.push_back(op.addr);
    cls_.push_back(static_cast<uint8_t>(op.cls));
    dst_.push_back(op.dst);
    src0_.push_back(op.src0);
    src1_.push_back(op.src1);
    taken_.push_back(op.branchTaken ? 1 : 0);
}

void
DecodedTrace::append(const MicroOp *ops, size_t n)
{
    const size_t base = size();
    pc_.resize(base + n);
    addr_.resize(base + n);
    cls_.resize(base + n);
    dst_.resize(base + n);
    src0_.resize(base + n);
    src1_.resize(base + n);
    taken_.resize(base + n);
    // One pass per field: each destination is written sequentially
    // (vectorizable), and the 32-byte AoS source stays cache-resident
    // across the passes for the chunk sizes the generator uses.
    uint64_t *pc = pc_.data() + base;
    for (size_t i = 0; i < n; ++i)
        pc[i] = ops[i].pc;
    uint64_t *addr = addr_.data() + base;
    for (size_t i = 0; i < n; ++i)
        addr[i] = ops[i].addr;
    uint8_t *cls = cls_.data() + base;
    for (size_t i = 0; i < n; ++i)
        cls[i] = static_cast<uint8_t>(ops[i].cls);
    int8_t *dst = dst_.data() + base;
    for (size_t i = 0; i < n; ++i)
        dst[i] = ops[i].dst;
    int8_t *src0 = src0_.data() + base;
    for (size_t i = 0; i < n; ++i)
        src0[i] = ops[i].src0;
    int8_t *src1 = src1_.data() + base;
    for (size_t i = 0; i < n; ++i)
        src1[i] = ops[i].src1;
    uint8_t *taken = taken_.data() + base;
    for (size_t i = 0; i < n; ++i)
        taken[i] = ops[i].branchTaken ? 1 : 0;
}

MicroOp
DecodedTrace::opAt(size_t i) const
{
    MicroOp op;
    op.pc = pc_[i];
    op.addr = addr_[i];
    op.cls = static_cast<OpClass>(cls_[i]);
    op.dst = dst_[i];
    op.src0 = src0_[i];
    op.src1 = src1_[i];
    op.branchTaken = taken_[i] != 0;
    return op;
}

uint64_t
DecodedTrace::contentHash() const
{
    ContentHasher h(size());
    h.update(*this);
    return h.value();
}

ContentHasher::ContentHasher(uint64_t total_ops)
    : h_(mixSeeds(0x5ca1ab1edec0deULL, total_ops))
{}

namespace {

/**
 * Fold one op into h. The narrow fields are packed into one word so
 * each op costs two mixes; the mix is order-sensitive through h.
 */
inline uint64_t
foldOp(uint64_t h, uint64_t pc, uint64_t addr, uint8_t cls, int8_t dst,
       int8_t src0, int8_t src1, uint8_t taken)
{
    const uint64_t packed =
        (static_cast<uint64_t>(cls) << 40) ^
        (static_cast<uint64_t>(static_cast<uint8_t>(dst)) << 32) ^
        (static_cast<uint64_t>(static_cast<uint8_t>(src0)) << 24) ^
        (static_cast<uint64_t>(static_cast<uint8_t>(src1)) << 16) ^
        (static_cast<uint64_t>(taken) << 8);
    h = mixSeeds(h, pc ^ (addr * 0x9e3779b97f4a7c15ULL));
    return mixSeeds(h, packed);
}

} // namespace

void
ContentHasher::update(const DecodedTrace &chunk)
{
    const uint64_t *pc = chunk.pc();
    const uint64_t *addr = chunk.addr();
    const uint8_t *cls = chunk.cls();
    const int8_t *dst = chunk.dst();
    const int8_t *src0 = chunk.src0();
    const int8_t *src1 = chunk.src1();
    const uint8_t *taken = chunk.taken();
    uint64_t h = h_;
    for (size_t i = 0; i < chunk.size(); ++i)
        h = foldOp(h, pc[i], addr[i], cls[i], dst[i], src0[i], src1[i],
                   taken[i]);
    h_ = h;
}

void
ContentHasher::update(const MicroOp *ops, size_t n)
{
    uint64_t h = h_;
    for (size_t i = 0; i < n; ++i) {
        const MicroOp &op = ops[i];
        h = foldOp(h, op.pc, op.addr, static_cast<uint8_t>(op.cls),
                   op.dst, op.src0, op.src1, op.branchTaken ? 1 : 0);
    }
    h_ = h;
}

uint64_t
streamContentHash(TraceGenerator &gen, uint64_t n)
{
    ContentHasher h(n);
    const MicroOp *ops = nullptr;
    for (uint64_t left = n; left > 0;) {
        const size_t take = gen.next(ops, static_cast<size_t>(left));
        h.update(ops, take);
        left -= take;
    }
    return h.value();
}

DecodedTrace
decodeTrace(TraceGenerator &gen, uint64_t n)
{
    DecodedTrace trace;
    trace.reserve(static_cast<size_t>(n));
    gen.fillDecoded(trace, static_cast<size_t>(n));
    return trace;
}

} // namespace psca
