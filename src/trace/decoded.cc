#include "trace/decoded.hh"

#include "common/rng.hh"
#include "trace/generator.hh"

namespace psca {

ContentHasher::ContentHasher(uint64_t total_ops)
    : h_(mixSeeds(0x5ca1ab1edec0deULL, total_ops))
{}

void
ContentHasher::update(const MicroOp *ops, size_t n)
{
    // The narrow fields are packed into one word so each op costs two
    // mixes; the mix is order-sensitive through h.
    uint64_t h = h_;
    for (size_t i = 0; i < n; ++i) {
        const MicroOp &op = ops[i];
        const uint64_t packed =
            (static_cast<uint64_t>(op.cls) << 40) ^
            (static_cast<uint64_t>(static_cast<uint8_t>(op.dst)) << 32) ^
            (static_cast<uint64_t>(static_cast<uint8_t>(op.src0)) << 24) ^
            (static_cast<uint64_t>(static_cast<uint8_t>(op.src1)) << 16) ^
            (static_cast<uint64_t>(op.branchTaken ? 1 : 0) << 8);
        h = mixSeeds(h, op.pc ^ (op.addr * 0x9e3779b97f4a7c15ULL));
        h = mixSeeds(h, packed);
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

std::vector<MicroOp>
decodeTrace(TraceGenerator &gen, uint64_t n)
{
    std::vector<MicroOp> ops;
    ops.reserve(static_cast<size_t>(n));
    gen.fill(ops, static_cast<size_t>(n));
    return ops;
}

} // namespace psca
