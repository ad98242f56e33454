/**
 * @file
 * Pre-decoded structure-of-arrays trace representation. A MicroOp
 * stream is decoded once into parallel flat arrays (op class,
 * operands, address stream, branch metadata) so the simulator's inner
 * loop streams each field sequentially instead of striding through
 * 24-byte AoS records, and so one decode can feed several replays
 * or be content-hashed for the simulation memo cache (sim/memo.hh).
 * ContentHasher computes the same hash over a stream fed chunk by
 * chunk, so a trace can be keyed without ever being held whole.
 *
 * Layout contract (DESIGN.md §9): index i of every array describes
 * dynamic micro-op i of the stream; `memSize` is dropped because the
 * timing model never reads it, so two streams with equal decoded
 * arrays are timing-equivalent by construction and contentHash() is
 * a complete replay key.
 */

#ifndef PSCA_TRACE_DECODED_HH
#define PSCA_TRACE_DECODED_HH

#include <cstdint>
#include <vector>

#include "trace/uop.hh"

namespace psca {

class TraceGenerator;

/** One MicroOp stream, decoded into parallel flat arrays. */
class DecodedTrace
{
  public:
    size_t size() const { return cls_.size(); }
    bool empty() const { return cls_.empty(); }

    /** Drop all ops; keeps capacity (hot loops reuse the arrays). */
    void clear();

    /** Pre-size every array for n ops. */
    void reserve(size_t n);

    /** Append one already-decoded micro-op. */
    void append(const MicroOp &op);

    /** Append a batch of micro-ops. */
    void append(const MicroOp *ops, size_t n);

    /** Reconstruct op i as an AoS record (tests, debug dumps). */
    MicroOp opAt(size_t i) const;

    /**
     * Order-sensitive 64-bit hash of every timing-relevant field of
     * the stream. Equal hashes (plus equal size) identify streams
     * that replay identically; used as the memo-cache trace key.
     * Defined as one ContentHasher fed the whole trace.
     */
    uint64_t contentHash() const;

    // Field accessors used by the simulator's inner loop.
    const uint64_t *pc() const { return pc_.data(); }
    const uint64_t *addr() const { return addr_.data(); }
    const uint8_t *cls() const { return cls_.data(); }
    const int8_t *dst() const { return dst_.data(); }
    const int8_t *src0() const { return src0_.data(); }
    const int8_t *src1() const { return src1_.data(); }
    const uint8_t *taken() const { return taken_.data(); }

  private:
    std::vector<uint64_t> pc_;
    std::vector<uint64_t> addr_;
    std::vector<uint8_t> cls_;   //!< OpClass values
    std::vector<int8_t> dst_;
    std::vector<int8_t> src0_;
    std::vector<int8_t> src1_;
    std::vector<uint8_t> taken_; //!< branch direction (Branch only)
};

/**
 * Incremental DecodedTrace::contentHash(). Seeded with the stream's
 * total op count, then fed consecutive chunks of it; after the last
 * op, value() equals contentHash() of the whole stream decoded at
 * once, whatever the chunking.
 */
class ContentHasher
{
  public:
    explicit ContentHasher(uint64_t total_ops);

    /** Fold every op of chunk, in order. */
    void update(const DecodedTrace &chunk);

    /**
     * Fold n ops of an in-place span (TraceGenerator::next()); the
     * same hash as decoding them and calling update(chunk).
     */
    void update(const MicroOp *ops, size_t n);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_;
};

/**
 * contentHash() of the next n micro-ops of the generator, hashed in
 * place span by span (memory independent of n). The generator's
 * cursor advances past them.
 */
uint64_t streamContentHash(TraceGenerator &gen, uint64_t n);

/**
 * Decode exactly n micro-ops from the generator. The generator's
 * cursor advances past them, exactly as a fill() of n would.
 */
DecodedTrace decodeTrace(TraceGenerator &gen, uint64_t n);

} // namespace psca

#endif // PSCA_TRACE_DECODED_HH
