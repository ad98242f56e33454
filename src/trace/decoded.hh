/**
 * @file
 * Content keys for micro-op streams. ContentHasher folds every
 * timing-relevant field of a stream fed span by span, so a trace can
 * be keyed for the simulation memo cache (sim/memo.hh) without ever
 * being held whole; decodeTrace() materializes a stream when a caller
 * does want it whole.
 *
 * Key contract (DESIGN.md §9): `memSize` is left out of the hash
 * because the timing model never reads it, so two streams with equal
 * hashes (plus equal length) are timing-equivalent and the hash is a
 * complete replay key.
 */

#ifndef PSCA_TRACE_DECODED_HH
#define PSCA_TRACE_DECODED_HH

#include <cstdint>
#include <vector>

#include "trace/uop.hh"

namespace psca {

class TraceGenerator;

/**
 * Order-sensitive 64-bit hash of a micro-op stream. Seeded with the
 * stream's total op count, then fed consecutive spans of it; after
 * the last op, value() is the same whatever the chunking.
 */
class ContentHasher
{
  public:
    explicit ContentHasher(uint64_t total_ops);

    /** Fold n ops, in order. */
    void update(const MicroOp *ops, size_t n);

    uint64_t value() const { return h_; }

  private:
    uint64_t h_;
};

/**
 * Content hash of the next n micro-ops of the generator, hashed in
 * place span by span (memory independent of n). The generator's
 * cursor advances past them. This is the memo-cache trace key.
 */
uint64_t streamContentHash(TraceGenerator &gen, uint64_t n);

/**
 * The next n micro-ops of the generator, held whole. The generator's
 * cursor advances past them, exactly as a fill() of n would.
 */
std::vector<MicroOp> decodeTrace(TraceGenerator &gen, uint64_t n);

} // namespace psca

#endif // PSCA_TRACE_DECODED_HH
