/**
 * @file
 * Seeded network fault injection for the fleet wire path. Extends
 * the PSCA_FAULTS framework (common/fault.hh) into src/dist with six
 * net.* sites — frame corruption, torn sends, connection resets,
 * recv stalls, dropped heartbeats, duplicated Result delivery — so
 * the chaos harness (`psca chaos`) can soak
 * the rejoin/crash-resume machinery under bit-reproducible schedules.
 *
 * Every wrapper is a pass-through costing one cached bool load when
 * no site is armed. Callers supply a stream key built from stable
 * wire identities (scope hash, unit index, message slot) mixed with
 * the connection generation: the generation changes on every
 * successful (re)connect, so a fault that killed one delivery does
 * not deterministically re-fire on the retry and a seeded schedule
 * can never livelock a rejoining worker.
 *
 * Injected failures are indistinguishable from real ones by design:
 * sendFrameChaos() returns false (or poisons the wire so the peer's
 * checksum fails) exactly where a flaky network would, and recovery
 * runs through the same rejoin/reassign/dedupe paths real faults
 * take. That is what makes the chaos soak's byte-identity assertion
 * meaningful.
 */

#ifndef PSCA_DIST_NETFAULT_HH
#define PSCA_DIST_NETFAULT_HH

#include <cstdint>
#include <string>

#include "dist/protocol.hh"

namespace psca {
namespace dist {

/**
 * Send one frame, consulting the net.* send sites for @p key:
 *
 *   net.conn_reset    shuts the socket down both ways and sends
 *                     nothing — the peer sees a dead connection.
 *   net.torn_send     delivers a prefix of the frame, then shuts
 *                     down the write side — the peer reads EOF
 *                     mid-frame (Corrupt).
 *   net.frame_corrupt flips one wire byte; the send "succeeds"
 *                     locally and the peer's checksum catches it.
 *
 * Returns false when the frame was (deliberately or really) not
 * delivered — callers treat that exactly like a real send failure.
 */
bool sendFrameChaos(int fd, Msg type, const std::string &payload,
                    uint64_t key);

/**
 * Receive one frame, optionally stalling first (net.recv_stall,
 * param = stall milliseconds, default 20, capped at 1000).
 */
RecvStatus recvFrameChaos(int fd, Frame &out, uint64_t key,
                          uint32_t max_payload = kMaxFramePayload);

/** Should the worker silently skip this heartbeat? */
bool heartbeatDropped(uint64_t key);

/** Should the worker deliver this Result twice? */
bool duplicateResult(uint64_t key);

} // namespace dist
} // namespace psca

#endif // PSCA_DIST_NETFAULT_HH
