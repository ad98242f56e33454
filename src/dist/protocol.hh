/**
 * @file
 * Wire protocol for the coordinator/worker experiment fleet
 * (DESIGN.md §13): small length-prefixed, checksummed frames over
 * TCP, reusing the FNV-1a trailer idiom of common/journal.
 *
 * Frame layout (little-endian, one sendAll() per frame):
 *
 *     u32 magic      "PDST"
 *     u8  type       Msg enumerator
 *     u32 len        payload byte count (<= kMaxFramePayload)
 *     u8  payload[len]
 *     u64 checksum   FNV-1a 64 over (type, len, payload)
 *
 * A frame that fails the magic, the length bound, or the checksum is
 * Corrupt — the receiver drops the connection rather than guessing
 * at resynchronization, and the journal-based reassignment protocol
 * recovers the work. Payloads are built and parsed with the
 * in-memory BinaryWriter/BinaryReader modes so allocation bounds and
 * checksums behave exactly as they do for on-disk artifacts.
 *
 * The conversation is strict request-reply from the worker's side:
 * every worker frame except Heartbeat (one-way) and Bye (final) gets
 * exactly one coordinator reply, so neither end ever has more than
 * one frame in flight per direction and framing can never interleave.
 */

#ifndef PSCA_DIST_PROTOCOL_HH
#define PSCA_DIST_PROTOCOL_HH

#include <cstdint>
#include <string>

namespace psca {
namespace dist {

constexpr uint32_t kFrameMagic = 0x54534450u; // "PDST"
/** v2: Hello carries the worker's previous id (rejoin accounting). */
constexpr uint32_t kProtocolVersion = 2;

/** Upper bound on one payload (a whole-trace record is ~MBs). */
constexpr uint32_t kMaxFramePayload = 1u << 28;

/** Frame types. Worker-originated < 32, coordinator replies >= 32. */
enum class Msg : uint8_t
{
    // worker -> coordinator
    Hello = 1,      //!< protocol version, thread count
    ScopeEnter = 2, //!< scope hash/config/n/name + assignment request
    Poll = 3,       //!< request more units (or completion status)
    Result = 4,     //!< one computed unit's payload
    Fetch = 5,      //!< request a unit payload this worker lacks
    ScopeLeave = 6, //!< done fetching; carries the stat snapshot
    Heartbeat = 7,  //!< one-way liveness while a batch computes
    Bye = 8,        //!< clean disconnect after the campaign body

    // coordinator -> worker
    Welcome = 32,   //!< assigns the worker id
    Assign = 33,    //!< list of unit indices to execute
    Wait = 34,      //!< nothing to assign yet; re-poll after N ms
    ScopeDone = 35, //!< every unit of the scope is journaled
    Data = 36,      //!< one unit's payload (Fetch reply)
    Ack = 37,       //!< Result/ScopeLeave accepted
    Shutdown = 38,  //!< coordinator is stopping; exit resumably
    Error = 39,     //!< protocol/config divergence; drop connection
};

/** One decoded frame. */
struct Frame
{
    Msg type = Msg::Error;
    std::string payload;
};

enum class RecvStatus
{
    Ok,
    Closed,    //!< orderly EOF at a frame boundary
    Timeout,   //!< SO_RCVTIMEO expired (peer stalled)
    Corrupt,   //!< bad magic/length/checksum or EOF mid-frame
    Oversized, //!< well-formed header but len exceeds the caller's cap
};

const char *recvStatusName(RecvStatus s);

/**
 * The per-connection recv cap actually applied by the fleet:
 * PSCA_DIST_MAX_FRAME_MB (default 64, range 1-256) megabytes. The
 * protocol-level kMaxFramePayload stays the absolute ceiling.
 */
uint32_t maxFramePayloadCap();

/**
 * Parse "host:port" with a port in 0-65535 (0: any free port, which
 * only a listener can use); false on malformed input.
 */
bool parseHostPort(const std::string &spec, std::string &host, int &port);

/** Bound every recv() and send() on @p fd to @p seconds. */
void setSockTimeouts(int fd, double seconds);

/** Loop send() over the whole buffer (MSG_NOSIGNAL). */
bool sendAll(int fd, const void *data, size_t n);

/** Encode one frame into its exact wire image (header + checksum). */
std::string encodeFrame(Msg type, const std::string &payload);

/** Encode and send one frame. False when the peer went away. */
bool sendFrame(int fd, Msg type, const std::string &payload);

/**
 * Receive and verify one frame (blocking, honors SO_RCVTIMEO).
 *
 * The payload buffer grows in bounded chunks as bytes actually arrive,
 * so a lying length header cannot force a huge up-front allocation; a
 * header announcing more than max_payload bytes yields Oversized
 * without reading the body. max_payload is clamped to kMaxFramePayload.
 */
RecvStatus recvFrame(int fd, Frame &out, uint32_t max_payload = kMaxFramePayload);

} // namespace dist
} // namespace psca

#endif // PSCA_DIST_PROTOCOL_HH
