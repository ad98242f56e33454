#include "dist/protocol.hh"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/env.hh"
#include "common/serialize.hh"

namespace psca {
namespace dist {

uint32_t
maxFramePayloadCap()
{
    static const uint32_t cap = static_cast<uint32_t>(
        env::intOr("PSCA_DIST_MAX_FRAME_MB", 64, 1, 256) << 20);
    return cap;
}

const char *
recvStatusName(RecvStatus s)
{
    switch (s) {
      case RecvStatus::Ok:
        return "ok";
      case RecvStatus::Closed:
        return "closed";
      case RecvStatus::Timeout:
        return "timeout";
      case RecvStatus::Corrupt:
        return "corrupt";
      case RecvStatus::Oversized:
        return "oversized";
    }
    return "?";
}

bool
parseHostPort(const std::string &spec, std::string &host, int &port)
{
    const size_t colon = spec.rfind(':');
    if (colon == std::string::npos || colon + 1 >= spec.size())
        return false;
    host = spec.substr(0, colon);
    long long p = 0;
    if (!env::tryParseLong(spec.c_str() + colon + 1, p) || p < 0 ||
        p > 65535)
        return false;
    port = static_cast<int>(p);
    return true;
}

void
setSockTimeouts(int fd, double seconds)
{
    timeval tv = {};
    tv.tv_sec = static_cast<time_t>(seconds);
    tv.tv_usec = static_cast<suseconds_t>(
        (seconds - static_cast<double>(tv.tv_sec)) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    // Bound sends as well: a peer that stops draining (stuck on
    // another connection, mid-restart) must surface as a send failure
    // the caller can handle, not an indefinite block.
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool
sendAll(int fd, const void *data, size_t n)
{
    const char *p = static_cast<const char *>(data);
    size_t off = 0;
    while (off < n) {
        const ssize_t wrote =
            ::send(fd, p + off, n - off, MSG_NOSIGNAL);
        if (wrote <= 0) {
            if (wrote < 0 && errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(wrote);
    }
    return true;
}

namespace {

/**
 * Read exactly @p n bytes. Returns Ok, or Closed on immediate EOF
 * when @p eof_ok (a frame boundary), Corrupt on EOF mid-read, and
 * Timeout when SO_RCVTIMEO expires.
 */
RecvStatus
recvExact(int fd, void *data, size_t n, bool eof_ok)
{
    char *p = static_cast<char *>(data);
    size_t off = 0;
    while (off < n) {
        const ssize_t got = ::recv(fd, p + off, n - off, 0);
        if (got == 0)
            return off == 0 && eof_ok ? RecvStatus::Closed
                                      : RecvStatus::Corrupt;
        if (got < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return RecvStatus::Timeout;
            return RecvStatus::Corrupt;
        }
        off += static_cast<size_t>(got);
    }
    return RecvStatus::Ok;
}

constexpr size_t kHeaderBytes =
    sizeof(uint32_t) + sizeof(uint8_t) + sizeof(uint32_t);

} // namespace

std::string
encodeFrame(Msg type, const std::string &payload)
{
    const uint8_t t = static_cast<uint8_t>(type);
    const uint32_t len = static_cast<uint32_t>(payload.size());
    std::string frame;
    frame.resize(kHeaderBytes + payload.size() + sizeof(uint64_t));
    size_t off = 0;
    std::memcpy(&frame[off], &kFrameMagic, sizeof(kFrameMagic));
    off += sizeof(kFrameMagic);
    frame[off++] = static_cast<char>(t);
    std::memcpy(&frame[off], &len, sizeof(len));
    off += sizeof(len);
    std::memcpy(&frame[off], payload.data(), payload.size());
    off += payload.size();
    // The checksum covers (type, len, payload) — everything but the
    // magic, mirroring the journal's per-frame trailer scheme.
    uint64_t sum = fnv1aUpdate(kFnv1aBasis, &t, sizeof(t));
    sum = fnv1aUpdate(sum, &len, sizeof(len));
    sum = fnv1aUpdate(sum, payload.data(), payload.size());
    std::memcpy(&frame[off], &sum, sizeof(sum));
    return frame;
}

bool
sendFrame(int fd, Msg type, const std::string &payload)
{
    const std::string frame = encodeFrame(type, payload);
    return sendAll(fd, frame.data(), frame.size());
}

RecvStatus
recvFrame(int fd, Frame &out, uint32_t max_payload)
{
    uint8_t header[kHeaderBytes];
    RecvStatus st = recvExact(fd, header, sizeof(header), true);
    if (st != RecvStatus::Ok)
        return st;
    uint32_t magic = 0;
    uint32_t len = 0;
    std::memcpy(&magic, header, sizeof(magic));
    const uint8_t type = header[sizeof(magic)];
    std::memcpy(&len, header + sizeof(magic) + 1, sizeof(len));
    if (magic != kFrameMagic || len > kMaxFramePayload)
        return RecvStatus::Corrupt;
    if (len > std::min(max_payload, kMaxFramePayload))
        return RecvStatus::Oversized;

    // Grow the buffer only as bytes actually arrive: a well-formed
    // header cannot reserve more memory than the peer truly sends.
    constexpr size_t kRecvChunk = 1u << 20;
    out.payload.clear();
    size_t got = 0;
    while (got < len) {
        const size_t step = std::min(kRecvChunk, size_t(len) - got);
        out.payload.resize(got + step);
        st = recvExact(fd, &out.payload[got], step, false);
        if (st != RecvStatus::Ok)
            return st;
        got += step;
    }
    uint64_t stored = 0;
    st = recvExact(fd, &stored, sizeof(stored), false);
    if (st != RecvStatus::Ok)
        return st;
    uint64_t sum = fnv1aUpdate(kFnv1aBasis, &type, sizeof(type));
    sum = fnv1aUpdate(sum, &len, sizeof(len));
    sum = fnv1aUpdate(sum, out.payload.data(), out.payload.size());
    if (sum != stored)
        return RecvStatus::Corrupt;
    out.type = static_cast<Msg>(type);
    return RecvStatus::Ok;
}

} // namespace dist
} // namespace psca
