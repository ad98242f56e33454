/**
 * @file
 * Minimal binary (de)serialization helpers used by the dataset cache
 * and model save/load. Little-endian host assumed (x86); files carry a
 * magic word and version so stale caches are rejected, not misread.
 *
 * Integrity model: every byte written through BinaryWriter feeds a
 * running FNV-1a 64 checksum. The checksummed artifact formats are
 * sealed files (DESIGN.md §10, "Sealed files"): writeSealed() lays
 * down a (magic, version) header, the payload and the checksum
 * trailer, and readSealedFile() checks all of it in one pass and
 * names the failed check. Rebuildable artifacts are then quarantined
 * (quarantineFile(): rename to <path>.quarantined), so callers
 * rebuild instead of deserializing noise. Readers bound
 * every length-prefixed allocation by the actual file size, so a
 * corrupted prefix cannot trigger a multi-gigabyte allocation.
 */

#ifndef PSCA_COMMON_SERIALIZE_HH
#define PSCA_COMMON_SERIALIZE_HH

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "logging.hh"

namespace psca {

/** Incremental FNV-1a 64 over a byte range. */
inline uint64_t
fnv1aUpdate(uint64_t h, const void *data, size_t n)
{
    const auto *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

constexpr uint64_t kFnv1aBasis = 0xcbf29ce484222325ULL;

/**
 * Streaming binary writer over a file, or — default-constructed —
 * over an in-memory buffer (takeBuffer()). The memory mode is how
 * unit payloads are built for the distribution protocol without a
 * temp-file round trip; both modes feed the same running checksum.
 */
class BinaryWriter
{
  public:
    /** In-memory writer; collect the bytes with takeBuffer(). */
    BinaryWriter() : out_(&mem_) {}

    explicit BinaryWriter(const std::string &path)
        : file_(path, std::ios::binary), out_(&file_)
    {
        if (!file_)
            fatal("cannot open '", path, "' for writing");
    }

    /** Write one trivially-copyable value. */
    template <typename T>
    void
    put(const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        putRaw(&value, sizeof(T));
    }

    /** Write a length-prefixed vector of trivially-copyable values. */
    template <typename T>
    void
    putVector(const std::vector<T> &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        put<uint64_t>(v.size());
        putRaw(v.data(), v.size() * sizeof(T));
    }

    /** Write a length-prefixed string. */
    void
    putString(const std::string &s)
    {
        put<uint64_t>(s.size());
        putRaw(s.data(), s.size());
    }

    /** Write raw bytes (an already-serialized blob), checksummed. */
    void
    putBytes(const void *data, size_t n)
    {
        putRaw(data, n);
    }

    /**
     * Append the running checksum over everything written so far as
     * the file's final word. Must be the last write.
     */
    void
    putChecksumTrailer()
    {
        const uint64_t sum = checksum_;
        out_->write(reinterpret_cast<const char *>(&sum),
                    sizeof(sum));
    }

    /** Checksum over the bytes written so far. */
    uint64_t checksum() const { return checksum_; }

    /** Steal the accumulated bytes (memory mode only). */
    std::string takeBuffer() { return std::move(mem_).str(); }

    /**
     * True when every write so far reached the stream. Callers must
     * check this (after flush()/close via destruction or explicitly)
     * before treating the file as durable — a full disk otherwise
     * produces a truncated cache with exit code 0.
     */
    bool
    good()
    {
        out_->flush();
        return static_cast<bool>(*out_);
    }

  private:
    void
    putRaw(const void *data, size_t n)
    {
        out_->write(static_cast<const char *>(data),
                    static_cast<std::streamsize>(n));
        checksum_ = fnv1aUpdate(checksum_, data, n);
    }

    std::ofstream file_;
    std::ostringstream mem_;
    std::ostream *out_;
    uint64_t checksum_ = kFnv1aBasis;
};

/**
 * Streaming binary reader over a file, or over an in-memory byte
 * range (protocol payloads). Allocation bounds and the running
 * checksum behave identically in both modes.
 */
class BinaryReader
{
  public:
    explicit BinaryReader(const std::string &path)
        : file_(path, std::ios::binary), in_(&file_)
    {
        if (file_) {
            file_.seekg(0, std::ios::end);
            fileSize_ = static_cast<uint64_t>(file_.tellg());
            file_.seekg(0, std::ios::beg);
        }
    }

    /** In-memory reader over a copy of @p n bytes at @p data. */
    BinaryReader(const void *data, size_t n)
        : mem_(std::string(static_cast<const char *>(data), n)),
          in_(&mem_), fileSize_(n)
    {}

    /** True if the source opened and no read error has occurred. */
    bool good() const { return static_cast<bool>(*in_); }

    /** Read one trivially-copyable value. */
    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T value{};
        getBytes(&value, sizeof(T));
        return value;
    }

    /** Read a length-prefixed vector. */
    template <typename T>
    std::vector<T>
    getVector()
    {
        static_assert(std::is_trivially_copyable_v<T>);
        const auto n = get<uint64_t>();
        // Bound the allocation by what the file can actually hold: a
        // corrupted prefix must fail the read, not exhaust memory.
        if (!fits(n, sizeof(T))) {
            in_->setstate(std::ios::failbit);
            return {};
        }
        std::vector<T> v(n);
        getBytes(v.data(), n * sizeof(T));
        return v;
    }

    /** Read a length-prefixed string. */
    std::string
    getString()
    {
        const auto n = get<uint64_t>();
        if (!fits(n, 1)) {
            in_->setstate(std::ios::failbit);
            return {};
        }
        std::string s(n, '\0');
        getBytes(s.data(), n);
        return s;
    }

    /** Read @p n raw bytes into @p data and fold them into the checksum. */
    void
    getBytes(void *data, size_t n)
    {
        in_->read(static_cast<char *>(data),
                  static_cast<std::streamsize>(n));
        if (*in_)
            checksum_ = fnv1aUpdate(checksum_, data, n);
    }

    /** Bytes left between the read position and the end. */
    uint64_t
    remaining() const
    {
        const auto pos = in_->tellg();
        return pos < 0 ? 0 : fileSize_ - static_cast<uint64_t>(pos);
    }

    /** Checksum over the bytes read so far. */
    uint64_t checksum() const { return checksum_; }

    /**
     * Read the trailing checksum word and compare it to the running
     * checksum over every byte read so far. Call after the last
     * payload read; false on mismatch, short file, or earlier error.
     */
    bool
    verifyChecksumTrailer()
    {
        const uint64_t expect = checksum_;
        uint64_t stored = 0;
        in_->read(reinterpret_cast<char *>(&stored), sizeof(stored));
        return static_cast<bool>(*in_) && stored == expect;
    }

  private:
    /**
     * True if @p n elements of @p elem_bytes each fit in the bytes
     * left. Divides rather than multiplies: a corrupted count must
     * not wrap the product to a small size.
     */
    bool
    fits(uint64_t n, uint64_t elem_bytes) const
    {
        const auto pos = in_->tellg();
        if (pos < 0)
            return false;
        return n <= (fileSize_ - static_cast<uint64_t>(pos)) / elem_bytes;
    }

    std::ifstream file_;
    std::istringstream mem_;
    std::istream *in_;
    uint64_t fileSize_ = 0;
    uint64_t checksum_ = kFnv1aBasis;
};

/** Outcome of a file-header check, for named error messages. */
enum class HeaderCheck
{
    Ok,
    Unreadable, //!< open/read failure or file shorter than a header
    BadMagic,   //!< not one of our files (or a different artifact kind)
    BadVersion, //!< our file, stale or future format revision
};

inline const char *
headerCheckName(HeaderCheck c)
{
    switch (c) {
      case HeaderCheck::Ok:
        return "ok";
      case HeaderCheck::Unreadable:
        return "unreadable";
      case HeaderCheck::BadMagic:
        return "bad magic";
      case HeaderCheck::BadVersion:
        return "version mismatch";
    }
    return "?";
}

/** Write the standard (magic, version) file header. */
inline void
writeFileHeader(BinaryWriter &w, uint64_t magic, uint32_t version)
{
    w.put<uint64_t>(magic);
    w.put<uint32_t>(version);
}

/** Check the standard header; the file is positioned after it. */
inline HeaderCheck
readFileHeader(BinaryReader &r, uint64_t magic, uint32_t version)
{
    const auto got_magic = r.get<uint64_t>();
    const auto got_version = r.get<uint32_t>();
    if (!r.good())
        return HeaderCheck::Unreadable;
    if (got_magic != magic)
        return HeaderCheck::BadMagic;
    if (got_version != version)
        return HeaderCheck::BadVersion;
    return HeaderCheck::Ok;
}

/** What quarantineFile() did, for caller-side accounting. */
struct QuarantineResult
{
    std::string dest; //!< where the bad bytes went ("" if removed)
    bool collided = false; //!< a prior quarantined artifact existed
};

/**
 * Move a corrupt artifact aside (to "<path>.quarantined", or the
 * first free "<path>.quarantined.N") so the rebuild cannot collide
 * with it and the bad bytes stay available for inspection. Earlier
 * quarantined artifacts are never overwritten — repeated corruption
 * of the same path accumulates numbered evidence files, and the
 * caller can count `collided` results. Best-effort: falls back to
 * remove() if rename fails.
 */
inline QuarantineResult
quarantineFile(const std::string &path, const char *reason)
{
    QuarantineResult res;
    res.dest = path + ".quarantined";
    for (int seq = 1; std::ifstream(res.dest).good(); ++seq) {
        res.collided = true;
        res.dest = path + ".quarantined." + std::to_string(seq);
    }
    if (std::rename(path.c_str(), res.dest.c_str()) == 0) {
        warn("quarantined '", path, "' (", reason, ") -> '",
             res.dest, "'");
        emitEvent("quarantine", LogLevel::Warn,
                  "quarantined '" + path + "' (" + reason + ") -> '" +
                      res.dest + "'");
    } else {
        std::remove(path.c_str());
        warn("removed corrupt '", path, "' (", reason,
             "; quarantine rename failed)");
        emitEvent("quarantine", LogLevel::Warn,
                  "removed corrupt '" + path + "' (" +
                      std::string(reason) + ")");
        res.dest.clear();
    }
    return res;
}

/**
 * Write one sealed file: the (magic, version) header, the payload
 * that @p fill() writes to @p out, and the checksum trailer.
 */
template <typename Fill>
void
writeSealed(BinaryWriter &out, uint64_t magic, uint32_t version,
            Fill &&fill)
{
    writeFileHeader(out, magic, version);
    fill();
    out.putChecksumTrailer();
}

enum class SealedStatus
{
    Missing, //!< nothing to open: a cold miss, not corruption
    Ok,
    Corrupt, //!< a check failed; `reason` names it
};

/** What readSealedFile() found at a path. */
struct SealedRead
{
    SealedStatus status = SealedStatus::Missing;
    HeaderCheck header = HeaderCheck::Ok; //!< the header verdict
    const char *reason = nullptr;         //!< the failed check
};

/**
 * Read one sealed file, checking in order: the header, @p parse's own
 * checks (it reads the payload and returns a failure reason or
 * nullptr), that every read succeeded, the trailer, that the file
 * ends right after the trailer, and, when @p expect_sum is given,
 * that the checksum equals the one recorded for the file elsewhere
 * (a journal entry, a ring manifest). The first failed check is
 * reported as Corrupt with its name; the file is left in place, and
 * callers that rebuild quarantine it under that name. @p parse may
 * have filled its outputs even when the result is not Ok; callers use
 * them only on Ok.
 */
template <typename Parse>
SealedRead
readSealedFile(const std::string &path, uint64_t magic,
               uint32_t version, Parse &&parse,
               std::optional<uint64_t> expect_sum = std::nullopt)
{
    SealedRead res;
    BinaryReader in(path);
    if (!in.good())
        return res;
    res.reason = [&]() -> const char * {
        res.header = readFileHeader(in, magic, version);
        if (res.header != HeaderCheck::Ok)
            return headerCheckName(res.header);
        if (const char *reason = parse(in))
            return reason;
        if (!in.good())
            return "truncated";
        const uint64_t sum = in.checksum();
        if (!in.verifyChecksumTrailer())
            return "checksum mismatch";
        if (in.remaining() != 0)
            return "bytes after the trailer";
        if (expect_sum && sum != *expect_sum)
            return "differs from its recorded checksum";
        return nullptr;
    }();
    res.status = res.reason == nullptr ? SealedStatus::Ok
                                       : SealedStatus::Corrupt;
    return res;
}

} // namespace psca

#endif // PSCA_COMMON_SERIALIZE_HH
