/**
 * @file
 * Tests for the binary serialization helpers underlying the record
 * cache and firmware images, and for the sealed-file reader and
 * writer that every checksummed artifact format goes through.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/serialize.hh"

using namespace psca;

namespace {

class SerializeTest : public ::testing::Test
{
  protected:
    void SetUp() override { path_ = "/tmp/psca_ser_test.bin"; }
    void TearDown() override { std::filesystem::remove(path_); }
    std::string path_;
};

} // namespace

TEST_F(SerializeTest, ScalarRoundTrip)
{
    {
        BinaryWriter out(path_);
        out.put<uint64_t>(0xdeadbeefcafeULL);
        out.put<int32_t>(-42);
        out.put<float>(3.25f);
        out.put<double>(-1e300);
        ASSERT_TRUE(out.good());
    }
    BinaryReader in(path_);
    ASSERT_TRUE(in.good());
    EXPECT_EQ(in.get<uint64_t>(), 0xdeadbeefcafeULL);
    EXPECT_EQ(in.get<int32_t>(), -42);
    EXPECT_FLOAT_EQ(in.get<float>(), 3.25f);
    EXPECT_DOUBLE_EQ(in.get<double>(), -1e300);
}

TEST_F(SerializeTest, VectorRoundTrip)
{
    std::vector<float> v{1.0f, -2.5f, 0.0f, 1e-30f};
    {
        BinaryWriter out(path_);
        out.putVector(v);
    }
    BinaryReader in(path_);
    EXPECT_EQ(in.getVector<float>(), v);
}

TEST_F(SerializeTest, EmptyVectorRoundTrip)
{
    {
        BinaryWriter out(path_);
        out.putVector(std::vector<uint32_t>{});
        out.put<uint8_t>(7);
    }
    BinaryReader in(path_);
    EXPECT_TRUE(in.getVector<uint32_t>().empty());
    EXPECT_EQ(in.get<uint8_t>(), 7);
}

TEST_F(SerializeTest, StringRoundTrip)
{
    {
        BinaryWriter out(path_);
        out.putString("hello psca");
        out.putString("");
        out.putString(std::string("with\0null", 9));
    }
    BinaryReader in(path_);
    EXPECT_EQ(in.getString(), "hello psca");
    EXPECT_EQ(in.getString(), "");
    EXPECT_EQ(in.getString(), std::string("with\0null", 9));
}

TEST_F(SerializeTest, MixedSequenceOrderPreserved)
{
    {
        BinaryWriter out(path_);
        out.put<uint16_t>(1);
        out.putString("a");
        out.putVector(std::vector<int>{2, 3});
        out.put<uint16_t>(4);
    }
    BinaryReader in(path_);
    EXPECT_EQ(in.get<uint16_t>(), 1);
    EXPECT_EQ(in.getString(), "a");
    EXPECT_EQ(in.getVector<int>(), (std::vector<int>{2, 3}));
    EXPECT_EQ(in.get<uint16_t>(), 4);
}

TEST_F(SerializeTest, MissingFileReadsNotGood)
{
    BinaryReader in("/tmp/psca_no_such_file_12345.bin");
    EXPECT_FALSE(in.good());
}

TEST_F(SerializeTest, TruncatedReadTurnsNotGood)
{
    {
        BinaryWriter out(path_);
        out.put<uint32_t>(1);
    }
    BinaryReader in(path_);
    in.get<uint32_t>();
    in.get<uint64_t>(); // past EOF
    EXPECT_FALSE(in.good());
}

TEST_F(SerializeTest, ChecksumTrailerRoundTrips)
{
    {
        BinaryWriter out(path_);
        out.put<uint64_t>(0x1122334455667788ULL);
        out.putVector(std::vector<float>{1.5f, -2.5f});
        out.putString("payload");
        out.putChecksumTrailer();
        ASSERT_TRUE(out.good());
    }
    BinaryReader in(path_);
    in.get<uint64_t>();
    in.getVector<float>();
    in.getString();
    EXPECT_TRUE(in.verifyChecksumTrailer());
}

TEST_F(SerializeTest, ChecksumCatchesSingleFlippedByte)
{
    {
        BinaryWriter out(path_);
        for (uint32_t i = 0; i < 64; ++i)
            out.put<uint32_t>(i);
        out.putChecksumTrailer();
    }
    // Flip one payload byte in the middle of the file.
    {
        std::fstream f(path_,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(100);
        char b = 0;
        f.read(&b, 1);
        b ^= 0x10;
        f.seekp(100);
        f.write(&b, 1);
    }
    BinaryReader in(path_);
    for (uint32_t i = 0; i < 64; ++i)
        in.get<uint32_t>();
    ASSERT_TRUE(in.good()); // bytes read fine...
    EXPECT_FALSE(in.verifyChecksumTrailer()); // ...but don't verify
}

TEST_F(SerializeTest, ChecksumFailsOnTruncatedTrailer)
{
    {
        BinaryWriter out(path_);
        out.put<uint32_t>(7);
        // No trailer written.
    }
    BinaryReader in(path_);
    in.get<uint32_t>();
    EXPECT_FALSE(in.verifyChecksumTrailer());
}

TEST_F(SerializeTest, FileHeaderChecks)
{
    constexpr uint64_t kMagic = 0x50534341464f4fULL;
    {
        BinaryWriter out(path_);
        writeFileHeader(out, kMagic, 3);
        out.put<uint8_t>(42);
    }
    {
        BinaryReader in(path_);
        EXPECT_EQ(readFileHeader(in, kMagic, 3), HeaderCheck::Ok);
        EXPECT_EQ(in.get<uint8_t>(), 42); // positioned past header
    }
    {
        BinaryReader in(path_);
        EXPECT_EQ(readFileHeader(in, kMagic + 1, 3),
                  HeaderCheck::BadMagic);
    }
    {
        BinaryReader in(path_);
        EXPECT_EQ(readFileHeader(in, kMagic, 4),
                  HeaderCheck::BadVersion);
    }
    {
        std::ofstream(path_, std::ios::binary).put('x'); // too short
        BinaryReader in(path_);
        EXPECT_EQ(readFileHeader(in, kMagic, 3),
                  HeaderCheck::Unreadable);
    }
    EXPECT_STREQ(headerCheckName(HeaderCheck::BadVersion),
                 "version mismatch");
}

TEST_F(SerializeTest, CorruptLengthPrefixCannotExhaustMemory)
{
    {
        BinaryWriter out(path_);
        // A length prefix claiming ~10^18 elements in a tiny file.
        out.put<uint64_t>(1ULL << 60);
        out.put<uint32_t>(1);
    }
    BinaryReader in(path_);
    EXPECT_TRUE(in.getVector<double>().empty());
    EXPECT_FALSE(in.good());

    BinaryReader in2(path_);
    EXPECT_TRUE(in2.getString().empty());
    EXPECT_FALSE(in2.good());

    // A prefix whose byte count wraps to a small number (2^61 doubles
    // is 2^64 bytes, i.e. 0) must fail the read too, not throw.
    {
        BinaryWriter out(path_);
        out.put<uint64_t>(1ULL << 61);
        out.put<uint32_t>(1);
    }
    BinaryReader in3(path_);
    EXPECT_TRUE(in3.getVector<double>().empty());
    EXPECT_FALSE(in3.good());
}

TEST_F(SerializeTest, QuarantineMovesCorruptFileAside)
{
    {
        std::ofstream out(path_, std::ios::binary);
        out << "corrupt bytes";
    }
    const std::string dest = path_ + ".quarantined";
    std::filesystem::remove(dest);
    quarantineFile(path_, "test");
    EXPECT_FALSE(std::filesystem::exists(path_));
    ASSERT_TRUE(std::filesystem::exists(dest));
    // The quarantined copy keeps the original bytes for inspection.
    EXPECT_EQ(std::filesystem::file_size(dest), 13u);
    std::filesystem::remove(dest);
}

TEST_F(SerializeTest, SealedFileChecksEveryLayer)
{
    constexpr uint64_t kMagic = 0x5053434153454cULL;
    uint64_t sum = 0;
    auto write = [&](uint32_t version, uint32_t value) {
        BinaryWriter out(path_);
        writeSealed(out, kMagic, version, [&] {
            out.put(value);
            out.putVector(std::vector<double>{1.0, 2.0});
        });
        sum = out.checksum();
    };
    // The reason of a Corrupt read; "" for Ok and Missing.
    auto read = [&](std::optional<uint64_t> expect = std::nullopt) {
        uint32_t got = 0;
        std::vector<double> vec;
        const bool existed = std::filesystem::exists(path_);
        const SealedRead r = readSealedFile(
            path_, kMagic, 1,
            [&](BinaryReader &in) -> const char * {
                got = in.get<uint32_t>();
                vec = in.getVector<double>();
                return got == 13 ? "unlucky value" : nullptr;
            },
            expect);
        if (r.status == SealedStatus::Ok) {
            EXPECT_EQ(got, 7u);
            EXPECT_EQ(vec, (std::vector<double>{1.0, 2.0}));
        }
        EXPECT_EQ(r.status == SealedStatus::Corrupt, r.reason != nullptr);
        // The reader never moves the file; quarantine is the caller's.
        EXPECT_EQ(std::filesystem::exists(path_), existed);
        return std::string(r.reason ? r.reason : "");
    };
    std::filesystem::remove(path_);
    EXPECT_EQ(read(), "");

    write(1, 7);
    const uint64_t good_sum = sum;
    EXPECT_EQ(read(good_sum), "");
    EXPECT_EQ(read(good_sum + 1), "differs from its recorded checksum");

    write(2, 7);
    EXPECT_EQ(read(), "version mismatch");

    write(1, 13);
    EXPECT_EQ(read(), "unlucky value"); // parse veto

    write(1, 7);
    std::filesystem::resize_file(path_, 44); // trailer cut short
    EXPECT_EQ(read(), "checksum mismatch");

    write(1, 7);
    std::ofstream(path_, std::ios::binary | std::ios::app) << 'x';
    EXPECT_EQ(read(), "bytes after the trailer");

    // The top bit of the vector's length prefix (byte 23 of header,
    // value, prefix) flipped: the read fails instead of throwing.
    write(1, 7);
    {
        std::fstream f(path_, std::ios::in | std::ios::out |
                                  std::ios::binary);
        f.seekp(23);
        f.put(static_cast<char>(0x80));
    }
    EXPECT_EQ(read(), "truncated");
}
