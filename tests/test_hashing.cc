#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "serialize/crc32.h"
#include "serialize/sha256.h"

namespace mmm {
namespace {

// FIPS 180-4 / NIST test vectors.
TEST(Sha256Test, EmptyInput) {
  EXPECT_EQ(Sha256::Hash("").ToHex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(Sha256::Hash("abc").ToHex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(Sha256::Hash("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")
                .ToHex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  std::string input(1000000, 'a');
  EXPECT_EQ(Sha256::Hash(input).ToHex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, ExactBlockBoundary) {
  std::string input(64, 'x');
  // Incremental must equal one-shot at the block boundary.
  Sha256 hasher;
  hasher.Update(input);
  EXPECT_EQ(hasher.Finish().ToHex(), Sha256::Hash(input).ToHex());
}

TEST(Sha256Test, DigestEquality) {
  EXPECT_EQ(Sha256::Hash("x"), Sha256::Hash("x"));
  EXPECT_NE(Sha256::Hash("x"), Sha256::Hash("y"));
}

class Sha256ChunkSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(Sha256ChunkSweep, IncrementalMatchesOneShot) {
  Rng rng(321);
  std::vector<uint8_t> data(4096);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBounded(256));

  Sha256 hasher;
  size_t chunk = GetParam();
  for (size_t offset = 0; offset < data.size(); offset += chunk) {
    size_t n = std::min(chunk, data.size() - offset);
    hasher.Update(std::span<const uint8_t>(data.data() + offset, n));
  }
  EXPECT_EQ(hasher.Finish(), Sha256::Hash(data));
}

INSTANTIATE_TEST_SUITE_P(ChunkSizes, Sha256ChunkSweep,
                         ::testing::Values(1, 3, 7, 63, 64, 65, 128, 1000, 4096));

TEST(Crc32Test, KnownVector) {
  // The canonical CRC-32 check value.
  EXPECT_EQ(Crc32::Compute("123456789"), 0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) { EXPECT_EQ(Crc32::Compute(""), 0u); }

TEST(Crc32Test, ExtendMatchesOneShot) {
  Rng rng(11);
  std::vector<uint8_t> data(1024);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBounded(256));
  uint32_t crc = 0;
  crc = Crc32::Extend(crc, std::span<const uint8_t>(data.data(), 100));
  crc = Crc32::Extend(crc, std::span<const uint8_t>(data.data() + 100, 924));
  EXPECT_EQ(crc, Crc32::Compute(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<uint8_t> data(256, 0x5a);
  uint32_t before = Crc32::Compute(data);
  data[100] ^= 0x01;
  EXPECT_NE(before, Crc32::Compute(data));
}

// ----- Kernel checks against references written here -----
//
// The library dispatches CRC32, SHA-256 and the byte primitives to
// hardware kernels (PCLMULQDQ, SHA-NI, SSE2/AVX2) or portable code by
// ActiveSimdLevel()/ActiveSimdFeatures(). These tests hold whichever level
// the process runs at to one plain reference; ctest runs this binary once
// as detected and once more under MMM_SIMD=scalar, so both the hardware
// and the portable kernels are pinned to the same outputs.

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextBounded(256));
  return data;
}

/// Advances the raw (pre-inverted) CRC-32 register one bit at a time.
uint32_t BitwiseCrcStep(uint32_t reg, uint8_t byte) {
  reg ^= byte;
  for (int bit = 0; bit < 8; ++bit) {
    reg = (reg & 1) ? (reg >> 1) ^ 0xedb88320u : reg >> 1;
  }
  return reg;
}

uint32_t BitwiseCrc(uint32_t crc, const uint8_t* data, size_t n) {
  uint32_t reg = ~crc;
  for (size_t i = 0; i < n; ++i) reg = BitwiseCrcStep(reg, data[i]);
  return ~reg;
}

TEST(SimdDispatchTest, FeaturesFollowTheLevelClamp) {
  const char* want = std::getenv("MMM_SIMD");
  if (want != nullptr && std::string(want) == "scalar") {
    EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  }
  if (ActiveSimdLevel() == SimdLevel::kScalar) {
    const SimdFeatures features = ActiveSimdFeatures();
    EXPECT_FALSE(features.pclmul);
    EXPECT_FALSE(features.sse41);
    EXPECT_FALSE(features.sha);
  }
}

TEST(Crc32KernelTest, EveryLengthAndOffsetMatchesBitwise) {
  const std::vector<uint8_t> buffer = RandomBytes(1024 + 16, 2024);
  for (size_t offset = 0; offset < 16; ++offset) {
    const uint8_t* base = buffer.data() + offset;
    uint32_t reg = ~0u;  // bitwise register over base[0, len)
    for (size_t len = 0; len <= 1024; ++len) {
      ASSERT_EQ(Crc32::Compute(std::span<const uint8_t>(base, len)), ~reg)
          << "offset " << offset << " length " << len;
      if (len < 1024) reg = BitwiseCrcStep(reg, base[len]);
    }
  }
}

TEST(Crc32KernelTest, FoldingBoundariesMatchBitwise) {
  const std::vector<uint8_t> buffer = RandomBytes(1 << 16, 77);
  std::vector<size_t> lengths;
  for (size_t block : {size_t{16}, size_t{64}, size_t{1024}, size_t{65536}}) {
    for (size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{5}}) {
      const size_t center = block * k;
      for (size_t d = 0; d <= 2; ++d) {
        lengths.push_back(center - d);
        lengths.push_back(center + d);
      }
    }
  }
  for (size_t len : lengths) {
    if (len > buffer.size()) continue;
    EXPECT_EQ(Crc32::Compute(std::span<const uint8_t>(buffer.data(), len)),
              BitwiseCrc(0, buffer.data(), len))
        << "length " << len;
  }
}

TEST(Crc32KernelTest, RandomExtendSplitsAndSeedsMatchBitwise) {
  const std::vector<uint8_t> buffer = RandomBytes(8192, 5);
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = static_cast<size_t>(rng.NextBounded(buffer.size() + 1));
    const size_t split = static_cast<size_t>(rng.NextBounded(len + 1));
    const uint32_t seed = static_cast<uint32_t>(rng.NextUint64());
    uint32_t crc = Crc32::Extend(
        seed, std::span<const uint8_t>(buffer.data(), split));
    crc = Crc32::Extend(
        crc, std::span<const uint8_t>(buffer.data() + split, len - split));
    ASSERT_EQ(crc, BitwiseCrc(seed, buffer.data(), len))
        << "length " << len << " split " << split << " seed " << seed;
  }
}

/// FIPS 180-4 SHA-256, written for clarity: schedule, rounds, padding.
class ReferenceSha256 {
 public:
  static Sha256Digest Hash(const uint8_t* data, size_t n) {
    std::vector<uint8_t> message(data, data + n);
    message.push_back(0x80);
    while (message.size() % 64 != 56) message.push_back(0);
    const uint64_t bits = static_cast<uint64_t>(n) * 8;
    for (int i = 7; i >= 0; --i) {
      message.push_back(static_cast<uint8_t>(bits >> (8 * i)));
    }
    uint32_t h[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                     0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
    for (size_t block = 0; block < message.size(); block += 64) {
      Compress(h, message.data() + block);
    }
    Sha256Digest digest;
    for (int i = 0; i < 32; ++i) {
      digest.bytes[i] = static_cast<uint8_t>(h[i / 4] >> (24 - 8 * (i % 4)));
    }
    return digest;
  }

 private:
  static uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

  static void Compress(uint32_t h[8], const uint8_t* block) {
    static constexpr uint32_t k[64] = {
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b,
        0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01,
        0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7,
        0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc,
        0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152,
        0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
        0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
        0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
        0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08,
        0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f,
        0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
        0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};
    uint32_t w[64];
    for (int t = 0; t < 16; ++t) {
      w[t] = (uint32_t{block[4 * t]} << 24) | (uint32_t{block[4 * t + 1]} << 16) |
             (uint32_t{block[4 * t + 2]} << 8) | uint32_t{block[4 * t + 3]};
    }
    for (int t = 16; t < 64; ++t) {
      const uint32_t s0 =
          Rotr(w[t - 15], 7) ^ Rotr(w[t - 15], 18) ^ (w[t - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[t - 2], 17) ^ Rotr(w[t - 2], 19) ^ (w[t - 2] >> 10);
      w[t] = s1 + w[t - 7] + s0 + w[t - 16];
    }
    uint32_t v[8];
    std::memcpy(v, h, sizeof(v));
    for (int t = 0; t < 64; ++t) {
      const uint32_t t1 = v[7] + (Rotr(v[4], 6) ^ Rotr(v[4], 11) ^ Rotr(v[4], 25)) +
                          ((v[4] & v[5]) ^ (~v[4] & v[6])) + k[t] + w[t];
      const uint32_t t2 = (Rotr(v[0], 2) ^ Rotr(v[0], 13) ^ Rotr(v[0], 22)) +
                          ((v[0] & v[1]) ^ (v[0] & v[2]) ^ (v[1] & v[2]));
      for (int i = 7; i > 0; --i) v[i] = v[i - 1];
      v[4] += t1;
      v[0] = t1 + t2;
    }
    for (int i = 0; i < 8; ++i) h[i] += v[i];
  }
};

TEST(Sha256KernelTest, EveryLengthMatchesReference) {
  const std::vector<uint8_t> buffer = RandomBytes(4096, 31);
  for (size_t len = 0; len <= buffer.size(); ++len) {
    ASSERT_EQ(Sha256::Hash(std::span<const uint8_t>(buffer.data(), len)),
              ReferenceSha256::Hash(buffer.data(), len))
        << "length " << len;
  }
}

TEST(Sha256KernelTest, PaddingEdgesMatchReferenceIncrementally) {
  const std::vector<uint8_t> buffer = RandomBytes(256, 41);
  for (size_t len : {55, 56, 63, 64, 65, 119, 120, 127, 128}) {
    // Feed in uneven pieces so buffered and direct block paths both run.
    Sha256 hasher;
    size_t offset = 0;
    for (size_t piece = 1; offset < len; piece = piece * 3 + 1) {
      const size_t n = std::min(piece, len - offset);
      hasher.Update(std::span<const uint8_t>(buffer.data() + offset, n));
      offset += n;
    }
    EXPECT_EQ(hasher.Finish(), ReferenceSha256::Hash(buffer.data(), len))
        << "length " << len;
  }
}

TEST(Sha256KernelTest, HashManyMatchesOneShotForEveryLaneRemainder) {
  const std::vector<uint8_t> buffer = RandomBytes(17 * 1100, 53);
  for (size_t length : {0, 1, 55, 56, 64, 119, 1000}) {
    for (size_t count = 0; count <= 17; ++count) {
      std::vector<const uint8_t*> streams;
      // Distinct, overlapping-free windows of the buffer per stream.
      for (size_t i = 0; i < count; ++i) {
        streams.push_back(buffer.data() + i * 1100 + (i % 7));
      }
      std::vector<Sha256Digest> digests(count);
      Sha256HashMany(streams.data(), length, count, digests.data());
      for (size_t i = 0; i < count; ++i) {
        ASSERT_EQ(digests[i],
                  Sha256::Hash(std::span<const uint8_t>(streams[i], length)))
            << "length " << length << " count " << count << " stream " << i;
      }
    }
  }
}

TEST(SimdPrimitiveTest, XorBytesMatchesPlainLoop) {
  const std::vector<uint8_t> src = RandomBytes(300, 61);
  const std::vector<uint8_t> original = RandomBytes(300, 62);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n + offset <= 280; n += (n < 70 ? 1 : 13)) {
      std::vector<uint8_t> dst = original;
      std::vector<uint8_t> expected = original;
      for (size_t i = 0; i < n; ++i) expected[offset + i] ^= src[i];
      simd::XorBytes(dst.data() + offset, src.data(), n);
      ASSERT_EQ(dst, expected) << "offset " << offset << " n " << n;
    }
  }
}

TEST(SimdPrimitiveTest, ReplicateRunMatchesByteLoopAtEveryOverlap) {
  const std::vector<uint8_t> seed = RandomBytes(64, 71);
  for (size_t offset = 1; offset <= 40; ++offset) {
    for (size_t n : {0, 1, 7, 8, 15, 16, 17, 31, 32, 33, 64, 100, 257}) {
      std::vector<uint8_t> got(64 + n + 8, 0xee);
      std::copy(seed.begin(), seed.end(), got.begin());
      std::vector<uint8_t> expected = got;
      for (size_t i = 0; i < n; ++i) expected[64 + i] = expected[64 + i - offset];
      simd::ReplicateRun(got.data() + 64, offset, n);
      ASSERT_EQ(got, expected) << "offset " << offset << " n " << n;
    }
  }
}

}  // namespace
}  // namespace mmm
