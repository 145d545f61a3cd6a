#include "serialize/compress.h"

#include <algorithm>
#include <cstring>
#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/blob_formats.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

std::vector<uint8_t> Bytes(std::string_view s) {
  return {s.begin(), s.end()};
}

TEST(CompressionNameTest, RoundTrips) {
  for (Compression method :
       {Compression::kNone, Compression::kLz, Compression::kShuffleLz}) {
    ASSERT_OK_AND_ASSIGN(Compression parsed,
                         CompressionFromName(CompressionName(method)));
    EXPECT_EQ(parsed, method);
  }
  EXPECT_TRUE(CompressionFromName("zstd").status().IsInvalidArgument());
}

TEST(LzTest, EmptyInput) {
  std::vector<uint8_t> compressed = LzCompress({});
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out, LzDecompress(compressed, 0));
  EXPECT_TRUE(out.empty());
}

TEST(LzTest, ShortLiteralOnlyInput) {
  std::vector<uint8_t> input = Bytes("abc");
  std::vector<uint8_t> compressed = LzCompress(input);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out,
                       LzDecompress(compressed, input.size()));
  EXPECT_EQ(out, input);
}

TEST(LzTest, RepetitiveInputCompressesHard) {
  std::vector<uint8_t> input(100000, 'x');
  std::vector<uint8_t> compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), input.size() / 50);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out,
                       LzDecompress(compressed, input.size()));
  EXPECT_EQ(out, input);
}

TEST(LzTest, OverlappingMatchRunLength) {
  // "ababab..." exercises matches whose offset < length.
  std::vector<uint8_t> input;
  for (int i = 0; i < 5000; ++i) input.push_back(i % 2 ? 'a' : 'b');
  std::vector<uint8_t> compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), 200u);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out,
                       LzDecompress(compressed, input.size()));
  EXPECT_EQ(out, input);
}

TEST(LzTest, IncompressibleInputRoundTripsWithBoundedExpansion) {
  Rng rng(1);
  std::vector<uint8_t> input(65536);
  for (auto& b : input) b = static_cast<uint8_t>(rng.NextBounded(256));
  std::vector<uint8_t> compressed = LzCompress(input);
  EXPECT_LT(compressed.size(), input.size() + input.size() / 128 + 64);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out,
                       LzDecompress(compressed, input.size()));
  EXPECT_EQ(out, input);
}

TEST(LzTest, LongLiteralAndMatchExtensions) {
  // > 255+15 literals followed by a > 255+19 match.
  Rng rng(2);
  std::vector<uint8_t> input(400);
  for (auto& b : input) b = static_cast<uint8_t>(rng.NextBounded(256));
  std::vector<uint8_t> repeated(input.begin(), input.begin() + 350);
  input.insert(input.end(), repeated.begin(), repeated.end());
  std::vector<uint8_t> compressed = LzCompress(input);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out,
                       LzDecompress(compressed, input.size()));
  EXPECT_EQ(out, input);
}

TEST(LzTest, TruncatedStreamIsCorruption) {
  std::vector<uint8_t> input(1000, 'q');
  std::vector<uint8_t> compressed = LzCompress(input);
  compressed.resize(compressed.size() / 2);
  EXPECT_TRUE(LzDecompress(compressed, input.size()).status().IsCorruption());
}

TEST(LzTest, WrongRawSizeIsCorruption) {
  std::vector<uint8_t> input = Bytes("hello world hello world hello world");
  std::vector<uint8_t> compressed = LzCompress(input);
  EXPECT_TRUE(LzDecompress(compressed, input.size() + 5).status().IsCorruption());
}

TEST(ShuffleTest, RoundTripsAllStrides) {
  Rng rng(3);
  for (size_t stride : {1u, 2u, 4u, 8u}) {
    for (size_t size : {0u, 1u, 3u, 4u, 17u, 1024u, 1027u}) {
      std::vector<uint8_t> input(size);
      for (auto& b : input) b = static_cast<uint8_t>(rng.NextBounded(256));
      EXPECT_EQ(UnshuffleBytes(ShuffleBytes(input, stride), stride), input)
          << "stride " << stride << " size " << size;
    }
  }
}

TEST(ShuffleTest, UnshuffleRangeMatchesWholeUnshuffle) {
  Rng rng(5);
  for (size_t stride : {1u, 2u, 3u, 4u, 8u}) {
    for (size_t size : {0u, 1u, 5u, 16u, 1027u}) {
      std::vector<uint8_t> input(size);
      for (auto& b : input) b = static_cast<uint8_t>(rng.NextBounded(256));
      const std::vector<uint8_t> whole = UnshuffleBytes(input, stride);
      for (size_t begin = 0; begin <= size; begin += (size < 20 ? 1 : 37)) {
        for (size_t count : {size_t{0}, size_t{1}, size_t{3}, size_t{4},
                             size_t{9}, size - begin}) {
          if (count > size - begin) continue;
          std::vector<uint8_t> part(count);
          UnshuffleRange(input, stride, begin, count, part.data());
          EXPECT_TRUE(std::equal(part.begin(), part.end(),
                                 whole.begin() + begin))
              << "stride " << stride << " size " << size << " begin "
              << begin << " count " << count;
        }
      }
    }
  }
}

TEST(ShuffleTest, GroupsBytePlanes) {
  std::vector<uint8_t> input{1, 2, 3, 4, 5, 6, 7, 8};
  EXPECT_EQ(ShuffleBytes(input, 4),
            (std::vector<uint8_t>{1, 5, 2, 6, 3, 7, 4, 8}));
}

class CompressBlobSweep : public ::testing::TestWithParam<Compression> {};

TEST_P(CompressBlobSweep, FramedRoundTrip) {
  Rng rng(4);
  std::vector<uint8_t> input(20000);
  // Float-like data: slowly varying values so shuffle helps.
  float value = 1.0f;
  for (size_t i = 0; i + 4 <= input.size(); i += 4) {
    value += 0.001f;
    std::memcpy(&input[i], &value, 4);
  }
  std::vector<uint8_t> blob = CompressBlob(GetParam(), input);
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out, DecompressBlob(blob));
  EXPECT_EQ(out, input);
}

INSTANTIATE_TEST_SUITE_P(Methods, CompressBlobSweep,
                         ::testing::Values(Compression::kNone, Compression::kLz,
                                           Compression::kShuffleLz));

TEST(CompressBlobTest, RawLegacyBlobPassesThrough) {
  std::vector<uint8_t> raw = Bytes("not framed at all");
  ASSERT_OK_AND_ASSIGN(std::vector<uint8_t> out, DecompressBlob(raw));
  EXPECT_EQ(out, raw);
}

TEST(CompressBlobTest, ShuffleLzBeatsPlainLzOnModelParameters) {
  // Real model parameters: neighboring floats share exponent bytes, which
  // only the shuffled layout exposes as runs.
  ModelSet set = MakeInitializedSet(Ffnn48Spec(), 50, 5).ValueOrDie();
  std::vector<uint8_t> params = EncodeParamBlob(set);
  size_t lz = CompressBlob(Compression::kLz, params).size();
  size_t shuffle_lz = CompressBlob(Compression::kShuffleLz, params).size();
  EXPECT_LT(shuffle_lz, lz);
  EXPECT_LT(shuffle_lz, params.size());
}

TEST(CompressBlobTest, ImplausibleShuffleRawSizeFailsWithoutAllocating) {
  // A shuffle-LZ header claiming 2^40 raw bytes over a few payload bytes:
  // the plane buffer is sized by what the fed bytes could expand to, so
  // the stream fails as truncated instead of reserving a terabyte.
  std::vector<uint8_t> blob = CompressBlob(Compression::kShuffleLz,
                                           Bytes("abcdabcdabcdabcd"));
  std::vector<uint8_t> forged = {'M', 'M', 'Z', '1',
                                 static_cast<uint8_t>(Compression::kShuffleLz),
                                 0x80, 0x80, 0x80, 0x80, 0x80, 0x20};
  forged.insert(forged.end(), blob.begin() + 6, blob.end());
  BlobDecompressor decompressor;
  std::vector<uint8_t> out;
  Status status = decompressor.Feed(forged, &out);
  if (status.ok()) status = decompressor.Finish(&out);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
}

TEST(CompressBlobTest, UnknownMethodByteIsCorruption) {
  std::vector<uint8_t> blob = CompressBlob(Compression::kLz, Bytes("data"));
  blob[4] = 99;  // method byte
  EXPECT_TRUE(DecompressBlob(blob).status().IsCorruption());
}

// Property: random data with mixed redundancy always round-trips.
class LzFuzzSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LzFuzzSweep, RandomStructuredDataRoundTrips) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    std::vector<uint8_t> input;
    size_t segments = 1 + rng.NextBounded(8);
    for (size_t s = 0; s < segments; ++s) {
      size_t len = rng.NextBounded(3000);
      if (rng.NextBounded(2) == 0) {
        // Repetitive segment.
        uint8_t symbol = static_cast<uint8_t>(rng.NextBounded(4));
        input.insert(input.end(), len, symbol);
      } else {
        for (size_t i = 0; i < len; ++i) {
          input.push_back(static_cast<uint8_t>(rng.NextBounded(256)));
        }
      }
    }
    std::vector<uint8_t> compressed = LzCompress(input);
    auto out = LzDecompress(compressed, input.size());
    ASSERT_OK(out.status());
    ASSERT_EQ(out.ValueOrDie(), input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzFuzzSweep,
                         ::testing::Values(11ULL, 22ULL, 33ULL, 44ULL));

// Decoder robustness: random corruption must produce Status, never crash.
class LzCorruptionSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LzCorruptionSweep, CorruptedStreamsNeverCrash) {
  Rng rng(GetParam());
  std::vector<uint8_t> input(5000);
  for (size_t i = 0; i < input.size(); ++i) {
    input[i] = static_cast<uint8_t>((i / 64) & 0xff);
  }
  std::vector<uint8_t> compressed = LzCompress(input);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> mutated = compressed;
    size_t flips = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < flips; ++f) {
      mutated[rng.NextBounded(mutated.size())] ^=
          static_cast<uint8_t>(1 + rng.NextBounded(255));
    }
    // Either decodes to *something* of the right size or errors cleanly.
    auto result = LzDecompress(mutated, input.size());
    if (result.ok()) {
      EXPECT_EQ(result.ValueOrDie().size(), input.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzCorruptionSweep,
                         ::testing::Values(7ULL, 8ULL, 9ULL));

}  // namespace
}  // namespace mmm
