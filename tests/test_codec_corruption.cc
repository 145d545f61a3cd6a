// Corruption sweeps over every encoded blob format.
//
// Every binary format ends in a CRC32 footer, and every decoder is expected
// to reject damaged input with a Status — never crash, never read out of
// bounds, never return wrong bytes. This suite feeds each decoder:
//
//  - every truncation length (strided for large blobs, dense at the edges),
//  - bit flips across the blob (strided positions, two masks each),
//  - tiny and empty inputs, and deterministic random garbage.
//
// All mutations are deterministic, so a CRC near-collision would be a
// reproducible failure, not a flake. The suite runs under the sanitizer CI
// jobs, where an out-of-bounds read in a decoder fails loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/blob_formats.h"
#include "core/set_codec.h"
#include "serialize/compress.h"
#include "tests/test_util.h"

namespace mmm {
namespace {

using Decoder = std::function<Status(std::span<const uint8_t>)>;

ModelSet SmallSet(size_t count, uint64_t seed = 1) {
  return MakeInitializedSet(Ffnn48Spec(), count, seed).ValueOrDie();
}

/// Truncation lengths: every length for small blobs; for large ones, dense
/// coverage of both ends (where headers and CRC footers live) plus strided
/// interior samples.
std::vector<size_t> TruncationLengths(size_t size) {
  std::vector<size_t> lengths;
  if (size <= 512) {
    for (size_t n = 0; n < size; ++n) lengths.push_back(n);
    return lengths;
  }
  for (size_t n = 0; n < 64; ++n) lengths.push_back(n);
  for (size_t n = size - 64; n < size; ++n) lengths.push_back(n);
  const size_t stride = size / 128;
  for (size_t n = 64; n < size - 64; n += stride) lengths.push_back(n);
  return lengths;
}

/// Byte positions for bit flips: all of them for small blobs, strided
/// otherwise (always including first and last bytes).
std::vector<size_t> FlipPositions(size_t size) {
  std::vector<size_t> positions;
  const size_t stride = size <= 512 ? 1 : size / 256;
  for (size_t p = 0; p < size; p += stride) positions.push_back(p);
  if (positions.back() != size - 1) positions.push_back(size - 1);
  return positions;
}

/// Runs the full mutation sweep. With `expect_error`, every mutation must
/// yield a non-OK status; without it (self-describing text formats where a
/// flipped character can still parse), surviving the call is the contract.
void SweepCorruptions(const std::vector<uint8_t>& blob, const Decoder& decode,
                      const std::string& label, bool expect_error = true) {
  ASSERT_FALSE(blob.empty()) << label;
  Status pristine = decode(blob);
  ASSERT_TRUE(pristine.ok())
      << label << ": pristine blob must decode: " << pristine.ToString();

  for (size_t n : TruncationLengths(blob.size())) {
    std::vector<uint8_t> truncated(blob.begin(), blob.begin() + n);
    Status status = decode(truncated);
    if (expect_error) {
      EXPECT_FALSE(status.ok())
          << label << ": decoder accepted truncation to " << n << " bytes";
    }
  }

  for (size_t pos : FlipPositions(blob.size())) {
    for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::vector<uint8_t> flipped = blob;
      flipped[pos] ^= mask;
      Status status = decode(flipped);
      if (expect_error) {
        EXPECT_FALSE(status.ok())
            << label << ": decoder accepted bit flip 0x" << std::hex
            << unsigned{mask} << " at byte " << std::dec << pos;
      }
    }
  }
}

/// Empty input, sub-header scraps, and deterministic garbage must all be
/// rejected without crashing.
void SweepGarbage(const Decoder& decode, const std::string& label) {
  EXPECT_FALSE(decode({}).ok()) << label << ": accepted empty input";
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t size : {1, 2, 3, 4, 7, 8, 9, 16, 64, 4096}) {
    std::vector<uint8_t> garbage(size);
    for (uint8_t& b : garbage) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<uint8_t>(state >> 56);
    }
    EXPECT_FALSE(decode(garbage).ok())
        << label << ": accepted " << size << " bytes of garbage";
  }
}

TEST(CodecCorruptionTest, StateDictBlob) {
  std::vector<uint8_t> blob = EncodeStateDict(SmallSet(1).models[0]);
  Decoder decode = [](std::span<const uint8_t> b) {
    return DecodeStateDict(b).status();
  };
  SweepCorruptions(blob, decode, "state dict");
  SweepGarbage(decode, "state dict");
}

TEST(CodecCorruptionTest, ParamBlob) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> blob = EncodeParamBlob(set);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return DecodeParamBlob(set.spec, b).status();
  };
  SweepCorruptions(blob, decode, "param blob");
  SweepGarbage(decode, "param blob");
}

TEST(CodecCorruptionTest, HashTableBlob) {
  ModelSet set = SmallSet(3);
  std::vector<uint8_t> blob = EncodeHashTable(ComputeHashTable(set));
  Decoder decode = [](std::span<const uint8_t> b) {
    return DecodeHashTable(b).status();
  };
  SweepCorruptions(blob, decode, "hash table");
  SweepGarbage(decode, "hash table");
}

TEST(CodecCorruptionTest, DiffBlobAbsolute) {
  ModelSet set = SmallSet(2);
  std::vector<DiffEntry> entries = {{0, 0}, {1, 1}};
  std::vector<uint8_t> blob = EncodeDiffBlob(set, entries);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return DecodeDiffBlob(set.spec, b).status();
  };
  SweepCorruptions(blob, decode, "diff blob (absolute)");
  SweepGarbage(decode, "diff blob (absolute)");
}

TEST(CodecCorruptionTest, DiffBlobXor) {
  ModelSet set = SmallSet(2, /*seed=*/1);
  ModelSet base = SmallSet(2, /*seed=*/2);
  std::vector<DiffEntry> entries = {{0, 0}, {1, 1}};
  std::vector<uint8_t> blob =
      EncodeDiffBlob(set, entries, DiffEncoding::kXorBase, &base);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    return DecodeDiffBlob(set.spec, b).status();
  };
  SweepCorruptions(blob, decode, "diff blob (xor)");
}

/// The real read path for compressed artifacts: auto-detecting decompress,
/// then the payload decoder. A flip in the compressed stream either breaks
/// decompression or yields wrong bytes that the payload CRC then rejects —
/// either way the composition must error out, not crash (a corrupted
/// raw-size header in particular must not drive a giant allocation).
TEST(CodecCorruptionTest, CompressedParamBlob) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> raw = EncodeParamBlob(set);
  Decoder decode = [&set](std::span<const uint8_t> b) {
    auto decompressed = DecompressBlob(b);
    if (!decompressed.ok()) return decompressed.status();
    return DecodeParamBlob(set.spec, decompressed.ValueOrDie()).status();
  };
  for (Compression method : {Compression::kLz, Compression::kShuffleLz}) {
    std::string label = "compressed param blob (" +
                        std::string(CompressionName(method)) + ")";
    SweepCorruptions(CompressBlob(method, raw), decode, label);
  }
  SweepGarbage(decode, "compressed param blob");
}

/// Feeds `blob` to the incremental BlobDecompressor in `chunk`-sized
/// pieces, mirroring how stream windows arrive. `windowed` finishes through
/// the sink overload, as the streaming param decode does.
Status IncrementalDecompress(std::span<const uint8_t> blob, size_t chunk,
                             bool windowed, std::vector<uint8_t>* out) {
  BlobDecompressor decompressor;
  for (size_t i = 0; i < blob.size(); i += chunk) {
    size_t take = std::min(chunk, blob.size() - i);
    Status status = decompressor.Feed(blob.subspan(i, take), out);
    if (!status.ok()) return status;
  }
  if (!windowed) return decompressor.Finish(out);
  return decompressor.Finish([out](std::span<const uint8_t> window) {
    if (window.empty() || window.size() > 64 * 1024) {
      return Status::Internal("finish window of ", window.size(), " bytes");
    }
    out->insert(out->end(), window.begin(), window.end());
    return Status::OK();
  });
}

/// The incremental decompressor must agree with the materializing one on
/// every input — same accept/reject verdict (messages may differ) and,
/// when both accept, bit-identical output — at any chunking. In particular
/// a corrupted match offset reaching before the retained window must be
/// rejected, and a truncated stream must fail at Finish instead of
/// returning short output.
void CheckIncrementalAgreement(const std::vector<uint8_t>& blob,
                               const std::string& label) {
  Result<std::vector<uint8_t>> materialized = DecompressBlob(blob);
  // The sink overload of Finish differs only after the last Feed, so one
  // chunking of it is enough.
  const std::pair<size_t, bool> runs[] = {
      {1, false}, {7, false}, {64 * 1024 + 1, false}, {7, true}};
  for (const auto& [chunk, windowed] : runs) {
    std::vector<uint8_t> incremental;
    Status status = IncrementalDecompress(blob, chunk, windowed, &incremental);
    ASSERT_EQ(status.ok(), materialized.ok())
        << label << " chunk " << chunk << " windowed " << windowed
        << ": incremental says '" << status.ToString()
        << "', materializing says '" << materialized.status().ToString()
        << "'";
    if (materialized.ok()) {
      ASSERT_EQ(incremental, materialized.ValueOrDie())
          << label << " chunk " << chunk << " windowed " << windowed
          << ": outputs diverge";
    }
  }
}

/// Fuzz-style sweep for the incremental decoder (DESIGN.md §12): every
/// truncation and bit flip of a compressed param blob, decoded in three
/// chunkings, must match the materializing decoder's verdict and bytes.
TEST(CodecCorruptionTest, IncrementalDecompressorAgreesUnderCorruption) {
  ModelSet set = SmallSet(2);
  std::vector<uint8_t> raw = EncodeParamBlob(set);
  for (Compression method :
       {Compression::kNone, Compression::kLz, Compression::kShuffleLz}) {
    std::vector<uint8_t> blob = CompressBlob(method, raw);
    std::string label = "incremental (" +
                        std::string(CompressionName(method)) + ")";
    CheckIncrementalAgreement(blob, label);
    for (size_t n : TruncationLengths(blob.size())) {
      CheckIncrementalAgreement(
          std::vector<uint8_t>(blob.begin(), blob.begin() + n),
          label + " truncated to " + std::to_string(n));
    }
    for (size_t pos : FlipPositions(blob.size())) {
      for (uint8_t mask : {uint8_t{0x01}, uint8_t{0x80}}) {
        std::vector<uint8_t> flipped = blob;
        flipped[pos] ^= mask;
        CheckIncrementalAgreement(flipped, label + " flipped at " +
                                               std::to_string(pos));
      }
    }
  }
  // Deterministic garbage, including inputs that masquerade as headers.
  uint64_t state = 0x243f6a8885a308d3ull;
  for (size_t size : {1, 2, 3, 4, 5, 8, 16, 64, 4096}) {
    std::vector<uint8_t> garbage(size);
    for (uint8_t& b : garbage) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      b = static_cast<uint8_t>(state >> 56);
    }
    CheckIncrementalAgreement(garbage,
                              "garbage of " + std::to_string(size));
  }
}

/// A match offset pointing before the start of the output (offset > bytes
/// produced so far) must be rejected by the incremental decoder exactly
/// like the materializing one — the retained-window check is equivalent to
/// the materializing `offset > produced` check by construction.
TEST(CodecCorruptionTest, IncrementalLzRejectsOffsetBeforeWindow) {
  // Hand-built MMZ1+lz stream: token = 1 literal + a match, but the match
  // offset (2) reaches before the single produced byte.
  std::vector<uint8_t> raw = {'A', 'A', 'A', 'A', 'A', 'A'};
  std::vector<uint8_t> blob = CompressBlob(Compression::kLz, raw);
  // Locate the first token byte: magic(4) + method(1) + varint raw_size(1).
  ASSERT_GT(blob.size(), 8u);
  const size_t token_at = 6;
  std::vector<uint8_t> bad = blob;
  // Rewrite the offset bytes right after the token+literal to 0x0002.
  // Original stream: token(1 lit, match) 'A' off_lo off_hi ...
  bad[token_at + 2] = 0x02;
  bad[token_at + 3] = 0x00;
  CheckIncrementalAgreement(bad, "lz offset before window");
  std::vector<uint8_t> out;
  Status status = IncrementalDecompress(bad, 1, /*windowed=*/false, &out);
  EXPECT_FALSE(status.ok());
  // Offset 0 is never valid either.
  std::vector<uint8_t> zero = blob;
  zero[token_at + 2] = 0x00;
  zero[token_at + 3] = 0x00;
  CheckIncrementalAgreement(zero, "lz offset zero");
}

/// The architecture blob is JSON text: a flipped character inside a string
/// can still parse, so only the no-crash contract applies.
TEST(CodecCorruptionTest, ArchBlobNeverCrashes) {
  std::string text = EncodeArchBlob(Ffnn48Spec());
  std::vector<uint8_t> blob(text.begin(), text.end());
  Decoder decode = [](std::span<const uint8_t> b) {
    auto parsed = DecodeArchBlob(std::string(b.begin(), b.end()));
    (void)parsed;
    return Status::OK();
  };
  SweepCorruptions(blob, decode, "arch blob", /*expect_error=*/false);
}

}  // namespace
}  // namespace mmm
