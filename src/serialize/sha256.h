#ifndef MMM_SERIALIZE_SHA256_H_
#define MMM_SERIALIZE_SHA256_H_

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace mmm {

/// \brief A 256-bit digest.
struct Sha256Digest {
  std::array<uint8_t, 32> bytes{};

  /// Lowercase hex representation (64 characters).
  std::string ToHex() const;

  bool operator==(const Sha256Digest& other) const { return bytes == other.bytes; }
  bool operator!=(const Sha256Digest& other) const { return !(*this == other); }
};

/// \brief Incremental SHA-256 (FIPS 180-4).
///
/// The Update approach hashes every layer's parameter bytes to detect which
/// layers changed between model-set versions without loading the previous
/// set's parameters.
class Sha256 {
 public:
  Sha256();

  /// Absorbs more input.
  void Update(std::span<const uint8_t> data);
  void Update(std::string_view data);

  /// Finalizes and returns the digest. The hasher must not be reused after.
  Sha256Digest Finish();

  /// One-shot helpers.
  static Sha256Digest Hash(std::span<const uint8_t> data);
  static Sha256Digest Hash(std::string_view data);

 private:
  /// Runs the compression function over `count` consecutive 64-byte
  /// blocks: SHA-NI when ActiveSimdFeatures() has it, portable otherwise.
  void ProcessBlocks(const uint8_t* blocks, size_t count);

  uint32_t state_[8];
  uint64_t total_bytes_ = 0;
  uint8_t buffer_[64];
  size_t buffer_size_ = 0;
};

/// \brief Hashes `count` equal-length byte streams at once:
/// `digests[i] == Sha256::Hash({streams[i], length})` for every `i`,
/// bit-exactly.
///
/// SHA-256 has no intra-message parallelism, but a model set hashes one
/// same-shaped layer per model (core/blob_formats.cc), so independent
/// streams of identical length are the natural unit: they run in lockstep
/// SIMD lanes (8-way AVX2 / 4-way SSE2, dispatched via ActiveSimdLevel)
/// with a scalar loop for the remainder and for non-x86 builds. On CPUs
/// with SHA-NI (ActiveSimdFeatures().sha) each stream is hashed on its own
/// instead, which is faster than the 8 lanes. Integer rounds only, so every
/// path produces identical digests.
void Sha256HashMany(const uint8_t* const* streams, size_t length,
                    size_t count, Sha256Digest* digests);

}  // namespace mmm

#endif  // MMM_SERIALIZE_SHA256_H_
