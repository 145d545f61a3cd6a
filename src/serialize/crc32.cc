#include "serialize/crc32.h"

#include <array>

#include "common/simd.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mmm {
namespace {

// The IEEE 802.3 polynomial x^32 + x^26 + ... + 1, bit-reflected (the
// x^32 term implied), as CRC-32 processes each byte LSB first.
constexpr uint32_t kReflectedPoly = 0xedb88320u;

// ----- Portable kernel: slicing-by-8 -----
//
// kSlices[0] is the classic byte table (the CRC of each single byte);
// kSlices[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups advance the register over eight input bytes at once.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr SliceTables BuildSliceTables() {
  SliceTables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kReflectedPoly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = tables[0][prev & 0xff] ^ (prev >> 8);
    }
  }
  return tables;
}

constexpr SliceTables kSlices = BuildSliceTables();

uint32_t LoadLittleEndian32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

/// Advances the raw (pre-inverted) register over `n` bytes.
uint32_t ExtendSliced(uint32_t crc, const uint8_t* p, size_t n) {
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLittleEndian32(p) ^ crc;
    const uint32_t hi = LoadLittleEndian32(p + 4);
    crc = kSlices[7][lo & 0xff] ^ kSlices[6][(lo >> 8) & 0xff] ^
          kSlices[5][(lo >> 16) & 0xff] ^ kSlices[4][lo >> 24] ^
          kSlices[3][hi & 0xff] ^ kSlices[2][(hi >> 8) & 0xff] ^
          kSlices[1][(hi >> 16) & 0xff] ^ kSlices[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kSlices[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)

// ----- Hardware kernel: PCLMULQDQ folding -----
//
// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
// PCLMULQDQ Instruction" (Intel, 2009). Four 128-bit accumulators fold
// 64 input bytes per step: each accumulator's two 64-bit halves are
// carry-less multiplied by x^(512+32) and x^(512-32) mod P and XORed into
// the next 64 bytes, which preserves the remainder mod P. The accumulators
// are then folded into one (constants for 128 bits), then to 64 bits, and
// Barrett-reduced to the 32-bit CRC.
//
// In the bit-reflected domain a constant for distance n is
// reflect32(x^n mod P) << 1: reflection puts the highest power in bit 0,
// and the extra shift absorbs the one-bit offset of a reflected 64x64
// carry-less product.

/// x^n mod P in normal (unreflected) form: a 32-bit LFSR step per power.
constexpr uint32_t XPowModP(unsigned n) {
  uint32_t r = 1;  // x^0
  for (unsigned i = 0; i < n; ++i) {
    r = (r & 0x80000000u) ? (r << 1) ^ 0x04c11db7u : r << 1;
  }
  return r;
}

constexpr uint64_t Reflect(uint64_t v, int bits) {
  uint64_t r = 0;
  for (int i = 0; i < bits; ++i) {
    if (v & (uint64_t{1} << i)) r |= uint64_t{1} << (bits - 1 - i);
  }
  return r;
}

constexpr uint64_t FoldConstant(unsigned n) {
  return Reflect(XPowModP(n), 32) << 1;
}

/// floor(x^64 / P) as a 33-bit polynomial, by long division.
constexpr uint64_t BarrettQuotient() {
  constexpr uint64_t kPoly = 0x104c11db7u;  // P with its x^32 term
  uint64_t rem = 0;  // remainder of the dividend processed so far
  uint64_t quotient = 0;
  for (int bit = 64; bit >= 0; --bit) {
    rem = (rem << 1) | (bit == 64 ? 1 : 0);  // dividend is x^64
    quotient <<= 1;
    if (rem & (uint64_t{1} << 32)) {
      rem ^= kPoly;
      quotient |= 1;
    }
  }
  return quotient;
}

struct FoldConstants {
  uint64_t k1 = FoldConstant(4 * 128 + 32);  // fold 512 bits, low half
  uint64_t k2 = FoldConstant(4 * 128 - 32);  // fold 512 bits, high half
  uint64_t k3 = FoldConstant(128 + 32);      // fold 128 bits, low half
  uint64_t k4 = FoldConstant(128 - 32);      // fold 128 bits, high half
  uint64_t k5 = FoldConstant(64);            // fold 64 bits to 32
  uint64_t poly = Reflect(0x104c11db7u, 33);      // P', for Barrett
  uint64_t mu = Reflect(BarrettQuotient(), 33);  // floor(x^64/P)'
};

constexpr FoldConstants kFold{};

// Derived values agree with the table published by Gopal et al.
static_assert(kFold.k1 == 0x154442bd4 && kFold.k2 == 0x1c6e41596);
static_assert(kFold.k3 == 0x1751997d0 && kFold.k4 == 0x0ccaa009e);
static_assert(kFold.k5 == 0x163cd6124);
static_assert(kFold.poly == 0x1db710641 && kFold.mu == 0x1f7011641);

__attribute__((target("pclmul,sse4.1"))) inline __m128i Fold(__m128i acc,
                                                             __m128i k,
                                                             __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Advances the raw register over the largest multiple of 16 bytes in
/// [p, p + n); requires n >= 64. Returns the number of bytes consumed.
__attribute__((target("pclmul,sse4.1"))) size_t ExtendFolded(uint32_t* crc,
                                                             const uint8_t* p,
                                                             size_t n) {
  const auto load = [](const uint8_t* at) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
  };
  const uint8_t* const begin = p;
  __m128i x1 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(*crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;

  const __m128i k1k2 = _mm_set_epi64x(static_cast<int64_t>(kFold.k2),
                                      static_cast<int64_t>(kFold.k1));
  for (; n >= 64; p += 64, n -= 64) {
    x1 = Fold(x1, k1k2, load(p));
    x2 = Fold(x2, k1k2, load(p + 16));
    x3 = Fold(x3, k1k2, load(p + 32));
    x4 = Fold(x4, k1k2, load(p + 48));
  }

  const __m128i k3k4 = _mm_set_epi64x(static_cast<int64_t>(kFold.k4),
                                      static_cast<int64_t>(kFold.k3));
  x1 = Fold(x1, k3k4, x2);
  x1 = Fold(x1, k3k4, x3);
  x1 = Fold(x1, k3k4, x4);
  for (; n >= 16; p += 16, n -= 16) x1 = Fold(x1, k3k4, load(p));

  // 128 -> 64 bits: the low half times x^(128-32), XORed into the high.
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(x1, k3k4, 0x10),
                     _mm_srli_si128(x1, 8));
  // 64 -> 32 bits (+32 pending): the low word times x^64.
  const __m128i k5 = _mm_set_epi64x(0, static_cast<int64_t>(kFold.k5));
  x1 = _mm_xor_si128(
      _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00),
      _mm_srli_si128(x1, 4));
  // Barrett reduction: q = (low32 * mu) mod x^32; crc = high32 of x ^ q*P.
  const __m128i poly_mu = _mm_set_epi64x(static_cast<int64_t>(kFold.mu),
                                         static_cast<int64_t>(kFold.poly));
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly_mu, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), poly_mu, 0x00);
  *crc = static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, q), 1));
  return static_cast<size_t>(p - begin);
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32::Extend(uint32_t crc, std::span<const uint8_t> data) {
  crc = ~crc;
  const uint8_t* p = data.data();
  size_t n = data.size();
#if defined(__x86_64__)
  // Below 64 bytes the fold's fixed reduction costs more than it saves.
  if (n >= 64) {
    const SimdFeatures features = ActiveSimdFeatures();
    if (features.pclmul && features.sse41) {
      const size_t done = ExtendFolded(&crc, p, n);
      p += done;
      n -= done;
    }
  }
#endif
  return ~ExtendSliced(crc, p, n);
}

uint32_t Crc32::Compute(std::span<const uint8_t> data) { return Extend(0, data); }

uint32_t Crc32::Compute(std::string_view data) {
  return Compute(std::span<const uint8_t>(
      reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

}  // namespace mmm
