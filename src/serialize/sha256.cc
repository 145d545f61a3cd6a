#include "serialize/sha256.h"

#include <cstring>

#include "common/simd.h"
#include "common/strings.h"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace mmm {
namespace {

constexpr uint32_t kRoundConstants[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

uint32_t Rotr(uint32_t x, int n) {
  // Masking keeps the complementary shift out of UB territory (x << 32 is
  // undefined for n == 0) even if a future caller passes 0 or 32.
  return (x >> (n & 31)) | (x << ((32 - n) & 31));
}

uint32_t LoadBigEndian32(const uint8_t* p) {
  return (static_cast<uint32_t>(p[0]) << 24) |
         (static_cast<uint32_t>(p[1]) << 16) |
         (static_cast<uint32_t>(p[2]) << 8) | static_cast<uint32_t>(p[3]);
}

/// One block of the FIPS 180-4 compression function, one round at a time.
void ProcessBlockPortable(uint32_t state[8], const uint8_t* block) {
  uint32_t w[64];
  for (int i = 0; i < 16; ++i) {
    w[i] = LoadBigEndian32(block + i * 4);
  }
  for (int i = 16; i < 64; ++i) {
    uint32_t s0 = Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    uint32_t s1 = Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
    uint32_t ch = (e & f) ^ (~e & g);
    uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
    uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)

/// The same compression function on SHA-NI: SHA256RNDS2 runs two rounds,
/// SHA256MSG1/MSG2 extend the message schedule four words at a time. The
/// state lives in two registers as {A,B,E,F} and {C,D,G,H}, the layout the
/// round instruction expects, for the whole run of blocks.
__attribute__((target("sha,sse4.1"))) void ProcessBlocksShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t count) {
  // Byte-swaps each 32-bit word: message words are big-endian.
  const __m128i bswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  __m128i dcba = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i hgfe = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  const __m128i cdab = _mm_shuffle_epi32(dcba, 0xb1);
  const __m128i efgh = _mm_shuffle_epi32(hgfe, 0x1b);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

  for (; count > 0; --count, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g & 3] holds schedule words 4g..4g+3 for round group g.
    __m128i w[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g < 4) {
        w[g] = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)),
            bswap);
      } else {
        // W[t] = s1(W[t-2]) + W[t-7] + s0(W[t-15]) + W[t-16], t = 4g..4g+3.
        const __m128i older = w[(g + 2) & 3];  // words 4g-8 .. 4g-5
        const __m128i last = w[(g + 3) & 3];   // words 4g-4 .. 4g-1
        __m128i next = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        next = _mm_add_epi32(next, _mm_alignr_epi8(last, older, 4));
        w[g & 3] = _mm_sha256msg2_epu32(next, last);
      }
      const __m128i wk = _mm_add_epi32(
          w[g & 3],
          _mm_loadu_si128(
              reinterpret_cast<const __m128i*>(kRoundConstants + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1b);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xb1);
  dcba = _mm_blend_epi16(feba, dchg, 0xf0);
  hgfe = _mm_alignr_epi8(dchg, feba, 8);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), dcba);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), hgfe);
}

#endif  // defined(__x86_64__)

}  // namespace

std::string Sha256Digest::ToHex() const { return HexEncode(bytes); }

Sha256::Sha256() {
  state_[0] = 0x6a09e667;
  state_[1] = 0xbb67ae85;
  state_[2] = 0x3c6ef372;
  state_[3] = 0xa54ff53a;
  state_[4] = 0x510e527f;
  state_[5] = 0x9b05688c;
  state_[6] = 0x1f83d9ab;
  state_[7] = 0x5be0cd19;
}

void Sha256::ProcessBlocks(const uint8_t* blocks, size_t count) {
#if defined(__x86_64__)
  const SimdFeatures features = ActiveSimdFeatures();
  if (features.sha && features.sse41) {
    ProcessBlocksShaNi(state_, blocks, count);
    return;
  }
#endif
  for (; count > 0; --count, blocks += 64) {
    ProcessBlockPortable(state_, blocks);
  }
}

void Sha256::Update(std::span<const uint8_t> data) {
  total_bytes_ += data.size();
  size_t offset = 0;
  if (buffer_size_ > 0) {
    size_t take = std::min(data.size(), sizeof(buffer_) - buffer_size_);
    std::memcpy(buffer_ + buffer_size_, data.data(), take);
    buffer_size_ += take;
    offset += take;
    if (buffer_size_ == sizeof(buffer_)) {
      ProcessBlocks(buffer_, 1);
      buffer_size_ = 0;
    }
  }
  const size_t full_blocks = (data.size() - offset) / 64;
  ProcessBlocks(data.data() + offset, full_blocks);
  offset += full_blocks * 64;
  if (offset < data.size()) {
    std::memcpy(buffer_, data.data() + offset, data.size() - offset);
    buffer_size_ = data.size() - offset;
  }
}

void Sha256::Update(std::string_view data) {
  Update(std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(data.data()),
                                  data.size()));
}

Sha256Digest Sha256::Finish() {
  const uint64_t bit_length = total_bytes_ * 8;
  // buffer_size_ < 64 here: Update processes every full block.
  buffer_[buffer_size_++] = 0x80;
  if (buffer_size_ > 56) {
    std::memset(buffer_ + buffer_size_, 0, sizeof(buffer_) - buffer_size_);
    ProcessBlocks(buffer_, 1);
    buffer_size_ = 0;
  }
  std::memset(buffer_ + buffer_size_, 0, 56 - buffer_size_);
  for (int i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<uint8_t>(bit_length >> (56 - 8 * i));
  }
  ProcessBlocks(buffer_, 1);
  buffer_size_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) {
    digest.bytes[i * 4] = static_cast<uint8_t>(state_[i] >> 24);
    digest.bytes[i * 4 + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest.bytes[i * 4 + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest.bytes[i * 4 + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Sha256Digest Sha256::Hash(std::span<const uint8_t> data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

Sha256Digest Sha256::Hash(std::string_view data) {
  Sha256 hasher;
  hasher.Update(data);
  return hasher.Finish();
}

namespace {

#if defined(__x86_64__)

constexpr uint32_t kInitState[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};

/// The final padded block(s) of one stream. Every stream in a batch has
/// the same length, so all lanes have the same block count (1 or 2) and
/// the lanes never diverge.
struct Sha256Tail {
  uint8_t bytes[2][64] = {};
  size_t count = 1;
};

Sha256Tail BuildSha256Tail(const uint8_t* stream, size_t length) {
  Sha256Tail tail;
  const size_t rem = length % 64;
  std::memcpy(tail.bytes[0], stream + (length - rem), rem);
  tail.bytes[0][rem] = 0x80;
  tail.count = (rem + 9 <= 64) ? 1 : 2;
  const uint64_t bits = static_cast<uint64_t>(length) * 8;
  uint8_t* length_bytes = tail.bytes[tail.count - 1] + 56;
  for (int i = 0; i < 8; ++i) {
    length_bytes[i] = static_cast<uint8_t>(bits >> (56 - 8 * i));
  }
  return tail;
}

// ----- 4-way SSE2 lanes (baseline x86-64, no target attribute needed) -----

__m128i Rotr4(__m128i x, int n) {
  return _mm_or_si128(_mm_srli_epi32(x, n), _mm_slli_epi32(x, 32 - n));
}

void ProcessBlock4Sse2(__m128i state[8], const uint8_t* const blocks[4]) {
  __m128i w[64];
  alignas(16) uint32_t tmp[4];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < 4; ++l) tmp[l] = LoadBigEndian32(blocks[l] + i * 4);
    w[i] = _mm_load_si128(reinterpret_cast<const __m128i*>(tmp));
  }
  for (int i = 16; i < 64; ++i) {
    const __m128i x15 = w[i - 15];
    const __m128i x2 = w[i - 2];
    const __m128i s0 = _mm_xor_si128(_mm_xor_si128(Rotr4(x15, 7), Rotr4(x15, 18)),
                                     _mm_srli_epi32(x15, 3));
    const __m128i s1 = _mm_xor_si128(_mm_xor_si128(Rotr4(x2, 17), Rotr4(x2, 19)),
                                     _mm_srli_epi32(x2, 10));
    w[i] = _mm_add_epi32(_mm_add_epi32(w[i - 16], s0),
                         _mm_add_epi32(w[i - 7], s1));
  }
  __m128i a = state[0], b = state[1], c = state[2], d = state[3];
  __m128i e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const __m128i s1 =
        _mm_xor_si128(_mm_xor_si128(Rotr4(e, 6), Rotr4(e, 11)), Rotr4(e, 25));
    const __m128i ch =
        _mm_xor_si128(_mm_and_si128(e, f), _mm_andnot_si128(e, g));
    const __m128i temp1 = _mm_add_epi32(
        _mm_add_epi32(_mm_add_epi32(h, s1), _mm_add_epi32(ch, w[i])),
        _mm_set1_epi32(static_cast<int>(kRoundConstants[i])));
    const __m128i s0 =
        _mm_xor_si128(_mm_xor_si128(Rotr4(a, 2), Rotr4(a, 13)), Rotr4(a, 22));
    const __m128i maj = _mm_xor_si128(
        _mm_xor_si128(_mm_and_si128(a, b), _mm_and_si128(a, c)),
        _mm_and_si128(b, c));
    const __m128i temp2 = _mm_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm_add_epi32(temp1, temp2);
  }
  state[0] = _mm_add_epi32(state[0], a);
  state[1] = _mm_add_epi32(state[1], b);
  state[2] = _mm_add_epi32(state[2], c);
  state[3] = _mm_add_epi32(state[3], d);
  state[4] = _mm_add_epi32(state[4], e);
  state[5] = _mm_add_epi32(state[5], f);
  state[6] = _mm_add_epi32(state[6], g);
  state[7] = _mm_add_epi32(state[7], h);
}

void HashMany4Sse2(const uint8_t* const* streams, size_t length,
                   Sha256Digest* digests) {
  __m128i state[8];
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm_set1_epi32(static_cast<int>(kInitState[i]));
  }
  const uint8_t* blocks[4];
  const size_t full_blocks = length / 64;
  for (size_t b = 0; b < full_blocks; ++b) {
    for (int l = 0; l < 4; ++l) blocks[l] = streams[l] + b * 64;
    ProcessBlock4Sse2(state, blocks);
  }
  Sha256Tail tails[4];
  for (int l = 0; l < 4; ++l) tails[l] = BuildSha256Tail(streams[l], length);
  for (size_t t = 0; t < tails[0].count; ++t) {
    for (int l = 0; l < 4; ++l) blocks[l] = tails[l].bytes[t];
    ProcessBlock4Sse2(state, blocks);
  }
  alignas(16) uint32_t tmp[4];
  for (int word = 0; word < 8; ++word) {
    _mm_store_si128(reinterpret_cast<__m128i*>(tmp), state[word]);
    for (int l = 0; l < 4; ++l) {
      digests[l].bytes[word * 4] = static_cast<uint8_t>(tmp[l] >> 24);
      digests[l].bytes[word * 4 + 1] = static_cast<uint8_t>(tmp[l] >> 16);
      digests[l].bytes[word * 4 + 2] = static_cast<uint8_t>(tmp[l] >> 8);
      digests[l].bytes[word * 4 + 3] = static_cast<uint8_t>(tmp[l]);
    }
  }
}

// ----- 8-way AVX2 lanes (runtime-dispatched; helpers carry the same
// target attribute so they inline into the kernel) -----

__attribute__((target("avx2"))) inline __m256i Rotr8(__m256i x, int n) {
  return _mm256_or_si256(_mm256_srli_epi32(x, n), _mm256_slli_epi32(x, 32 - n));
}

__attribute__((target("avx2"))) void ProcessBlock8Avx2(
    __m256i state[8], const uint8_t* const blocks[8]) {
  __m256i w[64];
  alignas(32) uint32_t tmp[8];
  for (int i = 0; i < 16; ++i) {
    for (int l = 0; l < 8; ++l) tmp[l] = LoadBigEndian32(blocks[l] + i * 4);
    w[i] = _mm256_load_si256(reinterpret_cast<const __m256i*>(tmp));
  }
  for (int i = 16; i < 64; ++i) {
    const __m256i x15 = w[i - 15];
    const __m256i x2 = w[i - 2];
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(x15, 7), Rotr8(x15, 18)),
        _mm256_srli_epi32(x15, 3));
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(x2, 17), Rotr8(x2, 19)),
        _mm256_srli_epi32(x2, 10));
    w[i] = _mm256_add_epi32(_mm256_add_epi32(w[i - 16], s0),
                            _mm256_add_epi32(w[i - 7], s1));
  }
  __m256i a = state[0], b = state[1], c = state[2], d = state[3];
  __m256i e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const __m256i s1 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(e, 6), Rotr8(e, 11)), Rotr8(e, 25));
    const __m256i ch =
        _mm256_xor_si256(_mm256_and_si256(e, f), _mm256_andnot_si256(e, g));
    const __m256i temp1 = _mm256_add_epi32(
        _mm256_add_epi32(_mm256_add_epi32(h, s1), _mm256_add_epi32(ch, w[i])),
        _mm256_set1_epi32(static_cast<int>(kRoundConstants[i])));
    const __m256i s0 = _mm256_xor_si256(
        _mm256_xor_si256(Rotr8(a, 2), Rotr8(a, 13)), Rotr8(a, 22));
    const __m256i maj = _mm256_xor_si256(
        _mm256_xor_si256(_mm256_and_si256(a, b), _mm256_and_si256(a, c)),
        _mm256_and_si256(b, c));
    const __m256i temp2 = _mm256_add_epi32(s0, maj);
    h = g;
    g = f;
    f = e;
    e = _mm256_add_epi32(d, temp1);
    d = c;
    c = b;
    b = a;
    a = _mm256_add_epi32(temp1, temp2);
  }
  state[0] = _mm256_add_epi32(state[0], a);
  state[1] = _mm256_add_epi32(state[1], b);
  state[2] = _mm256_add_epi32(state[2], c);
  state[3] = _mm256_add_epi32(state[3], d);
  state[4] = _mm256_add_epi32(state[4], e);
  state[5] = _mm256_add_epi32(state[5], f);
  state[6] = _mm256_add_epi32(state[6], g);
  state[7] = _mm256_add_epi32(state[7], h);
}

__attribute__((target("avx2"))) void HashMany8Avx2(
    const uint8_t* const* streams, size_t length, Sha256Digest* digests) {
  __m256i state[8];
  for (int i = 0; i < 8; ++i) {
    state[i] = _mm256_set1_epi32(static_cast<int>(kInitState[i]));
  }
  const uint8_t* blocks[8];
  const size_t full_blocks = length / 64;
  for (size_t b = 0; b < full_blocks; ++b) {
    for (int l = 0; l < 8; ++l) blocks[l] = streams[l] + b * 64;
    ProcessBlock8Avx2(state, blocks);
  }
  Sha256Tail tails[8];
  for (int l = 0; l < 8; ++l) tails[l] = BuildSha256Tail(streams[l], length);
  for (size_t t = 0; t < tails[0].count; ++t) {
    for (int l = 0; l < 8; ++l) blocks[l] = tails[l].bytes[t];
    ProcessBlock8Avx2(state, blocks);
  }
  alignas(32) uint32_t tmp[8];
  for (int word = 0; word < 8; ++word) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(tmp), state[word]);
    for (int l = 0; l < 8; ++l) {
      digests[l].bytes[word * 4] = static_cast<uint8_t>(tmp[l] >> 24);
      digests[l].bytes[word * 4 + 1] = static_cast<uint8_t>(tmp[l] >> 16);
      digests[l].bytes[word * 4 + 2] = static_cast<uint8_t>(tmp[l] >> 8);
      digests[l].bytes[word * 4 + 3] = static_cast<uint8_t>(tmp[l]);
    }
  }
}

#endif  // defined(__x86_64__)

}  // namespace

void Sha256HashMany(const uint8_t* const* streams, size_t length,
                    size_t count, Sha256Digest* digests) {
  size_t i = 0;
#if defined(__x86_64__)
  // One SHA-NI stream outruns the 8-lane AVX2 batch, so with SHA-NI every
  // stream takes the single-stream path below.
  const SimdFeatures features = ActiveSimdFeatures();
  const SimdLevel level =
      (features.sha && features.sse41) ? SimdLevel::kScalar : ActiveSimdLevel();
  if (level == SimdLevel::kAvx2) {
    for (; i + 8 <= count; i += 8) {
      HashMany8Avx2(streams + i, length, digests + i);
    }
  }
  if (level >= SimdLevel::kSse2) {
    for (; i + 4 <= count; i += 4) {
      HashMany4Sse2(streams + i, length, digests + i);
    }
  }
#endif
  for (; i < count; ++i) {
    digests[i] = Sha256::Hash(std::span<const uint8_t>(streams[i], length));
  }
}

}  // namespace mmm
