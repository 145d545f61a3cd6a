#ifndef MMM_COMMON_SIMD_H_
#define MMM_COMMON_SIMD_H_

#include <cstddef>
#include <cstdint>

namespace mmm {

/// \brief Runtime-dispatched SIMD substrate for the recovery hot loops and
/// the integrity kernels (DESIGN.md §12).
///
/// Every primitive here is bit-exact with its scalar fallback by
/// construction: all of them are pure byte moves or integer/bitwise
/// operations, so the vectorized variants produce the identical output
/// bytes — no floating-point re-association, no lane-dependent rounding.
/// That is what lets the streaming recovery path flip between ISA levels
/// (and lets tests pin a level via MMM_SIMD) without perturbing hashes,
/// CRCs, or recovered tensors.
///
/// Dispatch policy: the active level is detected once per process from
/// CPUID (AVX2 > SSE2 > scalar; non-x86 builds are always scalar) and can
/// be clamped down with the MMM_SIMD environment variable ("scalar",
/// "sse2", "avx2") — requesting a level the CPU lacks falls back to the
/// best supported one. The primitives are small enough that per-call
/// dispatch is a single relaxed atomic load.
///
/// The integrity kernels (CRC32 folding in serialize/crc32.cc, SHA-NI in
/// serialize/sha256.cc) need instruction-set extensions that are not vector
/// widths: PCLMULQDQ, SSE4.1 and SHA. Their CPUID bits are read in the same
/// one-time detection and published through ActiveSimdFeatures(). The clamp
/// maps onto them without a knob of its own: "scalar" turns every feature
/// off (portable slicing-by-8 CRC32, portable SHA-256 rounds), while "sse2"
/// and "avx2" keep whatever CPUID reports, since those kernels are 128-bit
/// and run at either level. A separate switch would only add a combination
/// nothing needs: the portable kernels are reachable with "scalar", the
/// hardware ones are bit-exact with them, and tests pin both.
enum class SimdLevel {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

/// Human-readable level name ("scalar", "sse2", "avx2") for bench metadata.
const char* SimdLevelName(SimdLevel level);

/// The level the process dispatches to: min(CPU support, MMM_SIMD clamp).
/// Detected once; cheap to call afterwards.
SimdLevel ActiveSimdLevel();

/// \brief Extensions the integrity kernels dispatch on. Each flag is true
/// when CPUID reports it and the active level is above kScalar.
struct SimdFeatures {
  bool pclmul = false;  ///< PCLMULQDQ carry-less multiply (CRC32 folding).
  bool sse41 = false;   ///< SSE4.1 (lane extract/blend in both kernels).
  bool sha = false;     ///< SHA-NI SHA-256 rounds and message schedule.
};

/// The feature bits of the active level; detected with ActiveSimdLevel().
SimdFeatures ActiveSimdFeatures();

namespace simd {

/// dst[i] ^= src[i] for i in [0, n). The regions must not overlap. This is
/// the delta-apply kernel: XOR of raw IEEE-754 bit patterns (via uint8/
/// uint32 lanes), never float arithmetic, so it is bit-exact at any level.
void XorBytes(uint8_t* dst, const uint8_t* src, size_t n);

/// Float-typed convenience over XorBytes for tensor delta-apply; operates
/// on the bit patterns of `n` floats.
void XorFloats(float* dst, const float* src, size_t n);

/// LZ match copy: replicates `n` bytes starting `offset` bytes *behind*
/// `dst` into `dst`, byte-sequentially — i.e. bit-exact with
///   for (i < n) dst[i] = dst[i - offset];
/// which is the overlap/RLE semantic the LZ decoders rely on (offset < n
/// replicates bytes written earlier in the same call). `offset >= 1` and
/// the caller guarantees `dst - offset` through `dst + n` is valid,
/// writable memory. Wide copies are used only when they cannot observe
/// their own output (offset >= vector width); short offsets fall back to
/// the scalar loop, keeping the result identical everywhere.
void ReplicateRun(uint8_t* dst, size_t offset, size_t n);

}  // namespace simd

}  // namespace mmm

#endif  // MMM_COMMON_SIMD_H_
