#ifndef MMM_CAS_MANIFEST_H_
#define MMM_CAS_MANIFEST_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"

namespace mmm {

/// Chunk blobs live in the same file store as every other artifact, under a
/// reserved name prefix: `cas-<64 hex chars of the chunk's SHA-256>`. Only
/// the CAS sweeper (cas/cas_store.cc) may delete blobs in this namespace —
/// enforced by the mmmsa `chunk-delete` rule.
inline constexpr char kCasChunkPrefix[] = "cas-";

/// First 8 bytes of every manifest payload. Raw artifact blobs all start
/// with their own codec magic (see core/blob_formats.h), so a reader can
/// tell a manifest from a verbatim payload by sniffing bytes it already
/// fetched — mixed stores (some blobs chunked, some not) stay readable.
inline constexpr char kCasManifestMagic[] = "MMCASM1\n";
inline constexpr size_t kCasManifestMagicSize = 8;

/// \brief One chunk reference inside a manifest.
struct CasChunkRef {
  std::string hash_hex;  ///< lowercase SHA-256 of the chunk bytes
  uint64_t length = 0;   ///< chunk size in bytes
};

/// \brief A chunked blob's manifest: what to fetch and how to check it.
struct CasManifest {
  uint64_t raw_size = 0;  ///< size of the reassembled payload
  uint32_t raw_crc = 0;   ///< CRC32 of the reassembled payload
  std::vector<CasChunkRef> chunks;
};

/// File-store blob name of a chunk.
std::string ChunkBlobName(const std::string& hash_hex);

/// True if `name` is in the chunk namespace.
bool IsChunkBlobName(std::string_view name);

/// The hex digest of a chunk blob name (inverse of ChunkBlobName); the name
/// must satisfy IsChunkBlobName.
std::string ChunkHexOfBlobName(std::string_view name);

/// True if `data` begins with the manifest magic.
bool IsManifestPayload(std::span<const uint8_t> data);

/// Serializes a manifest: magic + one-line JSON
/// `{"raw_size":N,"raw_crc":C,"chunks":[["<hex>",len],...]}`.
std::vector<uint8_t> EncodeManifest(const CasManifest& manifest);

/// Parses a manifest payload; fails with Corruption on bad magic/JSON.
Result<CasManifest> DecodeManifest(std::span<const uint8_t> data);

}  // namespace mmm

#endif  // MMM_CAS_MANIFEST_H_
