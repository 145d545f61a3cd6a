#ifndef MMM_CORE_SET_CODEC_H_
#define MMM_CORE_SET_CODEC_H_

#include <functional>
#include <string>

#include "core/approach.h"
#include "core/blob_formats.h"
#include "core/model_set.h"
#include "serialize/json.h"

namespace mmm {

/// \brief The per-set metadata document every approach writes to the
/// document store (one document per saved set — opportunity O1/O3).
struct SetDocument {
  std::string id;
  std::string approach;  ///< "mmlib-base" | "baseline" | "update" | "provenance"
  /// "full" = complete parameters stored; "delta" = Update diff vs base;
  /// "prov" = provenance record vs base.
  std::string kind = "full";
  std::string base_set_id;  ///< empty for initial sets / standalone snapshots
  std::string family;       ///< architecture family label
  uint64_t num_models = 0;
  /// Number of delta/prov hops to the nearest full snapshot (0 for "full").
  uint64_t chain_depth = 0;
  /// \name Artifact blob names in the file store ("" = absent).
  /// @{
  std::string arch_blob;
  std::string param_blob;
  std::string hash_blob;
  std::string diff_blob;
  std::string prov_blob;
  /// @}

  JsonValue ToJson() const;
  static Result<SetDocument> FromJson(const JsonValue& json);
};

/// \brief Snapshots store statistics to compute per-operation deltas.
///
/// Usage: construct before the operation, call FillSave / FillRecover after.
///
/// Saves diff the *shared* simulated clock: the write pipeline fans blob
/// charges out across executor lanes, so the calling thread's counter would
/// undercount. Recoveries run entirely on the calling thread, so FillRecover
/// diffs the thread-local counter instead — exact per request even when the
/// serving layer overlaps many recoveries on one shared clock.
class StatsCapture {
 public:
  explicit StatsCapture(const StoreContext& context);

  void FillSave(SaveResult* result) const;
  void FillRecover(RecoverStats* stats) const;

 private:
  const StoreContext& context_;
  uint64_t file_bytes_written_;
  uint64_t file_writes_;
  uint64_t doc_bytes_written_;
  uint64_t doc_writes_;
  uint64_t sim_nanos_;
  uint64_t thread_sim_nanos_;
};

/// \name Full-snapshot helpers (Baseline's save/load logic, reused by
/// Update's and Provenance's initial saves — paper §3.3/§3.4 both start
/// "using Baseline's logic").
/// @{

/// Stages the architecture blob + concatenated param blob for `set` under
/// `set_id` into `batch`, and fills the artifact names into `doc`. The
/// parameter encode (and compression) runs as a deferred work item on a
/// pipeline lane at commit time, so `set` must outlive the batch's
/// Commit().
Status StageFullSnapshot(const StoreContext& context, StoreBatch* batch,
                         const std::string& set_id, const ModelSet& set,
                         SetDocument* doc);

/// Single-op convenience over StageFullSnapshot: stages into a fresh batch
/// and commits it immediately.
Status WriteFullSnapshot(const StoreContext& context, const std::string& set_id,
                         const ModelSet& set, SetDocument* doc);

/// Reads a full snapshot described by `doc`: the architecture blob, then
/// the parameter blob through ReadSnapshotModels.
Result<ModelSet> ReadFullSnapshot(const StoreContext& context,
                                  const SetDocument& doc);

/// Observes one decoded layer of a snapshot stream; a non-OK return aborts.
using SnapshotLayerObserver =
    std::function<Status(size_t model, size_t param, const Tensor& tensor)>;

/// Streams `doc`'s parameter blob (possibly compressed, possibly CAS-
/// chunked) window-by-window through the incremental decompressor and
/// ParamBlobStreamDecoder (DESIGN.md §12), so neither the stored bytes nor
/// the decompressed blob is ever materialized whole. Each finished layer is
/// shown to `observe` (may be null) the moment its bytes are complete, in
/// (model, param) order. Validates the same header/size/CRC invariants as
/// DecodeParamBlob, plus the model count against `doc.num_models`.
/// Shuffle-compressed blobs degenerate to decode-at-finish (the byte-plane
/// transpose is global) but stay bit-exact.
Result<std::vector<StateDict>> ReadSnapshotModels(
    const StoreContext& context, const SetDocument& doc,
    const ArchitectureSpec& spec, const SnapshotLayerObserver& observe = {});

/// Reads only the models at `indices` from a full snapshot whose
/// architecture `spec` the caller has already read. Uncompressed parameter
/// blobs are accessed with ranged store reads (one per distinct model);
/// compressed blobs fall back to streaming the whole blob through
/// ReadSnapshotModels. The result is parallel to `indices`.
Result<std::vector<StateDict>> ReadModelsFromSnapshot(
    const StoreContext& context, const SetDocument& doc,
    const ArchitectureSpec& spec, const std::vector<size_t>& indices);

/// Reads the snapshot's architecture.
Result<ArchitectureSpec> ReadSnapshotSpec(const StoreContext& context,
                                          const SetDocument& doc);

/// Returns InvalidArgument unless every index is < num_models.
Status CheckIndices(const std::vector<size_t>& indices, uint64_t num_models);
/// @}

/// Stages the set document for insertion into the metadata collection.
/// `doc` is captured by value at staging time, so every field must be final.
void StageSetDocument(StoreBatch* batch, const SetDocument& doc);

/// Single-op convenience over StageSetDocument: stages into a fresh batch
/// and commits it immediately.
Status InsertSetDocument(const StoreContext& context, const SetDocument& doc);

/// Fetches and parses a set document.
Result<SetDocument> FetchSetDocument(const StoreContext& context,
                                     const std::string& set_id);

/// InvalidArgument unless `doc` was saved by `approach`. Every approach
/// checks the document its recovery entry is handed with it.
Status CheckSavedBy(const SetDocument& doc, const std::string& approach);

/// Fetches `doc`'s base document and checks that `approach` saved it too:
/// the one step a recursive recovery takes from a set to its base.
/// `hops_left` is what remains of the walk's budget — the target's recorded
/// chain_depth at the top, one less per step — so a valid chain never runs
/// out, and a corrupted base-pointer cycle fails with Corruption after
/// chain_depth + 1 document reads instead of walking the whole collection.
Result<SetDocument> FetchBaseDocument(const StoreContext& context,
                                      const SetDocument& doc,
                                      const std::string& approach,
                                      uint64_t hops_left);

/// Encodes the architecture blob content (spec + explicit parameter layout).
std::string EncodeArchBlob(const ArchitectureSpec& spec);

/// Decodes an architecture blob.
Result<ArchitectureSpec> DecodeArchBlob(const std::string& text);

}  // namespace mmm

#endif  // MMM_CORE_SET_CODEC_H_
