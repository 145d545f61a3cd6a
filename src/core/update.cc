#include "core/update.h"

#include "cas/blob_io.h"
#include "core/set_codec.h"

namespace mmm {

UpdateApproach::UpdateApproach(StoreContext context, UpdateApproachOptions options)
    : context_(context), options_(options) {}

Result<SaveResult> UpdateApproach::SaveSnapshotWithHashes(
    const ModelSet& set, const std::string& base_set_id) {
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // Per-layer hashing fans out across the pipeline's lanes (one work item
  // per model), then the snapshot blobs, hash blob, and set document all
  // commit through one batch.
  HashTable hash_table = ComputeHashTable(set, context_.executor);

  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.base_set_id = base_set_id;
  MMM_RETURN_NOT_OK(StageFullSnapshot(context_, &batch, result.set_id, set, &doc));

  // Persist the per-layer hashes so the *next* save can detect changes
  // without loading this set's parameters (paper §3.3 step 2).
  doc.hash_blob = result.set_id + ".hashes.bin";
  const HashTable* hashes_ptr = &hash_table;
  const Compression compression = context_.blob_compression;
  batch.PutBlobDeferred(
      doc.hash_blob, [hashes_ptr, compression]() -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> hashes = EncodeHashTable(*hashes_ptr);
        if (compression != Compression::kNone) {
          hashes = CompressBlob(compression, hashes);
        }
        return hashes;
      });
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  return result;
}

Result<SaveResult> UpdateApproach::SaveInitial(const ModelSet& set) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  return SaveSnapshotWithHashes(set, /*base_set_id=*/"");
}

Result<SaveResult> UpdateApproach::SaveDerived(const ModelSet& set,
                                               const ModelSetUpdateInfo& update) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  if (update.base_set_id.empty()) {
    return Status::InvalidArgument("update approach needs a base_set_id");
  }
  MMM_ASSIGN_OR_RETURN(SetDocument base_doc,
                       FetchSetDocument(context_, update.base_set_id));
  if (base_doc.approach != Name()) {
    return Status::InvalidArgument("base set ", update.base_set_id,
                                   " was saved by '", base_doc.approach,
                                   "', not update");
  }
  if (base_doc.num_models != set.models.size()) {
    return Status::InvalidArgument("set has ", set.models.size(),
                                   " models but base has ", base_doc.num_models);
  }
  if (base_doc.hash_blob.empty()) {
    return Status::Corruption("base set ", update.base_set_id,
                              " is missing its hash blob");
  }

  // Periodic full snapshots bound the recovery recursion depth.
  if (base_doc.chain_depth + 1 >= options_.snapshot_interval) {
    MMM_ASSIGN_OR_RETURN(SaveResult result,
                         SaveSnapshotWithHashes(set, update.base_set_id));
    return result;
  }

  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // Step 1 (§3.3): reference to the base set and metadata — the SetDocument.
  // Step 2: hash every model's layers, fanned out across the pipeline lanes.
  HashTable current_hashes = ComputeHashTable(set, context_.executor);
  // Step 3: identify changed parameters against the base set's hash blob.
  MMM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> base_hash_bytes,
      CasReadBlobDecompressed(context_.file_store, base_doc.hash_blob,
                              context_.stream_window_bytes));
  MMM_ASSIGN_OR_RETURN(HashTable base_hashes, DecodeHashTable(base_hash_bytes));
  MMM_ASSIGN_OR_RETURN(std::vector<DiffEntry> entries,
                       DiffHashTables(base_hashes, current_hashes));
  // Step 4: concatenate the changed parameters into one binary blob.
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.kind = "delta";
  doc.base_set_id = update.base_set_id;
  doc.family = base_doc.family;
  doc.num_models = set.models.size();
  doc.chain_depth = base_doc.chain_depth + 1;
  doc.diff_blob = result.set_id + ".diff.bin";
  doc.hash_blob = result.set_id + ".hashes.bin";
  if (options_.diff_encoding == DiffEncoding::kXorBase &&
      update.base_set == nullptr) {
    return Status::InvalidArgument(
        "xor delta encoding needs ModelSetUpdateInfo::base_set");
  }
  // Diff encoding and hash encoding (plus compression) are independent work
  // items; the batch runs them on separate lanes overlapping the writes.
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  const Compression compression = context_.blob_compression;
  const DiffEncoding diff_encoding = options_.diff_encoding;
  const ModelSet* set_ptr = &set;
  const ModelSet* base_set_ptr = update.base_set;
  const std::vector<DiffEntry>* entries_ptr = &entries;
  batch.PutBlobDeferred(
      doc.diff_blob,
      [set_ptr, entries_ptr, diff_encoding, base_set_ptr,
       compression]() -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> diff =
            EncodeDiffBlob(*set_ptr, *entries_ptr, diff_encoding, base_set_ptr);
        if (compression != Compression::kNone) {
          diff = CompressBlob(compression, diff);
        }
        return diff;
      });
  const HashTable* hashes_ptr = &current_hashes;
  batch.PutBlobDeferred(
      doc.hash_blob, [hashes_ptr, compression]() -> Result<std::vector<uint8_t>> {
        std::vector<uint8_t> hashes = EncodeHashTable(*hashes_ptr);
        if (compression != Compression::kNone) {
          hashes = CompressBlob(compression, hashes);
        }
        return hashes;
      });
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  result.chain_depth = doc.chain_depth;
  return result;
}

Result<ModelSet> UpdateApproach::Recover(const std::string& set_id,
                                         RecoverStats* stats) {
  return RecoverCached(set_id, /*cache=*/nullptr, stats);
}

Result<std::vector<StateDict>> UpdateApproach::RecoverModels(
    const std::string& set_id, const std::vector<size_t>& indices,
    RecoverStats* stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);

  // Walk the chain down to the nearest full snapshot.
  std::vector<SetDocument> deltas;
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not update");
  }
  // Bounded by the target's recorded depth, not the collection size (see
  // Recover): a corrupted cycle fails after chain_depth + 1 hops.
  uint64_t budget = doc.chain_depth + 1;
  while (doc.kind == "delta") {
    if (budget-- == 0) {
      return Status::Corruption("update chain too deep (cycle?) at ", doc.id);
    }
    deltas.push_back(doc);
    MMM_ASSIGN_OR_RETURN(doc, FetchSetDocument(context_, doc.base_set_id));
    if (doc.approach != Name()) {
      return Status::InvalidArgument("base set ", doc.id, " was saved by '",
                                     doc.approach, "', not update");
    }
  }
  if (doc.kind != "full") {
    return Status::Corruption("update chain of ", set_id,
                              " does not end in a full snapshot");
  }
  MMM_RETURN_NOT_OK(CheckIndices(indices, deltas.empty()
                                              ? doc.num_models
                                              : deltas.front().num_models));
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ReadSnapshotSpec(context_, doc));
  ParamLayout layout = LayoutOf(spec);

  // Newest-wins resolution per requested (model, param). XOR-encoded diff
  // entries compose: the accumulator gathers them until an absolute value
  // (a newer-than-root absolute diff entry, or the root snapshot) is found.
  std::map<size_t, std::vector<Tensor>> resolved;
  std::map<size_t, std::vector<bool>> have;
  std::map<std::pair<size_t, size_t>, Tensor> xor_acc;
  for (size_t index : indices) {
    if (!resolved.contains(index)) {
      resolved[index].resize(layout.size());
      have[index].assign(layout.size(), false);
    }
  }
  size_t missing = have.size() * layout.size();

  for (const SetDocument& delta : deltas) {
    if (stats != nullptr) stats->sets_recovered += 1;
    if (missing == 0) continue;  // still count the metadata walk
    MMM_ASSIGN_OR_RETURN(
        std::vector<uint8_t> diff_bytes,
        CasReadBlobDecompressed(context_.file_store, delta.diff_blob,
                                context_.stream_window_bytes));
    MMM_ASSIGN_OR_RETURN(DecodedDiff diff, DecodeDiffBlob(spec, diff_bytes));
    for (size_t i = 0; i < diff.entries.size(); ++i) {
      const DiffEntry& entry = diff.entries[i];
      auto it = have.find(entry.model_index);
      if (it == have.end() || entry.param_index >= layout.size() ||
          it->second[entry.param_index]) {
        continue;
      }
      if (diff.encoding == DiffEncoding::kXorBase) {
        std::pair<size_t, size_t> key{entry.model_index, entry.param_index};
        auto acc_it = xor_acc.find(key);
        if (acc_it == xor_acc.end()) {
          xor_acc.emplace(key, std::move(diff.tensors[i]));
        } else {
          acc_it->second = XorTensors(acc_it->second, diff.tensors[i]);
        }
        continue;  // unresolved until an absolute value is reached
      }
      Tensor value = std::move(diff.tensors[i]);
      auto acc_it = xor_acc.find({entry.model_index, entry.param_index});
      if (acc_it != xor_acc.end()) {
        value = XorTensors(value, acc_it->second);
      }
      it->second[entry.param_index] = true;
      resolved[entry.model_index][entry.param_index] = std::move(value);
      --missing;
    }
  }

  // Fill whatever is still unresolved from the root snapshot.
  if (stats != nullptr) stats->sets_recovered += 1;
  if (missing > 0) {
    std::vector<size_t> root_models;
    for (const auto& [model, flags] : have) {
      for (bool got : flags) {
        if (!got) {
          root_models.push_back(model);
          break;
        }
      }
    }
    MMM_ASSIGN_OR_RETURN(std::vector<StateDict> root_states,
                         ReadModelsFromSnapshot(context_, doc, root_models));
    for (size_t r = 0; r < root_models.size(); ++r) {
      size_t model = root_models[r];
      for (size_t p = 0; p < layout.size(); ++p) {
        if (!have[model][p]) {
          Tensor value = std::move(root_states[r][p].second);
          auto acc_it = xor_acc.find({model, p});
          if (acc_it != xor_acc.end()) {
            value = XorTensors(value, acc_it->second);
          }
          resolved[model][p] = std::move(value);
          have[model][p] = true;
        }
      }
    }
  }

  std::vector<StateDict> out;
  out.reserve(indices.size());
  for (size_t index : indices) {
    StateDict state;
    state.reserve(layout.size());
    for (size_t p = 0; p < layout.size(); ++p) {
      state.emplace_back(layout[p].first, resolved[index][p]);
    }
    out.push_back(std::move(state));
  }
  capture.FillRecover(stats);
  return out;
}

Status UpdateApproach::ApplyDelta(const SetDocument& doc, ModelSet* set) {
  // Diff blobs are decoded whole (entries reference arbitrary positions),
  // but the *stored-side* intermediate — the compressed/chunked bytes —
  // never materializes.
  MMM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> diff_bytes,
      CasReadBlobDecompressed(context_.file_store, doc.diff_blob,
                              context_.stream_window_bytes));
  MMM_ASSIGN_OR_RETURN(DecodedDiff diff, DecodeDiffBlob(set->spec, diff_bytes));
  for (size_t i = 0; i < diff.entries.size(); ++i) {
    const DiffEntry& entry = diff.entries[i];
    if (entry.model_index >= set->models.size() ||
        entry.param_index >= set->models[entry.model_index].size()) {
      return Status::Corruption("diff entry out of range in set ", doc.id);
    }
    Tensor& target = set->models[entry.model_index][entry.param_index].second;
    if (diff.encoding == DiffEncoding::kXorBase) {
      if (diff.tensors[i].shape() != target.shape()) {
        return Status::Corruption("xor diff shape mismatch in set ", doc.id);
      }
      target = XorTensors(target, diff.tensors[i]);
    } else {
      target = std::move(diff.tensors[i]);
    }
  }
  return Status::OK();
}

namespace {

/// Reads and decodes a set's stored per-layer hash table.
Result<HashTable> ReadStoredHashTable(const StoreContext& context,
                                      const SetDocument& doc) {
  if (doc.hash_blob.empty()) {
    return Status::Corruption("set ", doc.id, " is missing its hash blob");
  }
  MMM_ASSIGN_OR_RETURN(
      std::vector<uint8_t> bytes,
      CasReadBlobDecompressed(context.file_store, doc.hash_blob,
                              context.stream_window_bytes));
  return DecodeHashTable(bytes);
}

/// Walks the delta chain (documents only) down to the root snapshot and
/// reads its architecture blob — the cheap way to learn a delta set's spec
/// without touching any parameter or diff blob.
Result<ArchitectureSpec> ResolveChainSpec(const StoreContext& context,
                                          SetDocument doc, uint64_t budget) {
  while (doc.kind == "delta") {
    if (budget-- == 0) {
      return Status::Corruption("update chain too deep (cycle?) at ", doc.id);
    }
    MMM_ASSIGN_OR_RETURN(doc, FetchSetDocument(context, doc.base_set_id));
  }
  if (doc.kind != "full") {
    return Status::Corruption("update chain does not end in a full snapshot");
  }
  return ReadSnapshotSpec(context, doc);
}

}  // namespace

Result<ModelSet> UpdateApproach::RecoverCached(const std::string& set_id,
                                               RecoveryCache* cache,
                                               RecoverStats* stats,
                                               CacheRequestStats* cache_stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not update");
  }
  // The target's recorded chain depth bounds the walk: a valid chain holds
  // chain_depth + 1 documents down to its full snapshot. Sizing the budget
  // from the whole collection would let a corrupted base-pointer cycle walk
  // every set of every approach in a mixed store before failing.
  uint64_t depth_budget = doc.chain_depth + 1;
  CacheRequestStats local;
  MMM_ASSIGN_OR_RETURN(
      ModelSet set,
      RecoverCachedFromDoc(doc, cache, stats, &local, depth_budget));
  if (cache_stats != nullptr) *cache_stats += local;
  capture.FillRecover(stats);
  return set;
}

Result<ModelSet> UpdateApproach::RecoverCachedInternal(
    const std::string& set_id, RecoveryCache* cache, RecoverStats* stats,
    CacheRequestStats* cache_stats, uint64_t depth_budget) {
  if (depth_budget == 0) {
    return Status::Corruption("update recovery chain too deep (cycle?) at ",
                              set_id);
  }
  // The set document is always fetched live. The document store stays the
  // single root of trust, so recovering a deleted set fails right here no
  // matter what the cache still holds — a cache hit can never resurrect a
  // collected set.
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not update");
  }
  return RecoverCachedFromDoc(doc, cache, stats, cache_stats, depth_budget);
}

Result<ModelSet> UpdateApproach::RecoverCachedFromDoc(
    const SetDocument& doc, RecoveryCache* cache, RecoverStats* stats,
    CacheRequestStats* cache_stats, uint64_t depth_budget) {
  const std::string& set_id = doc.id;
  if (stats != nullptr) stats->sets_recovered += 1;

  // Steps 1-3a consult the cache. Without one, recovery goes straight to
  // step 3b: it reads no hash blob, walks no chain spec, and touches exactly
  // the documents and blobs it materializes.
  HashTable hashes;
  ArchitectureSpec spec;
  if (cache != nullptr) {
    // Step 1: resolve the set's per-layer content hashes and architecture,
    // memoized so a hot set costs no hash-blob or chain-walk reads.
    if (cache->GetSetMeta(set_id, &hashes, &spec)) {
      cache_stats->meta_hits += 1;
    } else {
      cache_stats->meta_misses += 1;
      MMM_ASSIGN_OR_RETURN(hashes, ReadStoredHashTable(context_, doc));
      MMM_ASSIGN_OR_RETURN(spec,
                           ResolveChainSpec(context_, doc, depth_budget));
    }
    ParamLayout layout = LayoutOf(spec);
    if (hashes.size() != doc.num_models) {
      return Status::Corruption("hash table of ", set_id, " covers ",
                                hashes.size(), " models, document says ",
                                doc.num_models);
    }
    for (const auto& row : hashes) {
      if (row.size() != layout.size()) {
        return Status::Corruption("hash table of ", set_id,
                                  " disagrees with the parameter layout");
      }
    }

    // Step 2: probe every layer by content hash. Layers shared with an
    // already-served set (the base snapshot, or any sibling derived set)
    // hit regardless of which set first brought them in.
    std::vector<std::vector<Tensor>> cached_layers(hashes.size());
    bool complete = true;
    for (size_t m = 0; m < hashes.size(); ++m) {
      cached_layers[m].resize(layout.size());
      for (size_t p = 0; p < layout.size(); ++p) {
        if (cache->GetLayer(hashes[m][p], &cached_layers[m][p])) {
          cache_stats->layer_hits += 1;
        } else {
          cache_stats->layer_misses += 1;
          complete = false;
        }
      }
    }

    // Step 3a: full hit — assemble without touching the file store.
    if (complete) {
      cache_stats->sets_from_cache += 1;
      ModelSet set;
      set.spec = spec;
      set.models.resize(hashes.size());
      for (size_t m = 0; m < hashes.size(); ++m) {
        StateDict& state = set.models[m];
        state.reserve(layout.size());
        for (size_t p = 0; p < layout.size(); ++p) {
          state.emplace_back(layout[p].first, std::move(cached_layers[m][p]));
        }
      }
      cache->PutSetMeta(set_id, hashes, spec);
      return set;
    }
  }

  // Step 3b: materialize from the store. A full snapshot streams its
  // parameter blob; a delta recovers its base *through the same cache*
  // (the memoized recursion) and applies the diff on top.
  ModelSet set;
  if (doc.kind == "full") {
    if (cache == nullptr) return ReadFullSnapshot(context_, doc);
    // Each finished layer goes to the cache the moment its bytes are
    // complete — a concurrent request for a sibling set can hit layers of
    // this snapshot while later models are still streaming in. This offer
    // replaces step 4's for this set.
    MMM_ASSIGN_OR_RETURN(
        set.models,
        ReadSnapshotModels(
            context_, doc, spec,
            [&](size_t m, size_t p, const Tensor& tensor) -> Status {
              if (m >= hashes.size() || p >= hashes[m].size()) {
                return Status::Corruption("set ", set_id, " streams layer (",
                                          m, ", ", p,
                                          ") outside its hash table");
              }
              cache->PutLayer(hashes[m][p], tensor);
              return Status::OK();
            }));
    set.spec = spec;
    cache->PutSetMeta(set_id, hashes, set.spec);
    return set;
  }
  if (doc.kind != "delta") {
    return Status::Corruption("set ", set_id, " has unexpected kind '",
                              doc.kind, "'");
  }
  MMM_ASSIGN_OR_RETURN(
      set, RecoverCachedInternal(doc.base_set_id, cache, stats, cache_stats,
                                 depth_budget - 1));
  if (set.models.size() != doc.num_models) {
    return Status::Corruption("base set size ", set.models.size(),
                              " != derived size ", doc.num_models);
  }
  MMM_RETURN_NOT_OK(ApplyDelta(doc, &set));
  if (cache == nullptr) return set;

  // Step 4: offer every materialized layer back to the cache under its
  // stored content hash (shared layers re-admit idempotently).
  for (size_t m = 0; m < set.models.size(); ++m) {
    for (size_t p = 0; p < set.models[m].size(); ++p) {
      cache->PutLayer(hashes[m][p], set.models[m][p].second);
    }
  }
  cache->PutSetMeta(set_id, hashes, set.spec);
  return set;
}

}  // namespace mmm
