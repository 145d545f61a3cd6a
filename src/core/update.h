#ifndef MMM_CORE_UPDATE_H_
#define MMM_CORE_UPDATE_H_

#include <limits>

#include "core/approach.h"
#include "core/blob_formats.h"
#include "core/recovery_cache.h"

namespace mmm {

/// \brief Options of the Update approach.
struct UpdateApproachOptions {
  /// Write a full snapshot (instead of a delta) whenever the chain since the
  /// last snapshot reaches this many deltas. The paper saves only the very
  /// first set fully — the default — and notes intermediate snapshots as the
  /// remedy for recursively increasing recovery times (§2.2); the
  /// snapshot-interval ablation bench sweeps this knob.
  uint64_t snapshot_interval = std::numeric_limits<uint64_t>::max();
  /// Payload encoding of the diff blobs. kXorBase (the §4.5 delta-encoding
  /// direction) requires ModelSetUpdateInfo::base_set at save time and pays
  /// off combined with shuffle-LZ compression.
  DiffEncoding diff_encoding = DiffEncoding::kAbsolute;
};

/// \brief The paper's Update approach (§3.3).
///
/// Saves the initial set with Baseline's logic plus a per-(model, layer)
/// SHA-256 hash table. Derived sets are saved as: (1) a metadata document
/// referencing the base set, (2) the new hash table, (3) a diff list of all
/// (model, layer) pairs whose hash changed, and (4) one binary blob
/// concatenating exactly the changed parameters. Change detection needs only
/// the base set's *hash* blob, never its parameters.
///
/// Recovery is recursive: recover the base set, then apply the diffs —
/// hence the staircase time-to-recover in Figure 5.
class UpdateApproach : public ModelSetApproach {
 public:
  UpdateApproach(StoreContext context, UpdateApproachOptions options = {});

  std::string Name() const override { return "update"; }
  Result<SaveResult> SaveInitial(const ModelSet& set) override;
  Result<SaveResult> SaveDerived(const ModelSet& set,
                                 const ModelSetUpdateInfo& update) override;
  Result<ModelSet> Recover(const SetDocument& doc,
                           RecoverStats* stats) override;
  /// Selective recovery walks the delta chain once, keeping only the newest
  /// version of each requested (model, layer) pair, and reads the remaining
  /// parameters from the root snapshot with ranged store reads — no full set
  /// is ever materialized.
  Result<std::vector<StateDict>> RecoverModels(const SetDocument& doc,
                                               const std::vector<size_t>& indices,
                                               RecoverStats* stats) override;

  /// Recovery through a layer-granular cache (the serving read path);
  /// ModelSetManager::Recover routes Update sets here when handed a cache.
  ///
  /// Decomposes Recover into cacheable per-layer steps: the set's stored
  /// per-layer content hashes are resolved first (memoized via
  /// RecoveryCache::GetSetMeta), then every layer is probed in the cache by
  /// its hash. A set whose layers all hit is assembled without reading a
  /// single parameter or diff blob; otherwise the base set is recovered
  /// recursively *through the same cache* — so a hot base set is fetched and
  /// decoded once, and each derived set costs only its own diff blob — and
  /// every materialized layer is offered back to the cache.
  ///
  /// One recursion serves both paths. It fetches each base document once
  /// and reads the root's architecture once: a derived set takes its spec
  /// from its base's recovery, and only a set whose memo missed while every
  /// layer hit walks the chain for it.
  ///
  /// Bit-exactness: cached tensors are keyed by their SHA-256 content hash,
  /// so assembly reproduces exactly the bytes an uncached recovery returns.
  /// With `cache == nullptr` (which is how Recover runs) no hash blob is
  /// read and no cache step runs: a full snapshot is streamed, a delta is
  /// its base plus the applied diff.
  Result<ModelSet> RecoverCached(const SetDocument& doc, RecoveryCache* cache,
                                 RecoverStats* stats = nullptr,
                                 CacheRequestStats* cache_stats = nullptr);

 private:
  Result<SaveResult> SaveSnapshotWithHashes(const ModelSet& set,
                                            const std::string& base_set_id);
  /// The recursion behind RecoverCached; `hops_left` bounds the base
  /// fetches still allowed (see FetchBaseDocument).
  Result<ModelSet> RecoverChain(const SetDocument& doc, RecoveryCache* cache,
                                RecoverStats* stats,
                                CacheRequestStats* cache_stats,
                                uint64_t hops_left);
  /// Reads, decodes, and applies `doc`'s diff blob onto `set` in place.
  Status ApplyDelta(const SetDocument& doc, ModelSet* set);

  StoreContext context_;
  UpdateApproachOptions options_;
};

}  // namespace mmm

#endif  // MMM_CORE_UPDATE_H_
