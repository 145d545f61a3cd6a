#ifndef MMM_CORE_PROVENANCE_H_
#define MMM_CORE_PROVENANCE_H_

#include <map>

#include "core/approach.h"
#include "data/dataset_ref.h"
#include "prov/environment.h"
#include "prov/replay.h"

namespace mmm {

/// \brief Recovery-time options of the Provenance approach.
///
/// The defaults replay every updated model on its full dataset (exact
/// recovery). The caps implement the paper's measurement protocol (§4.4:
/// "we — exclusively for this approach — only train one model with reduced
/// data per iteration"); capped recovery is *approximate* — skipped models
/// keep their base-set parameters.
struct ProvenanceRecoverOptions {
  /// Replay at most this many updated models per set (0 = all).
  size_t max_replay_models = 0;
  /// Truncate each replayed dataset to this many samples (0 = all).
  size_t max_replay_samples = 0;
};

/// \brief The paper's Provenance approach (§3.4).
///
/// The initial set is saved with Baseline's logic. A derived set is
/// represented by provenance only: the environment and training-pipeline
/// description once per set (O2 — MMlib stored them per model), plus one
/// dataset *reference* per updated model (O2 — the data itself is stored by
/// its owner regardless of model management). Recovery recursively recovers
/// the base set and deterministically re-trains every updated model on its
/// referenced data.
class ProvenanceApproach : public ModelSetApproach {
 public:
  /// \param resolver external owner of the training data (hash-verified).
  ProvenanceApproach(StoreContext context, DatasetResolver* resolver,
                     EnvironmentInfo environment,
                     ProvenanceRecoverOptions recover_options = {});

  std::string Name() const override { return "provenance"; }
  Result<SaveResult> SaveInitial(const ModelSet& set) override;
  Result<SaveResult> SaveDerived(const ModelSet& set,
                                 const ModelSetUpdateInfo& update) override;
  Result<ModelSet> Recover(const std::string& set_id,
                           RecoverStats* stats) override;
  /// Selective recovery replays only the requested models' updates along
  /// the chain (always exactly — the recover-option caps are a full-set
  /// measurement protocol and do not apply here).
  Result<std::vector<StateDict>> RecoverModels(const std::string& set_id,
                                               const std::vector<size_t>& indices,
                                               RecoverStats* stats) override;
  using ModelSetApproach::Recover;
  using ModelSetApproach::RecoverModels;

  void set_recover_options(const ProvenanceRecoverOptions& options) {
    recover_options_ = options;
  }
  const ProvenanceRecoverOptions& recover_options() const {
    return recover_options_;
  }

 private:
  Result<ModelSet> RecoverChain(const std::string& set_id,
                                RecoverStats* stats, uint64_t depth_budget);
  Result<std::map<size_t, StateDict>> RecoverModelsInternal(
      const std::string& set_id, const std::vector<size_t>& unique_indices,
      const ArchitectureSpec* spec_hint, RecoverStats* stats,
      uint64_t depth_budget);

  StoreContext context_;
  ReplayEngine replay_;
  EnvironmentInfo environment_;
  ProvenanceRecoverOptions recover_options_;
};

}  // namespace mmm

#endif  // MMM_CORE_PROVENANCE_H_
