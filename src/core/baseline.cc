#include "core/baseline.h"

#include "core/set_codec.h"

namespace mmm {

Result<SaveResult> BaselineApproach::SaveSnapshot(const ModelSet& set,
                                                  const std::string& base_set_id) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // One batch per save: both snapshot blobs plus the set document commit
  // through the write pipeline together.
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.base_set_id = base_set_id;
  MMM_RETURN_NOT_OK(StageFullSnapshot(context_, &batch, result.set_id, set, &doc));
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  return result;
}

Result<SaveResult> BaselineApproach::SaveInitial(const ModelSet& set) {
  return SaveSnapshot(set, /*base_set_id=*/"");
}

Result<SaveResult> BaselineApproach::SaveDerived(const ModelSet& set,
                                                 const ModelSetUpdateInfo& update) {
  // Baseline ignores derivation for storage purposes (it always writes a
  // full snapshot) but records lineage for analytics.
  return SaveSnapshot(set, update.base_set_id);
}

Result<std::vector<StateDict>> BaselineApproach::RecoverModels(
    const SetDocument& doc, const std::vector<size_t>& indices,
    RecoverStats* stats) {
  MMM_RETURN_NOT_OK(CheckSavedBy(doc, Name()));
  MMM_ASSIGN_OR_RETURN(ArchitectureSpec spec, ReadSnapshotSpec(context_, doc));
  MMM_ASSIGN_OR_RETURN(std::vector<StateDict> models,
                       ReadModelsFromSnapshot(context_, doc, spec, indices));
  if (stats != nullptr) stats->sets_recovered += 1;
  return models;
}

Result<ModelSet> BaselineApproach::Recover(const SetDocument& doc,
                                           RecoverStats* stats) {
  MMM_RETURN_NOT_OK(CheckSavedBy(doc, Name()));
  MMM_ASSIGN_OR_RETURN(ModelSet set, ReadFullSnapshot(context_, doc));
  if (stats != nullptr) stats->sets_recovered += 1;
  return set;
}

}  // namespace mmm
