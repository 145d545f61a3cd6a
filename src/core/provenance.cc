#include "core/provenance.h"

#include <algorithm>

#include "cas/blob_io.h"
#include "core/set_codec.h"

namespace mmm {
namespace {

const char* UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kNone:
      return "none";
    case UpdateKind::kPartial:
      return "partial";
    case UpdateKind::kFull:
      return "full";
  }
  return "?";
}

Result<UpdateKind> UpdateKindFromName(const std::string& name) {
  if (name == "none") return UpdateKind::kNone;
  if (name == "partial") return UpdateKind::kPartial;
  if (name == "full") return UpdateKind::kFull;
  return Status::Corruption("unknown update kind '", name, "'");
}

}  // namespace

ProvenanceApproach::ProvenanceApproach(StoreContext context,
                                       DatasetResolver* resolver,
                                       EnvironmentInfo environment,
                                       ProvenanceRecoverOptions recover_options)
    : context_(context),
      replay_(resolver),
      environment_(std::move(environment)),
      recover_options_(recover_options) {}

Result<SaveResult> ProvenanceApproach::SaveInitial(const ModelSet& set) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // "For the initial model set, we save complete model representations
  // using Baseline's logic." (§3.4)
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  MMM_RETURN_NOT_OK(StageFullSnapshot(context_, &batch, result.set_id, set, &doc));
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  return result;
}

Result<SaveResult> ProvenanceApproach::SaveDerived(
    const ModelSet& set, const ModelSetUpdateInfo& update) {
  MMM_RETURN_NOT_OK(context_.Validate());
  MMM_RETURN_NOT_OK(CheckSetConsistent(set));
  if (update.base_set_id.empty()) {
    return Status::InvalidArgument("provenance approach needs a base_set_id");
  }
  if (update.kinds.size() != set.models.size()) {
    return Status::InvalidArgument("provenance approach needs per-model update "
                                   "kinds (got ",
                                   update.kinds.size(), " for ",
                                   set.models.size(), " models)");
  }
  if (update.pipeline.pipeline_code.empty()) {
    return Status::InvalidArgument("provenance approach needs the pipeline spec");
  }
  MMM_RETURN_NOT_OK(update.pipeline.Validate());
  MMM_ASSIGN_OR_RETURN(SetDocument base_doc,
                       FetchSetDocument(context_, update.base_set_id));
  if (base_doc.approach != Name()) {
    return Status::InvalidArgument("base set ", update.base_set_id,
                                   " was saved by '", base_doc.approach,
                                   "', not provenance");
  }
  if (base_doc.num_models != set.models.size()) {
    return Status::InvalidArgument("set has ", set.models.size(),
                                   " models but base has ", base_doc.num_models);
  }

  StatsCapture capture(context_);
  SaveResult result;
  result.set_id = context_.ids->Next("set");

  // Environment, pipeline, and partial-layer list once per set; one dataset
  // reference per *updated* model (§3.4).
  JsonValue record = JsonValue::Object();
  record.Set("environment", environment_.ToJson());
  record.Set("pipeline", update.pipeline.ToJson());
  JsonValue partial_layers = JsonValue::Array();
  for (const std::string& layer : update.partial_layers) {
    partial_layers.Append(layer);
  }
  record.Set("partial_layers", std::move(partial_layers));
  JsonValue updates = JsonValue::Array();
  for (size_t index = 0; index < update.kinds.size(); ++index) {
    if (update.kinds[index] == UpdateKind::kNone) continue;
    if (index >= update.data_refs.size() || update.data_refs[index].uri.empty()) {
      return Status::InvalidArgument("updated model ", index,
                                     " is missing its dataset reference");
    }
    JsonValue entry = JsonValue::Object();
    entry.Set("index", static_cast<int64_t>(index));
    entry.Set("kind", UpdateKindName(update.kinds[index]));
    entry.Set("data_ref", update.data_refs[index].ToJson());
    updates.Append(std::move(entry));
  }
  record.Set("updates", std::move(updates));

  SetDocument doc;
  doc.id = result.set_id;
  doc.approach = Name();
  doc.kind = "prov";
  doc.base_set_id = update.base_set_id;
  doc.family = base_doc.family;
  doc.num_models = set.models.size();
  doc.chain_depth = base_doc.chain_depth + 1;
  doc.prov_blob = result.set_id + ".prov.json";
  StoreBatch batch = MakeBatch(context_);
  batch.AnnotateCommit(result.set_id, Name());
  batch.PutBlobString(doc.prov_blob, record.Dump());
  StageSetDocument(&batch, doc);
  MMM_RETURN_NOT_OK(batch.Commit());

  capture.FillSave(&result);
  result.chain_depth = doc.chain_depth;
  return result;
}

Result<ModelSet> ProvenanceApproach::Recover(const std::string& set_id,
                                             RecoverStats* stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  uint64_t depth_budget = context_.doc_store->Count(kSetCollection) + 1;
  MMM_ASSIGN_OR_RETURN(ModelSet set,
                       RecoverChain(set_id, stats, depth_budget));
  capture.FillRecover(stats);
  return set;
}

Result<std::vector<StateDict>> ProvenanceApproach::RecoverModels(
    const std::string& set_id, const std::vector<size_t>& indices,
    RecoverStats* stats) {
  MMM_RETURN_NOT_OK(context_.Validate());
  StatsCapture capture(context_);
  std::vector<size_t> unique = indices;
  std::sort(unique.begin(), unique.end());
  unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
  uint64_t depth_budget = context_.doc_store->Count(kSetCollection) + 1;
  MMM_ASSIGN_OR_RETURN(
      auto by_index,
      RecoverModelsInternal(set_id, unique, nullptr, stats, depth_budget));
  std::vector<StateDict> out;
  out.reserve(indices.size());
  for (size_t index : indices) out.push_back(by_index.at(index));
  capture.FillRecover(stats);
  return out;
}

Result<std::map<size_t, StateDict>> ProvenanceApproach::RecoverModelsInternal(
    const std::string& set_id, const std::vector<size_t>& unique_indices,
    const ArchitectureSpec* spec_hint, RecoverStats* stats,
    uint64_t depth_budget) {
  if (depth_budget == 0) {
    return Status::Corruption("provenance recovery chain too deep (cycle?) at ",
                              set_id);
  }
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not provenance");
  }
  if (stats != nullptr) stats->sets_recovered += 1;

  if (doc.kind == "full") {
    MMM_RETURN_NOT_OK(CheckIndices(unique_indices, doc.num_models));
    MMM_ASSIGN_OR_RETURN(std::vector<StateDict> states,
                         ReadModelsFromSnapshot(context_, doc, unique_indices));
    std::map<size_t, StateDict> out;
    for (size_t i = 0; i < unique_indices.size(); ++i) {
      out[unique_indices[i]] = std::move(states[i]);
    }
    return out;
  }
  if (doc.kind != "prov") {
    return Status::Corruption("set ", set_id, " has unexpected kind '", doc.kind,
                              "'");
  }
  MMM_RETURN_NOT_OK(CheckIndices(unique_indices, doc.num_models));

  // Resolve the architecture once at the top of the recursion.
  ArchitectureSpec resolved_spec;
  if (spec_hint == nullptr) {
    SetDocument cursor = doc;
    uint64_t budget = depth_budget;
    while (cursor.arch_blob.empty() && !cursor.base_set_id.empty()) {
      if (budget-- == 0) {
        return Status::Corruption("provenance chain too deep resolving spec");
      }
      MMM_ASSIGN_OR_RETURN(cursor, FetchSetDocument(context_, cursor.base_set_id));
    }
    MMM_ASSIGN_OR_RETURN(resolved_spec, ReadSnapshotSpec(context_, cursor));
    spec_hint = &resolved_spec;
  }

  MMM_ASSIGN_OR_RETURN(
      auto models, RecoverModelsInternal(doc.base_set_id, unique_indices,
                                         spec_hint, stats, depth_budget - 1));

  MMM_ASSIGN_OR_RETURN(std::string record_text,
                       CasReadBlobString(context_.file_store, doc.prov_blob));
  MMM_ASSIGN_OR_RETURN(JsonValue record, JsonValue::Parse(record_text));
  MMM_ASSIGN_OR_RETURN(const JsonValue* pipeline_json, record.Get("pipeline"));
  MMM_ASSIGN_OR_RETURN(TrainPipelineSpec pipeline,
                       TrainPipelineSpec::FromJson(*pipeline_json));
  MMM_ASSIGN_OR_RETURN(const JsonValue* partial_json,
                       record.Get("partial_layers"));
  std::vector<std::string> partial_layers;
  for (const JsonValue& layer : partial_json->array_items()) {
    MMM_ASSIGN_OR_RETURN(std::string name, layer.AsString());
    partial_layers.push_back(std::move(name));
  }
  MMM_ASSIGN_OR_RETURN(const JsonValue* updates, record.Get("updates"));

  for (const JsonValue& entry : updates->array_items()) {
    MMM_ASSIGN_OR_RETURN(int64_t index_value, entry.GetInt64("index"));
    auto index = static_cast<size_t>(index_value);
    auto it = models.find(index);
    if (it == models.end()) continue;  // not a requested model
    MMM_ASSIGN_OR_RETURN(std::string kind_name, entry.GetString("kind"));
    MMM_ASSIGN_OR_RETURN(UpdateKind kind, UpdateKindFromName(kind_name));
    MMM_ASSIGN_OR_RETURN(const JsonValue* ref_json, entry.Get("data_ref"));
    MMM_ASSIGN_OR_RETURN(DatasetRef data_ref, DatasetRef::FromJson(*ref_json));

    MMM_ASSIGN_OR_RETURN(Model model, Model::Create(*spec_hint));
    MMM_RETURN_NOT_OK(model.LoadStateDict(it->second));
    TrainPipelineSpec model_pipeline = pipeline;
    model_pipeline.train_config.trainable_layers =
        kind == UpdateKind::kPartial ? partial_layers
                                     : std::vector<std::string>{};
    // Selective recovery is always exact: no replay caps.
    MMM_RETURN_NOT_OK(
        replay_.ReplayUpdate(&model, model_pipeline, data_ref, /*max_samples=*/0));
    it->second = model.GetStateDict();
    if (stats != nullptr) stats->models_retrained += 1;
  }
  return models;
}

Result<ModelSet> ProvenanceApproach::RecoverChain(const std::string& set_id,
                                                  RecoverStats* stats,
                                                  uint64_t depth_budget) {
  if (depth_budget == 0) {
    return Status::Corruption("provenance recovery chain too deep (cycle?) at ",
                              set_id);
  }
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context_, set_id));
  if (doc.approach != Name()) {
    return Status::InvalidArgument("set ", set_id, " was saved by '",
                                   doc.approach, "', not provenance");
  }
  if (stats != nullptr) stats->sets_recovered += 1;

  if (doc.kind == "full") {
    return ReadFullSnapshot(context_, doc);
  }
  if (doc.kind != "prov") {
    return Status::Corruption("set ", set_id, " has unexpected kind '", doc.kind,
                              "'");
  }

  // Recursive recovery: materialize the base set, then re-train every
  // updated model on its referenced data (§3.4).
  MMM_ASSIGN_OR_RETURN(
      ModelSet set, RecoverChain(doc.base_set_id, stats, depth_budget - 1));
  MMM_ASSIGN_OR_RETURN(std::string record_text,
                       CasReadBlobString(context_.file_store, doc.prov_blob));
  MMM_ASSIGN_OR_RETURN(JsonValue record, JsonValue::Parse(record_text));
  MMM_ASSIGN_OR_RETURN(const JsonValue* pipeline_json, record.Get("pipeline"));
  MMM_ASSIGN_OR_RETURN(TrainPipelineSpec pipeline,
                       TrainPipelineSpec::FromJson(*pipeline_json));
  MMM_ASSIGN_OR_RETURN(const JsonValue* partial_json,
                       record.Get("partial_layers"));
  std::vector<std::string> partial_layers;
  for (const JsonValue& layer : partial_json->array_items()) {
    MMM_ASSIGN_OR_RETURN(std::string name, layer.AsString());
    partial_layers.push_back(std::move(name));
  }
  MMM_ASSIGN_OR_RETURN(const JsonValue* updates, record.Get("updates"));

  size_t replayed = 0;
  for (const JsonValue& entry : updates->array_items()) {
    if (recover_options_.max_replay_models > 0 &&
        replayed >= recover_options_.max_replay_models) {
      break;  // measurement protocol: remaining models keep base parameters
    }
    MMM_ASSIGN_OR_RETURN(int64_t index_value, entry.GetInt64("index"));
    auto index = static_cast<size_t>(index_value);
    if (index >= set.models.size()) {
      return Status::Corruption("provenance update references model ", index);
    }
    MMM_ASSIGN_OR_RETURN(std::string kind_name, entry.GetString("kind"));
    MMM_ASSIGN_OR_RETURN(UpdateKind kind, UpdateKindFromName(kind_name));
    MMM_ASSIGN_OR_RETURN(const JsonValue* ref_json, entry.Get("data_ref"));
    MMM_ASSIGN_OR_RETURN(DatasetRef data_ref, DatasetRef::FromJson(*ref_json));

    MMM_ASSIGN_OR_RETURN(Model model, Model::Create(set.spec));
    MMM_RETURN_NOT_OK(model.LoadStateDict(set.models[index]));
    TrainPipelineSpec model_pipeline = pipeline;
    model_pipeline.train_config.trainable_layers =
        kind == UpdateKind::kPartial ? partial_layers
                                     : std::vector<std::string>{};
    MMM_RETURN_NOT_OK(replay_.ReplayUpdate(&model, model_pipeline, data_ref,
                                           recover_options_.max_replay_samples));
    set.models[index] = model.GetStateDict();
    if (stats != nullptr) stats->models_retrained += 1;
    ++replayed;
  }
  return set;
}

}  // namespace mmm
