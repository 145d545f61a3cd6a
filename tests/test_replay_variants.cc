#include <gtest/gtest.h>

#include <cstddef>
#include <string>

#include "core/manager.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

// Provenance replay must be bit-exact for every optimizer/loss the trainer
// supports, not just the battery scenario's SGD+MSE default.

// Every member is held by value, not as a pointer: gtest names each case
// after the raw bytes of its parameter, so a pointer member would make the
// case names shift whenever the binary's layout changes.
struct ReplayVariant {
  size_t samples_per_dataset;
  char optimizer[8];
  char loss[15];
  bool cifar;
};

std::string VariantName(const ReplayVariant& variant) {
  return std::string(variant.optimizer) + "_" +
         (variant.cifar ? "xent_cifar" : variant.loss);
}

class ReplayVariantSweep : public ::testing::TestWithParam<ReplayVariant> {};

TEST_P(ReplayVariantSweep, ProvenanceReplayIsBitExact) {
  const ReplayVariant& variant = GetParam();
  TempDir temp("replay-variant");

  ScenarioConfig config = variant.cifar ? ScenarioConfig::Cifar(8)
                                        : ScenarioConfig::Battery(8);
  config.full_update_fraction = 0.25;  // 2 models
  config.partial_update_fraction = 0.25;
  config.samples_per_dataset = variant.samples_per_dataset;
  config.batch_size = 4;
  MultiModelScenario scenario(config);
  ASSERT_OK(scenario.Init());

  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.resolver = &scenario;
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(options));

  ASSERT_OK_AND_ASSIGN(
      SaveResult initial,
      manager->SaveInitial(ApproachType::kProvenance, scenario.current_set()));
  ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
  // Swap the pipeline's optimizer/loss: the scenario trained with its
  // default, so retrain the updated models under the variant's pipeline and
  // record that as the provenance.
  update.pipeline.train_config.optimizer = variant.optimizer;
  if (!variant.cifar) {
    update.pipeline.train_config.loss = variant.loss;
  }
  update.pipeline = TrainPipelineSpec::Create(
      update.pipeline.train_config,
      CanonicalPipelineCode(update.pipeline.train_config));
  ModelSet retrained = scenario.current_set();
  for (size_t m = 0; m < update.kinds.size(); ++m) {
    if (update.kinds[m] == UpdateKind::kNone) continue;
    ASSERT_OK_AND_ASSIGN(TrainingData data,
                         scenario.Resolve(update.data_refs[m]));
    ASSERT_OK_AND_ASSIGN(Model model, Model::Create(retrained.spec));
    // Start from the *initial* parameters, exactly as recovery will.
    ASSERT_OK_AND_ASSIGN(ModelSet base, manager->Recover(initial.set_id));
    ASSERT_OK(model.LoadStateDict(base.models[m]));
    TrainConfig train = update.pipeline.train_config;
    if (update.kinds[m] == UpdateKind::kPartial) {
      train.trainable_layers = update.partial_layers;
    }
    ASSERT_OK(TrainModel(&model, data.inputs, data.targets, train).status());
    retrained.models[m] = model.GetStateDict();
  }

  update.base_set_id = initial.set_id;
  ASSERT_OK_AND_ASSIGN(
      SaveResult derived,
      manager->SaveDerived(ApproachType::kProvenance, retrained, update));

  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(ModelSet recovered,
                       manager->Recover(derived.set_id, &stats));
  EXPECT_EQ(stats.models_retrained, 4u);
  for (size_t m = 0; m < recovered.models.size(); ++m) {
    for (size_t p = 0; p < recovered.models[m].size(); ++p) {
      ASSERT_TRUE(recovered.models[m][p].second.Equals(
          retrained.models[m][p].second))
          << VariantName(variant) << " model " << m << " param " << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ReplayVariantSweep,
    ::testing::Values(ReplayVariant{32, "sgd", "mse", false},
                      ReplayVariant{32, "adam", "mse", false},
                      ReplayVariant{8, "sgd", "cross_entropy", true},
                      ReplayVariant{8, "adam", "cross_entropy", true}),
    [](const auto& info) { return VariantName(info.param); });

// Selective recovery across a mid-chain snapshot: the walk must stop at the
// nearest full snapshot, not at U1.
TEST(SelectiveSnapshotTest, StopsAtNearestSnapshot) {
  TempDir temp("selective-snapshot");
  ScenarioConfig config = ScenarioConfig::Battery(20);
  config.samples_per_dataset = 32;
  MultiModelScenario scenario(config);
  ASSERT_OK(scenario.Init());

  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.resolver = &scenario;
  options.update_options.snapshot_interval = 2;  // snapshot every 2 deltas
  ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(options));

  std::string head =
      manager->SaveInitial(ApproachType::kUpdate, scenario.current_set())
          .ValueOrDie()
          .set_id;
  for (int cycle = 0; cycle < 5; ++cycle) {
    ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
    update.base_set_id = head;
    head = manager
               ->SaveDerived(ApproachType::kUpdate, scenario.current_set(),
                             update)
               .ValueOrDie()
               .set_id;
  }

  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager->RecoverModels(head, {3, 14}, &stats));
  // With snapshots every 2 deltas the chain above the head is at most
  // (1 delta + 1 snapshot) or (snapshot directly).
  EXPECT_LE(stats.sets_recovered, 2u);
  for (size_t i : {size_t{0}, size_t{1}}) {
    size_t model = i == 0 ? 3 : 14;
    for (size_t p = 0; p < recovered[i].size(); ++p) {
      ASSERT_TRUE(recovered[i][p].second.Equals(
          scenario.current_set().models[model][p].second))
          << "model " << model << " param " << p;
    }
  }
}

}  // namespace
}  // namespace mmm
