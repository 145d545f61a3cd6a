#include <gtest/gtest.h>

#include <atomic>

#include "core/manager.h"
#include "storage/env.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

// Fixture: a 40-model battery scenario advanced two cycles and saved with
// every approach, so selective recovery can be checked against the live set.
class SelectiveRecoveryTest : public ::testing::Test {
 protected:
  SelectiveRecoveryTest() : temp_("selective") {
    ScenarioConfig config = ScenarioConfig::Battery(40);
    config.samples_per_dataset = 48;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    scenario_->Init().Check();
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    manager_ = ModelSetManager::Open(options).ValueOrDie();
  }

  void SaveChains(int cycles) {
    for (ApproachType type : kAllApproaches) {
      heads_[type] = manager_->SaveInitial(type, scenario_->current_set())
                         .ValueOrDie()
                         .set_id;
    }
    for (int i = 0; i < cycles; ++i) {
      ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
      for (ApproachType type : kAllApproaches) {
        ModelSetUpdateInfo derived = update;
        derived.base_set_id = heads_[type];
        heads_[type] = manager_
                           ->SaveDerived(type, scenario_->current_set(), derived)
                           .ValueOrDie()
                           .set_id;
      }
    }
  }

  void ExpectMatchesLive(const std::vector<StateDict>& recovered,
                         const std::vector<size_t>& indices) {
    ASSERT_EQ(recovered.size(), indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
      const StateDict& expected = scenario_->current_set().models[indices[i]];
      ASSERT_EQ(recovered[i].size(), expected.size());
      for (size_t p = 0; p < expected.size(); ++p) {
        EXPECT_EQ(recovered[i][p].first, expected[p].first);
        EXPECT_TRUE(recovered[i][p].second.Equals(expected[p].second))
            << "model " << indices[i] << " param " << expected[p].first;
      }
    }
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  std::map<ApproachType, std::string> heads_;
};

class SelectiveRecoverySweep
    : public SelectiveRecoveryTest,
      public ::testing::WithParamInterface<ApproachType> {};

TEST_P(SelectiveRecoverySweep, SubsetMatchesFullRecovery) {
  SaveChains(2);
  std::vector<size_t> indices{3, 17, 39, 0};
  ASSERT_OK_AND_ASSIGN(
      std::vector<StateDict> recovered,
      manager_->RecoverModels(heads_[GetParam()], indices));
  ExpectMatchesLive(recovered, indices);
}

TEST_P(SelectiveRecoverySweep, SingleModelFromInitialSet) {
  SaveChains(0);
  std::vector<size_t> indices{11};
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager_->RecoverModels(heads_[GetParam()], indices));
  ExpectMatchesLive(recovered, indices);
}

TEST_P(SelectiveRecoverySweep, DuplicatesAndOrderPreserved) {
  SaveChains(1);
  std::vector<size_t> indices{5, 5, 2, 5};
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager_->RecoverModels(heads_[GetParam()], indices));
  ExpectMatchesLive(recovered, indices);
  EXPECT_TRUE(recovered[0][0].second.Equals(recovered[3][0].second));
}

TEST_P(SelectiveRecoverySweep, OutOfRangeIndexFails) {
  SaveChains(0);
  EXPECT_TRUE(manager_->RecoverModels(heads_[GetParam()], {40})
                  .status()
                  .IsInvalidArgument());
}

TEST_P(SelectiveRecoverySweep, EmptyIndexListYieldsEmptyResult) {
  SaveChains(0);
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager_->RecoverModels(heads_[GetParam()], {}));
  EXPECT_TRUE(recovered.empty());
}

INSTANTIATE_TEST_SUITE_P(AllApproaches, SelectiveRecoverySweep,
                         ::testing::Values(ApproachType::kMMlibBase,
                                           ApproachType::kBaseline,
                                           ApproachType::kUpdate,
                                           ApproachType::kProvenance),
                         [](const auto& info) {
                           std::string name = ApproachTypeName(info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

TEST_F(SelectiveRecoveryTest, BaselineSelectiveReadsFarFewerBytes) {
  SaveChains(0);
  manager_->file_store()->ResetStats();
  manager_->RecoverModels(heads_[ApproachType::kBaseline], {7}).status().Check();
  uint64_t selective_bytes = manager_->file_store()->stats().bytes_read;
  manager_->file_store()->ResetStats();
  manager_->Recover(heads_[ApproachType::kBaseline]).status().Check();
  uint64_t full_bytes = manager_->file_store()->stats().bytes_read;
  // One model out of 40: selective reads ~1/40th of the parameter bytes.
  EXPECT_LT(selective_bytes * 10, full_bytes);
}

TEST_F(SelectiveRecoveryTest, UpdateSelectiveAvoidsFullChainMaterialization) {
  SaveChains(3);
  manager_->file_store()->ResetStats();
  RecoverStats stats;
  manager_->RecoverModels(heads_[ApproachType::kUpdate], {1, 2}, &stats)
      .status()
      .Check();
  uint64_t selective_bytes = manager_->file_store()->stats().bytes_read;
  EXPECT_EQ(stats.sets_recovered, 4u);  // walks the metadata of all 4 sets
  manager_->file_store()->ResetStats();
  manager_->Recover(heads_[ApproachType::kUpdate]).status().Check();
  uint64_t full_bytes = manager_->file_store()->stats().bytes_read;
  EXPECT_LT(selective_bytes, full_bytes / 2);
}

TEST_F(SelectiveRecoveryTest, ProvenanceSelectiveRetrainsOnlyRequestedModels) {
  SaveChains(2);
  // Find a model updated in cycle 1 or 2 and one never updated.
  RecoverStats stats;
  ASSERT_OK_AND_ASSIGN(
      std::vector<StateDict> recovered,
      manager_->RecoverModels(heads_[ApproachType::kProvenance], {0, 1, 2, 3},
                              &stats));
  ASSERT_EQ(recovered.size(), 4u);
  // At most (4 requested) x (2 cycles) retrainings; full recovery would do
  // 8 retrainings (4 updated models per cycle x 2 cycles).
  EXPECT_LE(stats.models_retrained, 8u);
  ExpectMatchesLive(recovered, {0, 1, 2, 3});
}

TEST_F(SelectiveRecoveryTest, SelectiveRecoveryFromCompressedStore) {
  TempDir temp("selective-compressed");
  ScenarioConfig config = ScenarioConfig::Battery(10);
  config.samples_per_dataset = 32;
  MultiModelScenario scenario(config);
  scenario.Init().Check();
  ModelSetManager::Options options;
  options.root_dir = temp.path() + "/store";
  options.resolver = &scenario;
  options.blob_compression = Compression::kShuffleLz;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  std::string id = manager
                       ->SaveInitial(ApproachType::kBaseline,
                                     scenario.current_set())
                       .ValueOrDie()
                       .set_id;
  // Compressed blobs force the full-read fallback, which must still work.
  ASSERT_OK_AND_ASSIGN(std::vector<StateDict> recovered,
                       manager->RecoverModels(id, {4}));
  EXPECT_TRUE(
      recovered[0][2].second.Equals(scenario.current_set().models[4][2].second));
}

/// Counts whole and ranged reads of architecture blobs.
class ArchReadCountingEnv : public InMemoryEnv {
 public:
  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    Count(path);
    return InMemoryEnv::ReadFile(path);
  }
  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    Count(path);
    return InMemoryEnv::ReadFileRange(path, offset, length);
  }
  uint64_t arch_reads() const { return arch_reads_.load(); }
  void ResetCount() { arch_reads_ = 0; }

 private:
  void Count(const std::string& path) {
    if (path.ends_with(".arch.json")) arch_reads_ += 1;
  }
  std::atomic<uint64_t> arch_reads_{0};
};

// A selective recovery reads the root's architecture blob exactly once:
// the chain walk reads it, and the ranged (or, for compressed blobs,
// streamed) parameter read reuses it.
TEST(SelectiveRecoveryReads, OneArchitectureReadPerSelectiveRecovery) {
  for (Compression compression : {Compression::kNone, Compression::kShuffleLz}) {
    SCOPED_TRACE(CompressionName(compression));
    ArchReadCountingEnv env;
    ScenarioConfig config = ScenarioConfig::Battery(8);
    config.samples_per_dataset = 32;
    MultiModelScenario scenario(config);
    ASSERT_OK(scenario.Init());
    ModelSetManager::Options options;
    options.root_dir = "/store";
    options.env = &env;
    options.resolver = &scenario;
    options.blob_compression = compression;
    ASSERT_OK_AND_ASSIGN(auto manager, ModelSetManager::Open(options));
    const ApproachType types[] = {ApproachType::kBaseline,
                                  ApproachType::kUpdate,
                                  ApproachType::kProvenance};
    std::map<ApproachType, std::string> heads;
    for (ApproachType type : types) {
      ASSERT_OK_AND_ASSIGN(SaveResult saved,
                           manager->SaveInitial(type, scenario.current_set()));
      heads[type] = saved.set_id;
    }
    for (int cycle = 0; cycle < 2; ++cycle) {
      ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update, scenario.AdvanceCycle());
      for (ApproachType type : types) {
        ModelSetUpdateInfo derived = update;
        derived.base_set_id = heads[type];
        ASSERT_OK_AND_ASSIGN(
            SaveResult saved,
            manager->SaveDerived(type, scenario.current_set(), derived));
        heads[type] = saved.set_id;
      }
    }
    for (ApproachType type : types) {
      SCOPED_TRACE(ApproachTypeName(type));
      env.ResetCount();
      ASSERT_OK(manager->RecoverModels(heads[type], {1, 3}).status());
      EXPECT_EQ(env.arch_reads(), 1u);
    }
  }
}

}  // namespace
}  // namespace mmm
