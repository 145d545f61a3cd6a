// Chain-compactor coverage: bit-exactness of every approach across the
// rebase, the depth bound itself (checked against the ground-truth
// InspectChain walk, not the rewritten metadata), the policy gates, GC
// coordination, and the chain_depth-derived recovery budget's behavior on a
// store whose base pointers were corrupted into a cycle.

#include "core/compactor.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/gc.h"
#include "core/inspect.h"
#include "core/manager.h"
#include "core/set_codec.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using testing::TempDir;

class CompactorTest : public ::testing::TestWithParam<size_t> {
 protected:
  CompactorTest() : temp_("compactor") {
    ScenarioConfig config = ScenarioConfig::Battery(6);
    config.full_update_fraction = 0.5;
    config.partial_update_fraction = 0.25;
    config.samples_per_dataset = 32;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    scenario_->Init().Check();
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    options.pipeline.lanes = GetParam();
    manager_ = ModelSetManager::Open(options).ValueOrDie();
  }

  /// Saves an initial set plus `cycles` derived sets, returning every id and
  /// recording the scenario state each save captured (for bit-exactness).
  std::vector<std::string> BuildChain(ApproachType type, int cycles) {
    std::vector<std::string> ids;
    std::string id =
        manager_->SaveInitial(type, scenario_->current_set()).ValueOrDie().set_id;
    states_[id] = scenario_->current_set();
    ids.push_back(id);
    for (int i = 0; i < cycles; ++i) {
      ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
      update.base_set_id = ids.back();
      id = manager_->SaveDerived(type, scenario_->current_set(), update)
               .ValueOrDie()
               .set_id;
      states_[id] = scenario_->current_set();
      ids.push_back(id);
    }
    return ids;
  }

  void ExpectBitExact(const std::string& id) {
    ASSERT_OK_AND_ASSIGN(ModelSet recovered, manager_->Recover(id));
    const ModelSet& expected = states_.at(id);
    ASSERT_EQ(recovered.models.size(), expected.models.size()) << id;
    for (size_t m = 0; m < recovered.models.size(); ++m) {
      ASSERT_EQ(recovered.models[m].size(), expected.models[m].size()) << id;
      for (size_t p = 0; p < recovered.models[m].size(); ++p) {
        ASSERT_TRUE(recovered.models[m][p].second.Equals(
            expected.models[m][p].second))
            << id << " model " << m << " param "
            << recovered.models[m][p].first;
      }
    }
  }

  /// Every chain within `max_depth`, recorded depths truthful, store valid,
  /// no orphan blobs — the full post-compaction contract.
  void ExpectCompactedStore(uint64_t max_depth) {
    ASSERT_OK_AND_ASSIGN(std::vector<SetSummary> sets,
                         manager_->ListSets());
    for (const SetSummary& s : sets) {
      ASSERT_OK_AND_ASSIGN(ChainInspection chain,
                           InspectChain(manager_->context(), s.id));
      EXPECT_LE(chain.depth, max_depth) << s.id;
      EXPECT_TRUE(chain.depth_matches())
          << s.id << ": walked " << chain.depth << ", recorded "
          << chain.recorded_depth;
    }
    ASSERT_OK_AND_ASSIGN(StoreValidationReport health,
                         ValidateStore(manager_->context()));
    EXPECT_TRUE(health.ok())
        << (health.problems.empty() ? "" : health.problems.front());
    ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                         FindOrphanBlobs(manager_->context()));
    EXPECT_TRUE(orphans.clean())
        << (orphans.clean() ? "" : orphans.orphan_blobs.front());
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  std::map<std::string, ModelSet> states_;
};

TEST_P(CompactorTest, UpdateChainIsReboundAndBitExact) {
  std::vector<std::string> ids = BuildChain(ApproachType::kUpdate, 7);
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  ASSERT_OK_AND_ASSIGN(CompactionReport report,
                       manager_->CompactChains(policy));
  // Depths 0..7 with a bound of 2 rebase at depths 3 and 6.
  EXPECT_EQ(report.sets_rebased, 2u);
  EXPECT_EQ(report.rebased_set_ids.size(), 2u);
  EXPECT_EQ(report.rebased_set_ids[0], ids[3]);
  EXPECT_EQ(report.rebased_set_ids[1], ids[6]);
  // Each rebase rewrites itself plus the descendants down to the next one.
  EXPECT_EQ(report.docs_rewritten, 3u + 2u);
  EXPECT_GT(report.bytes_written, 0u);
  EXPECT_GT(report.bytes_reclaimed, 0u);
  EXPECT_TRUE(report.skipped.empty());
  ExpectCompactedStore(2);
  for (const std::string& id : ids) ExpectBitExact(id);
  // The rebase points are now full snapshots under their original ids.
  ASSERT_OK_AND_ASSIGN(SetDocument rebased,
                       FetchSetDocument(manager_->context(), ids[3]));
  EXPECT_EQ(rebased.kind, "full");
  EXPECT_EQ(rebased.chain_depth, 0u);
  EXPECT_TRUE(rebased.diff_blob.empty());
  EXPECT_EQ(rebased.base_set_id, ids[2]);  // lineage preserved
}

TEST_P(CompactorTest, ProvenanceChainIsReboundAndBitExact) {
  std::vector<std::string> ids = BuildChain(ApproachType::kProvenance, 5);
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  ASSERT_OK_AND_ASSIGN(CompactionReport report,
                       manager_->CompactChains(policy));
  EXPECT_EQ(report.sets_rebased, 1u);
  EXPECT_EQ(report.rebased_set_ids[0], ids[3]);
  ExpectCompactedStore(2);
  for (const std::string& id : ids) ExpectBitExact(id);
  ASSERT_OK_AND_ASSIGN(SetDocument rebased,
                       FetchSetDocument(manager_->context(), ids[3]));
  EXPECT_EQ(rebased.kind, "full");
  EXPECT_TRUE(rebased.prov_blob.empty());
}

TEST_P(CompactorTest, FullSnapshotApproachesAreNoOps) {
  BuildChain(ApproachType::kBaseline, 2);
  BuildChain(ApproachType::kMMlibBase, 1);
  CompactionPolicy policy;
  policy.max_chain_depth = 1;
  ASSERT_OK_AND_ASSIGN(CompactionReport report,
                       manager_->CompactChains(policy));
  // Every baseline/MMlib set is its own full snapshot — nothing to rebase,
  // but each one roots a (trivial) chain.
  EXPECT_EQ(report.sets_rebased, 0u);
  EXPECT_EQ(report.docs_rewritten, 0u);
  EXPECT_EQ(report.chains_scanned, 5u);
  ExpectCompactedStore(0);
  for (const auto& [id, unused] : states_) ExpectBitExact(id);
}

TEST_P(CompactorTest, CompactionIsIdempotent) {
  BuildChain(ApproachType::kUpdate, 6);
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  ASSERT_OK(manager_->CompactChains(policy).status());
  ASSERT_OK_AND_ASSIGN(CompactionReport second,
                       manager_->CompactChains(policy));
  EXPECT_EQ(second.sets_rebased, 0u);
  EXPECT_EQ(second.docs_rewritten, 0u);
  EXPECT_EQ(second.bytes_written, 0u);
}

TEST_P(CompactorTest, DryRunPlansWithoutWriting) {
  std::vector<std::string> ids = BuildChain(ApproachType::kUpdate, 5);
  ASSERT_OK_AND_ASSIGN(std::vector<SetSummary> before, manager_->ListSets());
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  policy.dry_run = true;
  ASSERT_OK_AND_ASSIGN(CompactionReport report,
                       manager_->CompactChains(policy));
  EXPECT_EQ(report.sets_rebased, 1u);
  EXPECT_EQ(report.rebased_set_ids[0], ids[3]);
  EXPECT_EQ(report.docs_rewritten, 3u);
  EXPECT_EQ(report.bytes_written, 0u);
  EXPECT_GT(report.bytes_reclaimed, 0u);  // planned, not executed
  // The store is untouched: same kinds, same depths, same artifact bytes.
  ASSERT_OK_AND_ASSIGN(std::vector<SetSummary> after, manager_->ListSets());
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].kind, before[i].kind);
    EXPECT_EQ(after[i].chain_depth, before[i].chain_depth);
    EXPECT_EQ(after[i].artifact_bytes, before[i].artifact_bytes);
  }
}

TEST_P(CompactorTest, ByteGateSkipsUnprofitableRebases) {
  std::vector<std::string> ids = BuildChain(ApproachType::kUpdate, 4);
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  policy.min_bytes_reclaimed = 1ull << 40;  // nothing reclaims a terabyte
  ASSERT_OK_AND_ASSIGN(CompactionReport report,
                       manager_->CompactChains(policy));
  EXPECT_EQ(report.sets_rebased, 0u);
  ASSERT_EQ(report.skipped.size(), 1u);
  EXPECT_NE(report.skipped[0].find(ids[3]), std::string::npos);
  // Skipping leaves the chain long but the store fully consistent.
  ExpectCompactedStore(4);
  for (const std::string& id : ids) ExpectBitExact(id);
}

TEST_P(CompactorTest, SupersededDeltaBlobIsRetired) {
  std::vector<std::string> ids = BuildChain(ApproachType::kUpdate, 3);
  ASSERT_OK_AND_ASSIGN(SetDocument before,
                       FetchSetDocument(manager_->context(), ids[3]));
  ASSERT_FALSE(before.diff_blob.empty());
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  ASSERT_OK(manager_->CompactChains(policy).status());
  // The rebase's old diff blob is gone from the file store — handed to the
  // journal's post-commit deletes, not left for a GC sweep.
  EXPECT_FALSE(
      manager_->file_store()->Exists(before.diff_blob).ValueOr(true));
  ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                       FindOrphanBlobs(manager_->context()));
  EXPECT_TRUE(orphans.clean());
}

TEST_P(CompactorTest, GcComposesWithCompaction) {
  std::vector<std::string> ids = BuildChain(ApproachType::kUpdate, 6);
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  ASSERT_OK(manager_->CompactChains(policy).status());
  // The compacted store obeys the usual GC rules: a rebased set is a real
  // full snapshot, so everything above it can be retired while it survives.
  ASSERT_OK_AND_ASSIGN(DeleteReport report,
                       RetainOnly(manager_->context(), {ids[3]}));
  EXPECT_GT(report.sets_deleted, 0u);
  ExpectBitExact(ids[3]);
  ASSERT_OK_AND_ASSIGN(StoreValidationReport health,
                       ValidateStore(manager_->context()));
  EXPECT_TRUE(health.ok());
  ASSERT_OK_AND_ASSIGN(OrphanReport orphans,
                       FindOrphanBlobs(manager_->context()));
  EXPECT_TRUE(orphans.clean());
}

TEST_P(CompactorTest, AutoCompactionBoundsChainsAsTheyGrow) {
  // Reopen with the opportunistic policy armed and grow a chain well past
  // the bound: no chain may ever exceed it, and every version stays
  // bit-exact.
  manager_.reset();
  ModelSetManager::Options options;
  options.root_dir = temp_.path() + "/store";
  options.resolver = scenario_.get();
  options.pipeline.lanes = GetParam();
  CompactionPolicy policy;
  policy.max_chain_depth = 2;
  options.auto_compaction = policy;
  manager_ = ModelSetManager::Open(options).ValueOrDie();

  std::vector<std::string> ids = BuildChain(ApproachType::kUpdate, 8);
  ExpectCompactedStore(2);
  for (const std::string& id : ids) ExpectBitExact(id);
}

TEST_P(CompactorTest, CompactionSurvivesReopen) {
  std::vector<std::string> ids = BuildChain(ApproachType::kUpdate, 5);
  CompactionPolicy policy;
  policy.max_chain_depth = 1;
  ASSERT_OK(manager_->CompactChains(policy).status());
  manager_.reset();
  ModelSetManager::Options options;
  options.root_dir = temp_.path() + "/store";
  options.resolver = scenario_.get();
  options.pipeline.lanes = GetParam();
  manager_ = ModelSetManager::Open(options).ValueOrDie();
  EXPECT_TRUE(manager_->repair_report().clean());
  ExpectCompactedStore(1);
  for (const std::string& id : ids) ExpectBitExact(id);
}

INSTANTIATE_TEST_SUITE_P(Lanes, CompactorTest, ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "lanes" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// The chain_depth-derived recovery budget (the fixed bug: the budget used to
// be sized by the *whole set collection*, so a corrupted base-pointer cycle
// could walk every set of every approach before failing).

class CorruptChainTest : public ::testing::Test {
 protected:
  CorruptChainTest() : temp_("corrupt-chain") {
    ScenarioConfig config = ScenarioConfig::Battery(4);
    config.samples_per_dataset = 32;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    scenario_->Init().Check();
    ModelSetManager::Options options;
    options.root_dir = temp_.path() + "/store";
    options.resolver = scenario_.get();
    manager_ = ModelSetManager::Open(options).ValueOrDie();
  }

  /// Redirects `set_id`'s base pointer to `new_base` behind the manager's
  /// back (simulated metadata corruption).
  void CorruptBasePointer(const std::string& set_id,
                          const std::string& new_base) {
    ASSERT_OK_AND_ASSIGN(SetDocument doc,
                         FetchSetDocument(manager_->context(), set_id));
    doc.base_set_id = new_base;
    ASSERT_OK(manager_->doc_store()->Remove(kSetCollection, set_id));
    ASSERT_OK(manager_->doc_store()->Insert(kSetCollection, doc.ToJson()));
  }

  TempDir temp_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
};

TEST_F(CorruptChainTest, BasePointerCycleFailsCleanlyWithBoundedWalk) {
  // A mixed store: baseline and provenance sets around an update chain, so
  // an unbounded (collection-sized) budget would be much larger than the
  // chain itself.
  ASSERT_OK(
      manager_->SaveInitial(ApproachType::kBaseline, scenario_->current_set())
          .status());
  std::string root =
      manager_->SaveInitial(ApproachType::kUpdate, scenario_->current_set())
          .ValueOrDie()
          .set_id;
  std::vector<std::string> ids{root};
  for (int i = 0; i < 3; ++i) {
    ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
    update.base_set_id = ids.back();
    ids.push_back(manager_
                      ->SaveDerived(ApproachType::kUpdate,
                                    scenario_->current_set(), update)
                      .ValueOrDie()
                      .set_id);
  }
  ASSERT_OK(manager_
                ->SaveInitial(ApproachType::kProvenance,
                              scenario_->current_set())
                .status());

  // Corrupt the chain into a cycle: ids[1] -> ids[3] -> ids[2] -> ids[1].
  CorruptBasePointer(ids[1], ids[3]);

  RecoverStats stats;
  Status st = manager_->Recover(ids[3], &stats).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("too deep"), std::string::npos)
      << st.ToString();
  // The walk was budgeted by the target's recorded depth (3 hops + itself),
  // not by the 6-document collection: it gave up after materializing at
  // most chain_depth + 1 sets.
  EXPECT_LE(stats.sets_recovered, 4u);

  // Selective recovery takes the same budget.
  EXPECT_TRUE(manager_->RecoverModels(ids[3], {0}).status().IsCorruption());

  // The cached read path, too.
  ASSERT_OK_AND_ASSIGN(SetDocument doc,
                       FetchSetDocument(manager_->context(), ids[3]));
  CacheRequestStats cache_stats;
  EXPECT_TRUE(manager_->update_approach()
                  ->RecoverCached(doc, nullptr, nullptr, &cache_stats)
                  .status()
                  .IsCorruption());
}

TEST_F(CorruptChainTest, ProvenanceCycleFailsWithinChainDepthDocumentReads) {
  // A mixed store again, this time around a provenance chain: the budget
  // is the target's recorded chain_depth, not the collection size.
  ASSERT_OK(
      manager_->SaveInitial(ApproachType::kBaseline, scenario_->current_set())
          .status());
  std::vector<std::string> update_ids{
      manager_->SaveInitial(ApproachType::kUpdate, scenario_->current_set())
          .ValueOrDie()
          .set_id};
  std::vector<std::string> ids{
      manager_
          ->SaveInitial(ApproachType::kProvenance, scenario_->current_set())
          .ValueOrDie()
          .set_id};
  for (int i = 0; i < 3; ++i) {
    ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
    for (auto [type, chain] : {std::pair{ApproachType::kUpdate, &update_ids},
                               std::pair{ApproachType::kProvenance, &ids}}) {
      ModelSetUpdateInfo derived = update;
      derived.base_set_id = chain->back();
      chain->push_back(manager_->SaveDerived(type, scenario_->current_set(),
                                             derived)
                           .ValueOrDie()
                           .set_id);
    }
  }

  // ids[1] -> ids[3] -> ids[2] -> ids[1]; ids[3] records chain_depth 3.
  CorruptBasePointer(ids[1], ids[3]);

  const uint64_t chain_depth = 3;
  uint64_t before = manager_->doc_store()->stats().read_ops;
  Status st = manager_->Recover(ids[3]).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("too deep"), std::string::npos)
      << st.ToString();
  EXPECT_LE(manager_->doc_store()->stats().read_ops - before, chain_depth + 1);

  before = manager_->doc_store()->stats().read_ops;
  st = manager_->RecoverModels(ids[3], {0}).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_LE(manager_->doc_store()->stats().read_ops - before, chain_depth + 1);
}

TEST_F(CorruptChainTest, SelfCycleFailsImmediately) {
  std::string root =
      manager_->SaveInitial(ApproachType::kUpdate, scenario_->current_set())
          .ValueOrDie()
          .set_id;
  ModelSetUpdateInfo update = scenario_->AdvanceCycle().ValueOrDie();
  update.base_set_id = root;
  std::string derived = manager_
                            ->SaveDerived(ApproachType::kUpdate,
                                          scenario_->current_set(), update)
                            .ValueOrDie()
                            .set_id;
  CorruptBasePointer(derived, derived);
  RecoverStats stats;
  Status st = manager_->Recover(derived, &stats).status();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_LE(stats.sets_recovered, 2u);
}

}  // namespace
}  // namespace mmm
