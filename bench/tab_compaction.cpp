// Chain-compaction benchmark: time-to-recover and bytes reclaimed as a
// function of the compactor's max_chain_depth bound.
//
// A battery deployment is saved with the Update approach — one full base set,
// then one delta per update cycle, with no snapshot interval, so the chain
// grows as deep as the version history. Each row re-grows that store, runs
// CompactChains at one depth bound, and then recovers *every* version,
// reporting the modeled store cost of the newest (deepest) version, the mean
// across versions, the longest recovery walk, and what the pass wrote and
// reclaimed. The uncompacted store is the control row.
//
// Expected shape: without compaction, TTR climbs linearly with the version
// index (the paper's §2.2 staircase — the newest version is the most
// expensive one). Any finite bound caps the walk at max_chain_depth + 1
// sets, so TTR stays flat no matter how long the history grows; tighter
// bounds trade more full-snapshot bytes written for flatter recoveries and
// more delta bytes retired.
//
// Results are also written to BENCH_compaction.json.
//
// Knobs: MMM_MODELS (default 100), MMM_SAMPLES (64), MMM_U3_ITERATIONS (12).

#include <limits>

#include "bench/bench_util.h"
#include "core/compactor.h"
#include "core/gc.h"
#include "core/inspect.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

namespace {

constexpr uint64_t kNoCompaction = std::numeric_limits<uint64_t>::max();

struct RowResult {
  uint64_t max_depth = kNoCompaction;
  CompactionReport compaction;
  double newest_ttr_s = 0.0;   ///< modeled TTR of the deepest version
  double mean_ttr_s = 0.0;     ///< mean modeled TTR across all versions
  uint64_t max_walk = 0;       ///< longest recovery chain walk (sets)
  std::vector<double> ttr_s;   ///< per-version modeled TTR, oldest first
};

}  // namespace

int main() {
  BenchKnobs knobs = BenchKnobs::FromEnv(/*default_models=*/100,
                                         /*default_runs=*/1);
  knobs.samples = static_cast<size_t>(GetEnvInt64("MMM_SAMPLES", 64));
  knobs.u3_iterations =
      static_cast<size_t>(GetEnvInt64("MMM_U3_ITERATIONS", 12));
  knobs.Describe("tab_compaction");

  const uint64_t depths[] = {kNoCompaction, 8, 4, 2, 1};

  std::vector<RowResult> rows;
  for (uint64_t max_depth : depths) {
    // Re-grow the identical version history in a fresh store (the scenario
    // is seeded, so every row archives bit-identical fleets).
    ScenarioConfig scenario_config = ScenarioConfig::Battery(knobs.models);
    scenario_config.samples_per_dataset = knobs.samples;
    MultiModelScenario scenario(scenario_config);
    scenario.Init().Check();

    ModelSetManager::Options options;
    options.root_dir = "/tmp/mmm-bench-compaction/store";
    options.resolver = &scenario;
    options.profile = SetupProfile::Server();
    auto manager = ModelSetManager::Open(options).ValueOrDie();

    std::vector<std::string> ids;
    ids.push_back(
        manager->SaveInitial(ApproachType::kUpdate, scenario.current_set())
            .ValueOrDie()
            .set_id);
    for (size_t cycle = 0; cycle < knobs.u3_iterations; ++cycle) {
      ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
      update.base_set_id = ids.back();
      ids.push_back(manager
                        ->SaveDerived(ApproachType::kUpdate,
                                      scenario.current_set(), update)
                        .ValueOrDie()
                        .set_id);
    }

    RowResult row;
    row.max_depth = max_depth;
    if (max_depth != kNoCompaction) {
      CompactionPolicy policy;
      policy.max_chain_depth = max_depth;
      row.compaction = manager->CompactChains(policy).ValueOrDie();
      // Compaction must leave the store fsck-clean.
      StoreValidationReport health =
          manager->ValidateStore().ValueOrDie();
      if (!health.ok()) Status::Internal(health.problems.front()).Check();
      OrphanReport orphans =
          FindOrphanBlobs(manager->context()).ValueOrDie();
      if (!orphans.clean()) {
        Status::Internal("orphan blob ", orphans.orphan_blobs.front()).Check();
      }
    }

    for (const std::string& id : ids) {
      RecoverStats stats;
      manager->Recover(id, &stats).status().Check();
      row.ttr_s.push_back(stats.simulated_store_nanos / 1e9);
      row.mean_ttr_s += row.ttr_s.back();
      row.max_walk = std::max(row.max_walk, stats.sets_recovered);
    }
    row.newest_ttr_s = row.ttr_s.back();
    row.mean_ttr_s /= static_cast<double>(ids.size());
    rows.push_back(std::move(row));
    manager.reset();
    Env::Default()->RemoveDirs("/tmp/mmm-bench-compaction").Check();
  }

  std::printf(
      "\nUpdate approach, %zu models, %zu versions, modeled server store:\n",
      knobs.models, knobs.u3_iterations + 1);
  std::printf("%-10s | %8s | %10s | %10s | %9s | %12s | %12s\n", "max depth",
              "rebases", "newest TTR", "mean TTR", "max walk", "written MB",
              "reclaimed MB");
  JsonValue out_rows = JsonValue::Array();
  for (const RowResult& row : rows) {
    std::string label = row.max_depth == kNoCompaction
                            ? "none"
                            : std::to_string(row.max_depth);
    std::printf("%-10s | %8zu | %9.3fs | %9.3fs | %9llu | %12s | %12s\n",
                label.c_str(), row.compaction.sets_rebased, row.newest_ttr_s,
                row.mean_ttr_s, static_cast<unsigned long long>(row.max_walk),
                Mb(row.compaction.bytes_written).c_str(),
                Mb(row.compaction.bytes_reclaimed).c_str());

    JsonValue entry = JsonValue::Object();
    entry.Set("max_chain_depth",
              row.max_depth == kNoCompaction ? JsonValue()
                                             : JsonValue(row.max_depth));
    entry.Set("sets_rebased",
              static_cast<uint64_t>(row.compaction.sets_rebased));
    entry.Set("docs_rewritten",
              static_cast<uint64_t>(row.compaction.docs_rewritten));
    entry.Set("bytes_written", row.compaction.bytes_written);
    entry.Set("bytes_reclaimed", row.compaction.bytes_reclaimed);
    entry.Set("newest_ttr_seconds", row.newest_ttr_s);
    entry.Set("mean_ttr_seconds", row.mean_ttr_s);
    entry.Set("max_recovery_walk_sets", row.max_walk);
    JsonValue ttrs = JsonValue::Array();
    for (double t : row.ttr_s) ttrs.Append(t);
    entry.Set("ttr_seconds_by_version", std::move(ttrs));
    out_rows.Append(std::move(entry));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "tab_compaction");
  doc.Set("models", static_cast<uint64_t>(knobs.models));
  doc.Set("versions", static_cast<uint64_t>(knobs.u3_iterations + 1));
  doc.Set("rows", std::move(out_rows));
  WriteBenchJson("BENCH_compaction.json", doc);
  std::printf(
      "(Expected: the 'none' row's TTR climbs with the version index; every "
      "bounded row walks\n at most max_chain_depth + 1 sets, so its TTR "
      "stays flat as the history grows.)\n");
  return 0;
}
