// Content-addressed chunk store benchmark: storage reduction and save /
// recover cost of cross-set dedup (src/cas/) on a derived fleet.
//
// A battery deployment is archived as a 100-set version fleet with the
// Baseline approach — every save a full snapshot, the paper's §2.2 storage
// staircase and the workload CAS targets: consecutive sets share almost all
// of their parameter bytes (default update rate: 5% full + 5% partial
// retrains per cycle), but without dedup each snapshot pays for all of them
// again. Each row re-archives the identical fleet (the scenario is seeded)
// into a fresh store under one chunking configuration and reports:
//
//   - physical store bytes (every artifact blob, chunks included) and the
//     reduction vs the CAS-off control row;
//   - the chunk index's own accounting: unique chunks, manifest logical
//     bytes, dedup ratio (logical / stored);
//   - total save wall time and full-fleet recover wall time, so the dedup
//     win is priced against the chunking cost.
//
// Expected shape: CAS-off pays ~100x one snapshot's bytes. Chunked rows
// collapse that to roughly one snapshot plus the per-cycle deltas — well
// over the 2x acceptance floor — with smaller average chunks trading index
// size and save time for a finer dedup grain. The fixed-size row is
// competitive *on this fleet* because every model has a fixed byte size, so
// unchanged models sit at stable offsets and fixed blocks stay aligned;
// content-defined chunking is the general-purpose default because a single
// size change would re-align every later fixed block, while the Gear
// boundaries resynchronize within one chunk.
//
// Results are also written to BENCH_dedup.json.
//
// Knobs: MMM_SETS (default 100), MMM_MODELS (default 20), MMM_SAMPLES (32).

#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cas/cas_store.h"
#include "common/clock.h"
#include "core/gc.h"
#include "core/inspect.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

namespace {

struct ChunkRow {
  std::string label;
  CasOptions cas;  ///< enabled=false for the control row
};

struct RowResult {
  std::string label;
  double save_s = 0.0;      ///< wall time of the 100 saves
  double recover_s = 0.0;   ///< wall time of recovering every set
  uint64_t store_bytes = 0; ///< physical bytes of every artifact blob
  CasStore::Stats stats;    ///< zero-valued for the control row
};

CasOptions Chunked(uint64_t avg, bool fixed_size) {
  CasOptions cas;
  cas.enabled = true;
  cas.avg_chunk_bytes = avg;
  cas.min_chunk_bytes = avg / 4;
  cas.max_chunk_bytes = avg * 8;
  cas.fixed_size = fixed_size;
  return cas;
}

}  // namespace

int main() {
  BenchKnobs knobs = BenchKnobs::FromEnv(/*default_models=*/20,
                                         /*default_runs=*/1);
  knobs.samples = static_cast<size_t>(GetEnvInt64("MMM_SAMPLES", 32));
  size_t sets = static_cast<size_t>(GetEnvInt64("MMM_SETS", 100));
  knobs.Describe("tab_dedup");
  std::printf("  (fleet size: %zu full snapshots; override with MMM_SETS)\n",
              sets);

  const ChunkRow rows_in[] = {
      {"cas off", CasOptions{}},
      {"cdc 4K", Chunked(4096, /*fixed_size=*/false)},
      {"cdc 8K", Chunked(8192, /*fixed_size=*/false)},
      {"cdc 16K", Chunked(16384, /*fixed_size=*/false)},
      {"fixed 8K", Chunked(8192, /*fixed_size=*/true)},
  };

  std::vector<RowResult> rows;
  for (const ChunkRow& in : rows_in) {
    // Re-archive the identical version fleet (seeded scenario) fresh.
    ScenarioConfig scenario_config = ScenarioConfig::Battery(knobs.models);
    scenario_config.samples_per_dataset = knobs.samples;
    MultiModelScenario scenario(scenario_config);
    scenario.Init().Check();

    ModelSetManager::Options options;
    options.root_dir = "/tmp/mmm-bench-dedup/store";
    options.resolver = &scenario;
    options.cas = in.cas;
    auto manager = ModelSetManager::Open(options).ValueOrDie();

    RowResult row;
    row.label = in.label;

    StopWatch save_watch;
    std::vector<std::string> ids;
    ids.push_back(
        manager->SaveInitial(ApproachType::kBaseline, scenario.current_set())
            .ValueOrDie()
            .set_id);
    for (size_t version = 1; version < sets; ++version) {
      ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
      update.base_set_id = ids.back();
      ids.push_back(manager
                        ->SaveDerived(ApproachType::kBaseline,
                                      scenario.current_set(), update)
                        .ValueOrDie()
                        .set_id);
    }
    row.save_s = save_watch.ElapsedSeconds();

    StopWatch recover_watch;
    for (const std::string& id : ids) {
      manager->Recover(id).status().Check();
    }
    row.recover_s = recover_watch.ElapsedSeconds();

    for (const std::string& blob :
         manager->file_store()->List().ValueOrDie()) {
      row.store_bytes += manager->file_store()->Size(blob).ValueOrDie();
    }
    if (manager->cas() != nullptr) {
      row.stats = manager->cas()->ComputeStats().ValueOrDie();
    }

    // Dedup must never cost integrity: every row leaves a healthy store.
    StoreValidationReport health = manager->ValidateStore().ValueOrDie();
    if (!health.ok()) Status::Internal(health.problems.front()).Check();
    OrphanReport orphans = FindOrphanBlobs(manager->context()).ValueOrDie();
    if (!orphans.clean()) {
      Status::Internal("orphan blob ", orphans.orphan_blobs.front()).Check();
    }

    rows.push_back(std::move(row));
    manager.reset();
    Env::Default()->RemoveDirs("/tmp/mmm-bench-dedup").Check();
  }

  const uint64_t control_bytes = rows.front().store_bytes;
  std::printf("\nBaseline approach, %zu full snapshots of %zu models:\n",
              sets, knobs.models);
  std::printf("%-10s | %10s | %9s | %8s | %8s | %10s | %10s\n", "chunking",
              "store MB", "reduction", "save s", "recov s", "chunks",
              "dedup x");
  JsonValue out_rows = JsonValue::Array();
  for (const RowResult& row : rows) {
    double reduction = row.store_bytes == 0
                           ? 0.0
                           : static_cast<double>(control_bytes) /
                                 static_cast<double>(row.store_bytes);
    std::printf("%-10s | %10s | %8.2fx | %8.2f | %8.2f | %10llu | %9.2fx\n",
                row.label.c_str(), Mb(row.store_bytes).c_str(), reduction,
                row.save_s, row.recover_s,
                static_cast<unsigned long long>(row.stats.unique_chunks),
                row.stats.dedup_ratio());

    JsonValue entry = JsonValue::Object();
    entry.Set("chunking", row.label);
    entry.Set("store_bytes", row.store_bytes);
    entry.Set("storage_reduction_vs_no_cas", reduction);
    entry.Set("save_seconds", row.save_s);
    entry.Set("recover_all_seconds", row.recover_s);
    entry.Set("unique_chunks", row.stats.unique_chunks);
    entry.Set("chunk_bytes", row.stats.chunk_bytes);
    entry.Set("manifests", row.stats.manifests);
    entry.Set("manifest_raw_bytes", row.stats.manifest_raw_bytes);
    entry.Set("dedup_ratio", row.stats.dedup_ratio());
    out_rows.Append(std::move(entry));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "tab_dedup");
  doc.Set("sets", static_cast<uint64_t>(sets));
  doc.Set("models", static_cast<uint64_t>(knobs.models));
  doc.Set("rows", std::move(out_rows));
  WriteBenchJson("BENCH_dedup.json", doc);
  std::printf(
      "(Expected: every chunked row shrinks the store by well over 2x — the "
      "fleet shares\n most parameter bytes across snapshots. Fixed-size "
      "blocks stay competitive only\n because this fleet's models never "
      "change size; see the header comment.)\n");
  return 0;
}
