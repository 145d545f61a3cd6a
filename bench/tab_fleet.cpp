// Fleet-lifecycle simulation benchmark: sustained simulator throughput,
// recovery-cost distribution, and the storage trajectory of a long
// interleaved lifecycle (saves, Zipfian recovery bursts, pins, deletes,
// retention sweeps, compaction — plus failover/rebalance in the cluster
// rows), with every invariant oracle enabled.
//
// Each row replays the same seeded plan against a different world:
//
//   unsharded         ModelSetManager + ModelSetService
//   unsharded+crash   same, with deterministic mid-commit crash injection
//   cluster-2         2-shard Coordinator with kill/add/rebalance events
//   cluster-2+crash   same, with crash injection
//
// Reported per row: end-to-end wall ops/s (oracle checks included — this is
// simulator throughput, the budget a nightly long-horizon sweep spends),
// recoveries served, the modeled per-request recovery cost (mean / p99 /
// max, bit-deterministic at any worker count), injected crash count, and
// the final storage ratio: live artifact bytes over the bytes an
// all-full-snapshots store would hold for the same live sets (full_bytes /
// full_sets × live_sets). The per-checkpoint storage curve goes to the
// JSON verbatim.
//
// Results are also written to BENCH_fleet.json.
//
// Knobs: MMM_FLEET_STEPS (default 150), MMM_FLEET_SEED (7), MMM_RUNS (1).

#include <cinttypes>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/clock.h"
#include "fleet/plan.h"
#include "fleet/simulator.h"
#include "serialize/json.h"
#include "serve/trace.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

namespace {

struct RowConfig {
  const char* label;
  size_t shards;
  bool crashes;
};

double StorageRatio(const FleetRunReport::StorageSample& sample) {
  if (sample.full_sets == 0 || sample.live_sets == 0) return 0;
  double all_full = static_cast<double>(sample.full_artifact_bytes) /
                    static_cast<double>(sample.full_sets) *
                    static_cast<double>(sample.live_sets);
  return all_full == 0 ? 0 : static_cast<double>(sample.artifact_bytes) /
                                 all_full;
}

}  // namespace

int main() {
  size_t steps =
      static_cast<size_t>(GetEnvInt64("MMM_FLEET_STEPS", 150));
  uint64_t seed = static_cast<uint64_t>(GetEnvInt64("MMM_FLEET_SEED", 7));
  int runs = static_cast<int>(GetEnvInt64("MMM_RUNS", 1));
  std::printf(
      "[tab_fleet] steps=%zu seed=%" PRIu64 " runs=%d\n"
      "  (override with MMM_FLEET_STEPS / MMM_FLEET_SEED / MMM_RUNS)\n",
      steps, seed, runs);

  const std::vector<RowConfig> rows{
      {"unsharded", 0, false},
      {"unsharded+crash", 0, true},
      {"cluster-2", 2, false},
      {"cluster-2+crash", 2, true},
  };

  std::printf(
      "\n%-16s | %8s | %10s | %10s | %9s | %9s | %7s | %7s\n",
      "world", "ops/s", "recoveries", "rec mean ms", "rec p99 ms", "crashes",
      "live", "ratio");
  JsonValue out_rows = JsonValue::Array();
  for (const RowConfig& row : rows) {
    FleetPlanConfig config;
    config.seed = seed;
    config.steps = steps;
    config.cluster_events = row.shards > 0;
    FleetPlan plan = FleetPlan::Generate(config);

    FleetSimOptions options;
    options.shards = row.shards;
    options.workers = 2;
    options.inject_crashes = row.crashes;

    // Best-of-N wall time (the report itself is identical every run).
    FleetSimulator simulator(std::move(plan), options);
    FleetRunReport report;
    double best_secs = 0;
    for (int run = 0; run < runs; ++run) {
      StopWatch watch;
      watch.Start();
      Result<FleetRunReport> result = simulator.Run();
      double secs = watch.ElapsedSeconds();
      result.status().Check();
      report = std::move(result).ValueOrDie();
      if (!report.ok()) {
        std::fprintf(stderr, "oracle violation in %s at step %zu: %s\n",
                     row.label, report.problems[0].step,
                     report.problems[0].detail.c_str());
        return 2;
      }
      if (run == 0 || secs < best_secs) best_secs = secs;
    }

    LatencySummary recover = Summarize(report.recover_modeled_nanos);
    double ratio = report.storage.empty() ? 0 : StorageRatio(report.storage.back());
    double ops_per_sec =
        best_secs == 0 ? 0 : static_cast<double>(report.ops_executed) / best_secs;
    std::printf(
        "%-16s | %8.1f | %10" PRIu64 " | %10.3f | %9.3f | %9" PRIu64
        " | %7" PRIu64 " | %7.3f\n",
        row.label, ops_per_sec, report.recoveries, recover.mean / 1e6,
        static_cast<double>(recover.p99) / 1e6, report.crashes_injected,
        report.live_sets_final, ratio);

    JsonValue entry = JsonValue::Object();
    entry.Set("world", row.label);
    entry.Set("shards", static_cast<uint64_t>(row.shards));
    entry.Set("crash_injection", row.crashes);
    entry.Set("wall_seconds", best_secs);
    entry.Set("ops_executed", static_cast<uint64_t>(report.ops_executed));
    entry.Set("ops_per_second", ops_per_sec);
    entry.Set("saves", report.saves);
    entry.Set("recoveries", report.recoveries);
    entry.Set("recover_mean_nanos", recover.mean);
    entry.Set("recover_p50_nanos", recover.p50);
    entry.Set("recover_p99_nanos", recover.p99);
    entry.Set("recover_max_nanos", recover.max);
    entry.Set("crashes_injected", report.crashes_injected);
    entry.Set("failovers", report.failovers);
    entry.Set("rebalances", report.rebalances);
    entry.Set("live_sets_final", report.live_sets_final);
    entry.Set("final_storage_ratio_vs_all_full", ratio);
    JsonValue curve = JsonValue::Array();
    for (const FleetRunReport::StorageSample& sample : report.storage) {
      JsonValue point = JsonValue::Object();
      point.Set("step", static_cast<uint64_t>(sample.step));
      point.Set("live_sets", sample.live_sets);
      point.Set("artifact_bytes", sample.artifact_bytes);
      point.Set("full_artifact_bytes", sample.full_artifact_bytes);
      point.Set("full_sets", sample.full_sets);
      point.Set("ratio_vs_all_full", StorageRatio(sample));
      curve.Append(std::move(point));
    }
    entry.Set("storage_curve", std::move(curve));
    out_rows.Append(std::move(entry));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "tab_fleet");
  doc.Set("steps", static_cast<uint64_t>(steps));
  doc.Set("seed", seed);
  doc.Set("rows", std::move(out_rows));
  WriteBenchJson("BENCH_fleet.json", doc);
  std::printf(
      "(Expected: the storage ratio sits well under 1 — delta chains and "
      "dedup keep live bytes\n below an all-snapshots store — and the "
      "crash rows match their clean twins on every\n oracle while adding "
      "rollback/rollforward work.)\n");
  return 0;
}
