// Cluster scaling benchmark: save / recover throughput and per-request
// recovery cost vs shard count under Zipfian traffic.
//
// For each shard count in {1, 2, 4, 8} a fresh cluster is built over its own
// in-memory Env from identically seeded scenarios, so the id stream, the set
// bytes, and the request trace are the same in every configuration — only
// the placement changes. The workload is `MMM_CHAINS` independent Update
// chains (initial snapshot + one delta per cycle); initial ids spread over
// the ring while derived sets colocate with their base, exactly as a fleet
// of independently updated deployments would. A newest-hottest Zipfian trace
// then replays through Coordinator::Replay, which partitions requests by
// owning shard and serves the per-shard sub-traces in parallel.
//
// Reported per shard count: save and replay wall throughput, the modeled
// per-request recovery cost (mean / p99, bit-deterministic because each
// shard serves with workers=1 and the cache disabled), and the modeled
// recovery makespan — the busiest shard's summed store latency, i.e. the
// modeled wall time of the parallel replay. Expected shape: per-request cost
// is flat (sharding never adds store reads to a request), while the makespan
// falls as the Zipfian head spreads over more shards — sublinearly, because
// the hottest chain always lives on a single shard. The makespan, not wall
// time, is the machine-independent scaling signal (see DESIGN.md §1: wall
// throughput only rises with real cores to run the shard replays on).
//
// Results are also written to BENCH_cluster.json.
//
// Knobs: MMM_MODELS (default 64), MMM_SAMPLES (64), MMM_CHAINS (8),
// MMM_U3_ITERATIONS (4), MMM_REQUESTS (400).

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "cluster/coordinator.h"
#include "common/clock.h"
#include "serve/trace.h"
#include "storage/env.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

int main() {
  BenchKnobs knobs = BenchKnobs::FromEnv(/*default_models=*/64,
                                         /*default_runs=*/1);
  knobs.samples = static_cast<size_t>(GetEnvInt64("MMM_SAMPLES", 64));
  knobs.u3_iterations = static_cast<size_t>(GetEnvInt64("MMM_U3_ITERATIONS", 4));
  size_t chains = static_cast<size_t>(GetEnvInt64("MMM_CHAINS", 8));
  size_t requests = static_cast<size_t>(GetEnvInt64("MMM_REQUESTS", 400));
  knobs.Describe("tab_cluster_scaling");

  const size_t shard_counts[] = {1, 2, 4, 8};

  std::printf(
      "\n%zu Update chains x %zu cycles, %zu Zipfian requests (theta 0.99, "
      "newest hottest):\n",
      chains, knobs.u3_iterations, requests);
  std::printf("%6s | %9s | %9s | %9s | %9s | %11s | %8s\n", "shards",
              "save /s", "recov /s", "mean ms", "p99 ms", "makespan ms",
              "speedup");

  JsonValue out_rows = JsonValue::Array();
  double base_makespan_ms = 0;
  for (size_t shard_count : shard_counts) {
    // Fresh world per configuration: same seeds everywhere, so every
    // configuration saves byte-identical sets under the same ids. The real
    // filesystem env lets shard replays run truly in parallel (InMemoryEnv
    // would serialize every read behind one lock).
    ScenarioConfig config = ScenarioConfig::Battery(knobs.models);
    config.samples_per_dataset = knobs.samples;
    MultiModelScenario scenario(config);
    scenario.Init().Check();

    ClusterOptions options;
    options.root_dir =
        StringFormat("/tmp/mmm-bench-cluster/c%zu", shard_count);
    options.env = Env::Default();
    options.shard_count = shard_count;
    options.resolver = &scenario;
    options.profile = SetupProfile::Server();
    options.service.workers = 1;        // exact per-request counters
    options.service.cache_enabled = false;  // measure recovery, not caching
    auto cluster = Coordinator::Open(std::move(options)).ValueOrDie();

    // Save phase: `chains` initial snapshots, then one delta per chain per
    // cycle. Modeled store latency is attributed to the owning shard so the
    // save makespan reflects shard-parallel storage, even though the driver
    // issues saves sequentially.
    std::vector<std::string> ids;
    std::vector<std::string> heads(chains);
    std::map<std::string, uint64_t> save_nanos_by_shard;
    StopWatch save_watch;
    for (size_t chain = 0; chain < chains; ++chain) {
      SaveResult saved =
          cluster->SaveInitial(ApproachType::kUpdate, scenario.current_set())
              .ValueOrDie();
      heads[chain] = saved.set_id;
      ids.push_back(saved.set_id);
      save_nanos_by_shard[cluster->OwnerOf(saved.set_id).ValueOrDie()] +=
          saved.simulated_store_nanos;
    }
    for (size_t cycle = 0; cycle < knobs.u3_iterations; ++cycle) {
      for (size_t chain = 0; chain < chains; ++chain) {
        ModelSetUpdateInfo update = scenario.AdvanceCycle().ValueOrDie();
        update.base_set_id = heads[chain];
        SaveResult saved = cluster
                               ->SaveDerived(ApproachType::kUpdate,
                                             scenario.current_set(), update)
                               .ValueOrDie();
        heads[chain] = saved.set_id;
        ids.push_back(saved.set_id);
        save_nanos_by_shard[cluster->OwnerOf(saved.set_id).ValueOrDie()] +=
            saved.simulated_store_nanos;
      }
    }
    double save_secs = save_watch.ElapsedSeconds();

    // Replay phase: newest versions take the head of the Zipfian
    // distribution. The trace is identical across shard counts.
    std::vector<std::string> hot_first(ids.rbegin(), ids.rend());
    std::vector<std::string> trace =
        BuildZipfianTrace(hot_first, requests, /*theta=*/0.99, /*seed=*/21);

    StopWatch replay_watch;
    std::vector<ServeResult> results = cluster->Replay(trace);
    double replay_secs = replay_watch.ElapsedSeconds();

    std::vector<uint64_t> modeled;
    modeled.reserve(results.size());
    std::map<std::string, uint64_t> recover_nanos_by_shard;
    for (size_t i = 0; i < results.size(); ++i) {
      results[i].status.Check();  // every request must succeed
      modeled.push_back(results[i].modeled_store_nanos);
      recover_nanos_by_shard[cluster->OwnerOf(trace[i]).ValueOrDie()] +=
          results[i].modeled_store_nanos;
    }
    LatencySummary lat = Summarize(modeled);

    // Makespan: the busiest shard bounds the modeled parallel replay.
    uint64_t save_makespan = 0, recover_makespan = 0;
    for (const auto& [shard, nanos] : save_nanos_by_shard) {
      save_makespan = std::max(save_makespan, nanos);
    }
    for (const auto& [shard, nanos] : recover_nanos_by_shard) {
      recover_makespan = std::max(recover_makespan, nanos);
    }
    double makespan_ms = static_cast<double>(recover_makespan) / 1e6;
    if (shard_count == 1) base_makespan_ms = makespan_ms;
    double speedup = makespan_ms == 0 ? 0 : base_makespan_ms / makespan_ms;

    std::printf("%6zu | %9.1f | %9.1f | %9.3f | %9.3f | %11.3f | %7.2fx\n",
                shard_count,
                static_cast<double>(ids.size()) / save_secs,
                static_cast<double>(trace.size()) / replay_secs,
                lat.mean / 1e6, static_cast<double>(lat.p99) / 1e6,
                makespan_ms, speedup);

    JsonValue entry = JsonValue::Object();
    entry.Set("shards", static_cast<uint64_t>(shard_count));
    entry.Set("sets", static_cast<uint64_t>(ids.size()));
    entry.Set("save_wall_seconds", save_secs);
    entry.Set("saves_per_second",
              static_cast<double>(ids.size()) / save_secs);
    entry.Set("save_modeled_makespan_nanos", save_makespan);
    entry.Set("replay_wall_seconds", replay_secs);
    entry.Set("recoveries_per_second",
              static_cast<double>(trace.size()) / replay_secs);
    entry.Set("recover_mean_nanos", lat.mean);
    entry.Set("recover_p50_nanos", lat.p50);
    entry.Set("recover_p99_nanos", lat.p99);
    entry.Set("recover_modeled_makespan_nanos", recover_makespan);
    entry.Set("makespan_speedup_vs_1_shard", speedup);
    out_rows.Append(std::move(entry));
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "tab_cluster_scaling");
  doc.Set("models", static_cast<uint64_t>(knobs.models));
  doc.Set("chains", static_cast<uint64_t>(chains));
  doc.Set("cycles", static_cast<uint64_t>(knobs.u3_iterations));
  doc.Set("requests", static_cast<uint64_t>(requests));
  doc.Set("theta", 0.99);
  doc.Set("rows", std::move(out_rows));
  WriteBenchJson("BENCH_cluster.json", doc);
  std::printf(
      "(Expected: per-request mean/p99 stay flat while the modeled recovery "
      "makespan falls\n with shard count — sublinearly, since the hottest "
      "chain is pinned to one shard.)\n");
  CleanupWorkDir(knobs, "/tmp/mmm-bench-cluster");
  return 0;
}
