#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "cas/blob_io.h"
#include "cas/chunker.h"
#include "common/rng.h"
#include "content.h"
#include "core/blob_formats.h"
#include "core/manager.h"
#include "core/set_codec.h"
#include "harness.h"
#include "serialize/compress.h"
#include "serialize/crc32.h"
#include "serialize/json.h"
#include "serialize/sha256.h"
#include "serve/layer_cache.h"
#include "serve/service.h"
#include "serve/trace.h"

namespace perfbench {

namespace {

using mmm::ApproachType;
using mmm::ModelSet;
using mmm::ModelSetManager;
using mmm::ModelSetService;
using mmm::Status;

// ---- Workload sizes -------------------------------------------------------
// Chosen so a 30 s run of any workload stays below 4 busy threads and
// repeats closely across seeds; README.md records the reasoning.

/// Measurement cycles per run (see the comment above RunServeCold);
/// save-chain's rounds play the same part. serve-cold runs more, shorter
/// cycles because its save figures come from one set-up per cycle.
constexpr int kColdCycles = 16;
constexpr int kFleetCycles = 5;
/// Recovery threads of the open- and closed-loop phases.
constexpr size_t kServeWorkers = 2;

/// serve-cold: versions in the Update chain, cache as a share of one set.
constexpr size_t kColdVersions = 12;
constexpr double kColdCacheShare = 0.5;
/// Fixed offered load, well under half the closed-loop capacity measured
/// at the commit that introduced the benchmark (see README.md).
constexpr double kColdRatePerS = 12.0;
constexpr double kColdCapacityShare = 0.35;  ///< of the run; rest open loop

/// fleet-mixed: live versions, Zipf skew, cache, save cadence.
constexpr size_t kFleetInitialVersions = 12;
constexpr size_t kFleetLive = 8;
constexpr double kFleetTheta = 0.99;
constexpr double kFleetCacheSets = 2.0;
constexpr double kFleetRatePerS = 100.0;
constexpr double kFleetSaveEveryS = 1.0;
constexpr uint64_t kFleetMaxDepth = 4;
constexpr double kFleetCapacityShare = 0.25;

/// save-chain: versions per round and the auto-compaction bound.
constexpr size_t kChainVersions = 28;
constexpr uint64_t kChainMaxDepth = 8;

/// Traced runs replay this many sampled recoveries and saves.
constexpr size_t kReplayRecoveries = 4;
constexpr size_t kReplaySaves = 2;

// ---- Small helpers --------------------------------------------------------

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double MbPerS(uint64_t bytes, double ms) {
  return ms <= 0 ? 0 : static_cast<double>(bytes) / 1e3 / ms;
}

uint64_t SetFootprint(const ModelSet& set) {
  uint64_t bytes = 0;
  for (const mmm::StateDict& model : set.models) {
    for (const auto& entry : model) bytes += mmm::LayerCache::ChargeOf(entry.second);
  }
  return bytes;
}

struct Io {
  mmm::StoreStats file;
  mmm::StoreStats doc;
};

Io IoOf(ModelSetManager* manager) {
  return {manager->file_store()->stats(), manager->doc_store()->stats()};
}

Io operator-(const Io& a, const Io& b) { return {a.file - b.file, a.doc - b.doc}; }
Io operator+(const Io& a, const Io& b) { return {a.file + b.file, a.doc + b.doc}; }

std::unique_ptr<ModelSetManager> OpenStore(ModelSetManager::Options options,
                                           const std::string& dir) {
  options.root_dir = dir;
  options.profile = mmm::SetupProfile::Server();  // modeled store latency
  return ModelSetManager::Open(std::move(options)).ValueOrDie();
}

}  // namespace

// ---- Recoveries -----------------------------------------------------------

bool ServeOne(ModelSetService* service, const std::string& id,
              uint64_t expected, ServeTally* tally, Tracer* tracer,
              uint64_t request, int64_t parent, Clock::time_point* done) {
  mmm::ServeResult result;
  const int64_t span = tracer->Begin("service.recover", request, parent);
  mmm::Result<ModelSet> recovered = service->Recover(id, &result);
  if (done != nullptr) *done = Clock::now();
  tracer->End(span);
  bool match = false;
  if (recovered.ok()) {
    ScopedSpan verify(tracer, "verify.digest", request, parent);
    match = ContentDigest(*recovered) == expected;
  }
  std::lock_guard<std::mutex> lock(tally->mu);
  tally->requests += 1;
  if (!recovered.ok()) {
    tally->failures += 1;
    return false;
  }
  if (!match) tally->mismatches += 1;
  tally->service_ms.push_back(static_cast<double>(result.wall_nanos) / 1e6);
  tally->modeled_ms.push_back(
      static_cast<double>(result.modeled_store_nanos) / 1e6);
  tally->sets_walked += result.sets_walked;
  tally->cache += result.cache;
  return match;
}

void CountServes(const ServeTally& tally, RunReport* report) {
  report->attempted += tally.requests;
  report->failed += tally.failures + tally.mismatches;
  report->mismatches += tally.mismatches;
}

double OkRatio(const RunReport& report) {
  if (report.attempted == 0) return 0;
  return 1.0 - static_cast<double>(report.failed) /
                   static_cast<double>(report.attempted);
}

namespace {

/// Recovers each set once outside every tally, to fill the layer cache and
/// the page cache before a timed phase.
void Warm(ModelSetService* service, const std::vector<std::string>& ids,
          const std::vector<uint64_t>& digests, Tracer* tracer) {
  ServeTally untimed;
  for (size_t i = 0; i < ids.size(); ++i) {
    ServeOne(service, ids[i], digests[i], &untimed, tracer, 0, -1, nullptr);
  }
}

// ---- Saves ----------------------------------------------------------------

struct SaveTally {
  std::vector<double> wall_ms;
  std::vector<double> modeled_ms;
  uint64_t logical_bytes = 0;
  uint64_t file_writes = 0;
  uint64_t doc_writes = 0;
  uint64_t bytes_written = 0;
  uint64_t attempted = 0;
  uint64_t failures = 0;
  /// wall_ms/modeled_ms index where each measurement cycle ended.
  std::vector<size_t> cycle_ends;
  /// Per cycle with saves: logical MB saved per second of save wall time.
  std::vector<double> cycle_mb_s;
  uint64_t cycle_start_bytes = 0;  ///< logical_bytes at the last EndCycle

  void EndCycle() {
    const size_t begin = cycle_ends.empty() ? 0 : cycle_ends.back();
    double ms = 0;
    for (size_t i = begin; i < wall_ms.size(); ++i) ms += wall_ms[i];
    if (ms > 0) cycle_mb_s.push_back(MbPerS(logical_bytes - cycle_start_bytes, ms));
    cycle_ends.push_back(wall_ms.size());
    cycle_start_bytes = logical_bytes;
  }

  /// Times one save call; returns its result (or the failure). Only
  /// derived saves enter the figures: an initial save writes a full
  /// snapshot, a different operation that each chain runs once, and as 1
  /// in 12 or 1 in 28 of the samples it would sit right at the p90.
  mmm::Result<mmm::SaveResult> Run(
      const ModelSet& set, Tracer* tracer, bool initial,
      const std::function<mmm::Result<mmm::SaveResult>()>& save) {
    attempted += 1;
    const int64_t span = tracer->Begin(
        initial ? "manager.save_initial" : "manager.save_derived", attempted);
    const Clock::time_point start = Clock::now();
    mmm::Result<mmm::SaveResult> result = save();
    const double ms = MsBetween(start, Clock::now());
    tracer->End(span, LogicalBytes(set));
    if (!result.ok()) {
      failures += 1;
      return result;
    }
    if (initial) return result;
    wall_ms.push_back(ms);
    modeled_ms.push_back(
        static_cast<double>(result->simulated_store_nanos) / 1e6);
    logical_bytes += LogicalBytes(set);
    file_writes += result->file_store_writes;
    doc_writes += result->doc_store_writes;
    bytes_written += result->bytes_written;
    return result;
  }
};

/// Saves versions 0..versions-1 of `gen` as one Update chain.
struct Chain {
  std::vector<std::string> ids;
  std::vector<uint64_t> digests;
  ModelSet newest;
};

Chain SaveChain(ModelSetManager* manager, const VersionGen& gen,
                size_t versions, SaveTally* saves, Tracer* tracer) {
  Chain chain;
  chain.newest = gen.Initial();
  for (size_t v = 0; v < versions; ++v) {
    mmm::ModelSetUpdateInfo update;
    if (v > 0) {
      update = gen.Advance(&chain.newest, v);
      update.base_set_id = chain.ids.back();
    }
    mmm::SaveResult saved =
        saves
            ->Run(chain.newest, tracer, v == 0, [&] {
                    return v == 0 ? manager->SaveInitial(ApproachType::kUpdate,
                                                         chain.newest)
                                  : manager->SaveDerived(ApproachType::kUpdate,
                                                         chain.newest, update);
                  })
            .ValueOrDie();
    chain.ids.push_back(saved.set_id);
    chain.digests.push_back(ContentDigest(chain.newest));
  }
  return chain;
}

// ---- Stage replay (traced runs) --------------------------------------------

/// Re-reads and decodes one set through the layers' public functions, one
/// span per stage, mirroring the Update approach's recovery.
mmm::Result<ModelSet> ReplayRecover(ModelSetManager* manager,
                                    const std::string& id, Tracer* tracer,
                                    uint64_t request, int64_t parent,
                                    uint64_t depth_budget) {
  if (depth_budget == 0) return Status::Corruption("replay chain too deep");
  mmm::FileStore* files = manager->file_store();
  mmm::JsonValue json;
  {
    ScopedSpan span(tracer, "doc.get", request, parent);
    MMM_ASSIGN_OR_RETURN(json,
                         manager->doc_store()->Get(mmm::kSetCollection, id));
  }
  MMM_ASSIGN_OR_RETURN(mmm::SetDocument doc, mmm::SetDocument::FromJson(json));

  // Reads a blob whole, streams it once more, decompresses it and checks
  // its CRC footer.
  auto read_blob = [&](const std::string& name) -> mmm::Result<std::vector<uint8_t>> {
    std::vector<uint8_t> stored;
    {
      ScopedSpan span(tracer, "file.get", request, parent);
      MMM_ASSIGN_OR_RETURN(stored, mmm::CasReadBlob(files, name));
      span.set_bytes(stored.size());
    }
    {
      ScopedSpan span(tracer, "file.stream", request, parent);
      uint64_t streamed = 0;
      MMM_RETURN_NOT_OK(mmm::CasStreamBlob(
          files, name, 0, [](uint64_t) { return Status::OK(); },
          [&](std::span<const uint8_t> window) {
            streamed += window.size();
            return Status::OK();
          }));
      span.set_bytes(streamed);
    }
    std::vector<uint8_t> blob;
    {
      ScopedSpan span(tracer, "lz.decompress", request, parent);
      MMM_ASSIGN_OR_RETURN(blob, mmm::DecompressBlob(stored));
      // Only framed compressed blobs change size; raw ones pass through.
      if (blob.size() != stored.size()) span.set_bytes(blob.size());
    }
    {
      ScopedSpan span(tracer, "crc32", request, parent);
      if (blob.size() < 4) return Status::Corruption("blob too small: ", name);
      const size_t payload = blob.size() - 4;
      uint32_t footer = 0;
      for (int i = 0; i < 4; ++i) {
        footer |= static_cast<uint32_t>(blob[payload + i]) << (8 * i);
      }
      if (mmm::Crc32::Compute(std::span<const uint8_t>(blob.data(), payload)) !=
          footer) {
        return Status::Corruption("crc mismatch in ", name);
      }
      span.set_bytes(payload);
    }
    return blob;
  };
  auto read_hashes = [&]() -> Status {
    if (doc.hash_blob.empty()) return Status::OK();
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> bytes, read_blob(doc.hash_blob));
    ScopedSpan span(tracer, "decode.hash_table", request, parent);
    MMM_ASSIGN_OR_RETURN(mmm::HashTable hashes, mmm::DecodeHashTable(bytes));
    span.set_bytes(bytes.size());
    return hashes.size() == doc.num_models
               ? Status::OK()
               : Status::Corruption("hash table size mismatch in ", id);
  };

  if (doc.kind == "full") {
    MMM_ASSIGN_OR_RETURN(std::string arch_text,
                         mmm::CasReadBlobString(files, doc.arch_blob));
    MMM_ASSIGN_OR_RETURN(mmm::ArchitectureSpec spec,
                         mmm::DecodeArchBlob(arch_text));
    MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, read_blob(doc.param_blob));
    ModelSet set;
    {
      ScopedSpan span(tracer, "decode.param_blob", request, parent);
      MMM_ASSIGN_OR_RETURN(set.models, mmm::DecodeParamBlob(spec, blob));
      span.set_bytes(blob.size());
    }
    set.spec = std::move(spec);
    MMM_RETURN_NOT_OK(read_hashes());
    return set;
  }
  if (doc.kind != "delta") return Status::Corruption("unexpected kind ", doc.kind);
  MMM_ASSIGN_OR_RETURN(ModelSet set,
                       ReplayRecover(manager, doc.base_set_id, tracer, request,
                                     parent, depth_budget - 1));
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> diff_bytes, read_blob(doc.diff_blob));
  mmm::DecodedDiff diff;
  {
    ScopedSpan span(tracer, "decode.diff_blob", request, parent);
    MMM_ASSIGN_OR_RETURN(diff, mmm::DecodeDiffBlob(set.spec, diff_bytes));
    span.set_bytes(diff_bytes.size());
  }
  MMM_RETURN_NOT_OK(read_hashes());
  ScopedSpan span(tracer, "apply_delta", request, parent);
  uint64_t applied = 0;
  for (size_t i = 0; i < diff.entries.size(); ++i) {
    const mmm::DiffEntry& entry = diff.entries[i];
    if (entry.model_index >= set.models.size() ||
        entry.param_index >= set.models[entry.model_index].size()) {
      return Status::Corruption("diff entry out of range in ", id);
    }
    mmm::Tensor& target =
        set.models[entry.model_index][entry.param_index].second;
    applied += target.data().size_bytes();
    target = diff.encoding == mmm::DiffEncoding::kXorBase
                 ? mmm::XorTensors(target, diff.tensors[i])
                 : std::move(diff.tensors[i]);
  }
  span.set_bytes(applied);
  return set;
}

/// Replays the encode stages of saving `current` on top of `previous`.
void ReplaySave(ModelSetManager* manager, const ModelSet& previous,
                const ModelSet& current, Tracer* tracer, uint64_t request) {
  ScopedSpan root(tracer, "replay.save", request);
  const int64_t parent = root.id();
  const uint64_t logical = LogicalBytes(current);
  mmm::HashTable base_hashes = mmm::ComputeHashTable(previous);
  mmm::HashTable hashes;
  {
    ScopedSpan span(tracer, "hash_table", request, parent);
    hashes = mmm::ComputeHashTable(current);
    span.set_bytes(logical);
  }
  std::vector<uint8_t> param;
  {
    ScopedSpan span(tracer, "encode.param_blob", request, parent);
    param = mmm::EncodeParamBlob(current);
    span.set_bytes(param.size());
  }
  {
    ScopedSpan span(tracer, "sha256", request, parent);
    static_cast<void>(mmm::Sha256::Hash(param));
    span.set_bytes(param.size());
  }
  {
    std::vector<mmm::DiffEntry> entries =
        mmm::DiffHashTables(base_hashes, hashes).ValueOrDie();
    ScopedSpan span(tracer, "diff_encode", request, parent);
    std::vector<uint8_t> diff = mmm::EncodeDiffBlob(current, entries);
    span.set_bytes(diff.size());
  }
  {
    ScopedSpan span(tracer, "lz.compress", request, parent);
    static_cast<void>(mmm::CompressBlob(mmm::Compression::kShuffleLz, param));
    span.set_bytes(param.size());
  }
  {
    ScopedSpan span(tracer, "cas.chunk", request, parent);
    static_cast<void>(mmm::ChunkBlob(param, mmm::CasOptions{}));
    span.set_bytes(param.size());
  }
  mmm::JsonValue docs = mmm::JsonValue::Array();
  for (mmm::JsonValue& doc :
       manager->doc_store()->All(mmm::kSetCollection).ValueOrDie()) {
    docs.Append(std::move(doc));
  }
  std::string text;
  {
    ScopedSpan span(tracer, "json.dump", request, parent);
    text = docs.Dump();
    span.set_bytes(text.size());
  }
  {
    ScopedSpan span(tracer, "json.parse", request, parent);
    static_cast<void>(mmm::JsonValue::Parse(text));
    span.set_bytes(text.size());
  }
}

// ---- Reporting ------------------------------------------------------------

/// Everything a workload measured; turned into metrics by Finish.
struct Measured {
  std::vector<double> setup_s;
  std::vector<double> recover_latency_ms;  ///< from due time (open loop)
  /// recover_latency_ms index where each measurement cycle ended.
  std::vector<size_t> recover_cycle_ends;
  /// Closed-loop throughput per measurement cycle.
  std::vector<double> capacity_rps;
  ServeTally serve;
  SaveTally saves;
  double stored_bytes_per_user_byte = 0;
  // Driver.
  std::vector<double> late_ms;
  uint64_t backlog_max = 0;
  std::vector<double> queue_wait_ms;
  // Storage traffic of the recovery phases only.
  Io recover_io;
  uint64_t cache_evictions = 0;
  // Maintenance: only fleet-mixed compacts and retains from its own saver,
  // so only its traced runs report these.
  bool maintenance = false;
  uint64_t gc_steps = 0;
  uint64_t sets_deleted = 0;
  uint64_t invalidated = 0;
  uint64_t compactions = 0;
  double compaction_ms = 0;
  uint64_t compaction_bytes = 0;
  double retain_ms = 0;
  // CAS.
  double dedup_ratio = 0;
  uint64_t chunk_bytes_per_save = 0;
};

struct Context {
  const RunConfig& config;
  Tracer tracer;
  RunReport report;
  Measured m;
  uint64_t next_request = 1ull << 32;  ///< ids of replayed requests

  explicit Context(const RunConfig& c) : config(c), tracer(c.trace) {}

  std::string StoreDir(const std::string& name) const {
    return config.work_dir + "/" + name;
  }
  void Knob(const std::string& key, const std::string& value) {
    report.knobs.emplace_back(key, value);
  }
  void Knob(const std::string& key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.6g", value);
    Knob(key, std::string(buffer));
  }

  /// Replays sampled recoveries; a replay that differs from the expected
  /// content counts as a mismatch.
  void ReplayRecoveries(ModelSetManager* manager,
                        const std::vector<std::string>& ids,
                        const std::vector<uint64_t>& digests) {
    if (!config.trace) return;
    // Newest first, spread over the chain.
    const size_t step = std::max<size_t>(1, ids.size() / kReplayRecoveries);
    for (size_t n = 0; n < kReplayRecoveries && n * step < ids.size(); ++n) {
      const size_t i = ids.size() - 1 - n * step;
      const uint64_t request = next_request++;
      ScopedSpan root(&tracer, "replay.recover", request);
      mmm::Result<ModelSet> set =
          ReplayRecover(manager, ids[i], &tracer, request, root.id(), 64);
      report.attempted += 1;
      if (!set.ok() || ContentDigest(*set) != digests[i]) {
        report.failed += 1;
        report.mismatches += 1;
      }
    }
  }

  void ReplaySaves(ModelSetManager* manager) {
    if (!config.trace) return;
    VersionGen gen(config.seed);
    ModelSet previous = gen.Initial();
    for (size_t v = 1; v <= kReplaySaves; ++v) {
      ModelSet current = previous;
      gen.Advance(&current, v);
      ReplaySave(manager, previous, current, &tracer, next_request++);
      previous = std::move(current);
    }
  }

  void Finish();
};

void Add(std::vector<Metric>* out, const std::string& name, double value,
         const std::string& unit, uint64_t samples = 0) {
  out->push_back({name, value, unit, samples});
}

void Context::Finish() {
  ServeTally& serve = m.serve;
  SaveTally& saves = m.saves;
  CountServes(serve, &report);
  report.attempted += saves.attempted;
  report.failed += saves.failures;

  std::vector<Metric>& e2e = report.end_to_end;
  Add(&e2e, "setup_s", Median(m.setup_s), "s", m.setup_s.size());
  // Latency and save percentiles: the median over the run's cycles of each
  // cycle's percentile (see MedianOverCycles).
  Add(&e2e, "recover_p50_ms",
      MedianOverCycles(m.recover_latency_ms, m.recover_cycle_ends, 50), "ms",
      m.recover_latency_ms.size());
  Add(&e2e, "recover_p90_ms",
      MedianOverCycles(m.recover_latency_ms, m.recover_cycle_ends, 90), "ms",
      m.recover_latency_ms.size());
  Add(&e2e, "recover_capacity_rps", Median(m.capacity_rps), "1/s",
      m.capacity_rps.size());
  double modeled = 0;
  for (double ms : serve.modeled_ms) modeled += ms;
  Add(&e2e, "recover_modeled_ms", Ratio(modeled, serve.modeled_ms.size()),
      "ms", serve.modeled_ms.size());
  Add(&e2e, "save_p50_ms", MedianOverCycles(saves.wall_ms, saves.cycle_ends, 50),
      "ms", saves.wall_ms.size());
  Add(&e2e, "save_p90_ms", MedianOverCycles(saves.wall_ms, saves.cycle_ends, 90),
      "ms", saves.wall_ms.size());
  double save_modeled = 0;
  for (double ms : saves.modeled_ms) save_modeled += ms;
  Add(&e2e, "save_modeled_ms", Ratio(save_modeled, saves.modeled_ms.size()),
      "ms", saves.modeled_ms.size());
  Add(&e2e, "save_mb_s", Median(saves.cycle_mb_s), "MB/s",
      saves.wall_ms.size());
  Add(&e2e, "stored_bytes_per_user_byte", m.stored_bytes_per_user_byte,
      "ratio");
  Add(&e2e, "ok_ratio", OkRatio(report), "ratio", report.attempted);

  if (!config.trace) return;
  const std::map<std::string, Tracer::Totals> spans = tracer.Summary();
  auto stage_mb_s = [&](const std::string& name) {
    auto it = spans.find(name);
    return it == spans.end() ? 0.0 : MbPerS(it->second.bytes, it->second.self_ms);
  };
  const double recoveries = static_cast<double>(serve.requests);
  const double save_count = static_cast<double>(saves.wall_ms.size());
  const uint64_t layer_probes = serve.cache.layer_hits + serve.cache.layer_misses;
  const uint64_t meta_probes = serve.cache.meta_hits + serve.cache.meta_misses;

  std::vector<Metric>& layer = report.per_layer;
  Add(&layer, "driver.late_p99_ms", Percentile(m.late_ms, 99), "ms",
      m.late_ms.size());
  Add(&layer, "driver.backlog_max", static_cast<double>(m.backlog_max),
      "count");
  Add(&layer, "serve.queue_wait_p90_ms", Percentile(m.queue_wait_ms, 90), "ms",
      m.queue_wait_ms.size());
  Add(&layer, "serve.service_p50_ms", Median(serve.service_ms), "ms",
      serve.service_ms.size());
  Add(&layer, "serve.layer_hit_ratio",
      Ratio(serve.cache.layer_hits, layer_probes), "ratio", layer_probes);
  Add(&layer, "serve.meta_hit_ratio", Ratio(serve.cache.meta_hits, meta_probes),
      "ratio", meta_probes);
  Add(&layer, "serve.sets_from_cache_ratio",
      Ratio(serve.cache.sets_from_cache, serve.sets_walked), "ratio",
      serve.sets_walked);
  Add(&layer, "serve.evictions_per_recover",
      Ratio(m.cache_evictions, recoveries), "count");
  if (m.maintenance) {
    Add(&layer, "serve.invalidated_per_gc", Ratio(m.invalidated, m.gc_steps),
        "count", m.gc_steps);
  }
  Add(&layer, "core.sets_walked_per_recover",
      Ratio(serve.sets_walked, recoveries), "count");
  Add(&layer, "core.decode_param_blob_mb_s", stage_mb_s("decode.param_blob"),
      "MB/s");
  Add(&layer, "core.apply_delta_mb_s", stage_mb_s("apply_delta"), "MB/s");
  Add(&layer, "core.hash_table_mb_s", stage_mb_s("hash_table"), "MB/s");
  Add(&layer, "core.encode_param_blob_mb_s", stage_mb_s("encode.param_blob"),
      "MB/s");
  Add(&layer, "core.diff_encode_mb_s", stage_mb_s("diff_encode"), "MB/s");
  Add(&layer, "core.compactions", static_cast<double>(m.compactions), "count");
  Add(&layer, "core.compaction_ms", Ratio(m.compaction_ms, m.compactions), "ms",
      m.compactions);
  Add(&layer, "core.compaction_bytes_rewritten",
      static_cast<double>(m.compaction_bytes), "bytes");
  if (m.maintenance) {
    Add(&layer, "core.gc_sets_deleted", static_cast<double>(m.sets_deleted),
        "count", m.gc_steps);
    Add(&layer, "core.retain_ms", Ratio(m.retain_ms, m.gc_steps), "ms",
        m.gc_steps);
  }
  Add(&layer, "storage.file_read_ops_per_recover",
      Ratio(m.recover_io.file.read_ops, recoveries), "count");
  Add(&layer, "storage.file_bytes_read_per_recover",
      Ratio(m.recover_io.file.bytes_read, recoveries), "bytes");
  Add(&layer, "storage.doc_read_ops_per_recover",
      Ratio(m.recover_io.doc.read_ops, recoveries), "count");
  Add(&layer, "storage.get_mb_s", stage_mb_s("file.get"), "MB/s");
  Add(&layer, "storage.stream_mb_s", stage_mb_s("file.stream"), "MB/s");
  Add(&layer, "storage.file_write_ops_per_save",
      Ratio(saves.file_writes, save_count), "count");
  Add(&layer, "storage.doc_write_ops_per_save",
      Ratio(saves.doc_writes, save_count), "count");
  Add(&layer, "storage.bytes_written_per_save",
      Ratio(saves.bytes_written, save_count), "bytes");
  Add(&layer, "serialize.crc32_mb_s", stage_mb_s("crc32"), "MB/s");
  Add(&layer, "serialize.sha256_mb_s", stage_mb_s("sha256"), "MB/s");
  Add(&layer, "serialize.lz_compress_mb_s", stage_mb_s("lz.compress"), "MB/s");
  Add(&layer, "serialize.lz_decompress_mb_s", stage_mb_s("lz.decompress"),
      "MB/s");
  Add(&layer, "serialize.json_dump_mb_s", stage_mb_s("json.dump"), "MB/s");
  Add(&layer, "serialize.json_parse_mb_s", stage_mb_s("json.parse"), "MB/s");
  Add(&layer, "cas.dedup_ratio", m.dedup_ratio, "ratio");
  Add(&layer, "cas.chunk_bytes_per_save",
      static_cast<double>(m.chunk_bytes_per_save), "bytes");
  Add(&layer, "cas.chunker_mb_s", stage_mb_s("cas.chunk"), "MB/s");
  Add(&layer, "process.peak_rss_mb", PeakRssMb(), "MB");
  Add(&layer, "trace.spans", static_cast<double>(tracer.size()), "count");
  report.span_summary_json = tracer.SummaryJson();
}

/// Records the load generator's view of a finished open loop.
void AddOpenLoop(Measured* m, const OpenLoopResult& loop) {
  for (const RequestTiming& timing : loop.requests) {
    m->recover_latency_ms.push_back(timing.latency_ms);
    m->queue_wait_ms.push_back(timing.queue_wait_ms);
  }
  m->late_ms.insert(m->late_ms.end(), loop.late_ms.begin(), loop.late_ms.end());
  m->recover_cycle_ends.push_back(m->recover_latency_ms.size());
  m->backlog_max = std::max(m->backlog_max, loop.backlog_max);
}

// Every workload measures in cycles spread over the run: one set-up
// and one block of each measurement phase per cycle. Host speed on a shared
// machine drifts over seconds, so spreading every metric's samples over the
// whole run keeps one slow second from moving a whole metric.

// ---- serve-cold -----------------------------------------------------------

/// Builds a fresh serve-cold store: an Update chain of kColdVersions.
struct ColdStore {
  std::string dir;
  std::unique_ptr<ModelSetManager> manager;
  Chain chain;
};

ColdStore SetUpCold(Context* ctx, const VersionGen& gen, int index) {
  const Clock::time_point start = Clock::now();
  ColdStore store;
  store.dir = ctx->StoreDir("serve-cold-" + std::to_string(index));
  store.manager = OpenStore({}, store.dir);
  store.chain = SaveChain(store.manager.get(), gen, kColdVersions,
                          &ctx->m.saves, &ctx->tracer);
  ctx->m.setup_s.push_back(SecondsSince(start));
  ctx->m.saves.EndCycle();
  return store;
}

Status RunServeCold(Context* ctx) {
  const RunConfig& config = ctx->config;
  VersionGen gen(config.seed);
  ColdStore served = SetUpCold(ctx, gen, 0);
  ModelSetManager* manager = served.manager.get();
  const Chain& chain = served.chain;
  const uint64_t footprint = SetFootprint(chain.newest);
  mmm::ModelSetServiceOptions options;
  options.cache_capacity_bytes =
      static_cast<uint64_t>(kColdCacheShare * static_cast<double>(footprint));
  ModelSetService service(manager, options);
  ctx->Knob("versions", static_cast<double>(kColdVersions));
  ctx->Knob("set_footprint_bytes", static_cast<double>(footprint));
  ctx->Knob("cache_bytes", static_cast<double>(options.cache_capacity_bytes));
  ctx->Knob("threads", "2 recovery workers");
  ctx->Knob("offered_rps", kColdRatePerS);
  ctx->Knob("cycles", static_cast<double>(kColdCycles));

  const double capacity_s = config.seconds * kColdCapacityShare / kColdCycles;
  // Each open-loop block serves whole permutations of the versions, so
  // every cycle's percentiles come from the same mix of chain depths.
  const double open_requests = std::max<double>(
      kColdVersions,
      std::floor(config.seconds * (1 - kColdCapacityShare) / kColdCycles *
                 kColdRatePerS / kColdVersions) *
          kColdVersions);
  const double open_s = (open_requests + 0.5) / kColdRatePerS;
  std::vector<uint32_t> trace = RequestTrace(
      "serve-cold", config.seed,
      static_cast<size_t>(config.seconds * (kColdRatePerS + 200) + 64));
  Warm(&service, chain.ids, chain.digests, &ctx->tracer);

  uint64_t next = 0;  // next request index into the trace
  auto serve = [&](uint64_t i, Clock::time_point* done) {
    const uint32_t v = trace[i % trace.size()];
    ScopedSpan span(&ctx->tracer, "request", i);
    return ServeOne(&service, chain.ids[v], chain.digests[v], &ctx->m.serve,
                    &ctx->tracer, i, span.id(), done);
  };
  auto serve_from = [&](uint64_t offset) {
    return [&serve, offset](uint64_t i, Clock::time_point* done) {
      return serve(offset + i, done);
    };
  };
  for (int cycle = 0; cycle < kColdCycles; ++cycle) {
    if (cycle > 0) {
      ColdStore scratch = SetUpCold(ctx, gen, cycle);
      scratch.manager.reset();
      std::filesystem::remove_all(scratch.dir);
    }
    const Io io_before = IoOf(manager);
    const uint64_t evictions_before = service.cache_stats().evictions;
    ClosedLoopResult closed =
        RunClosedLoop(kServeWorkers, capacity_s, serve_from(next));
    next += closed.requests.size();
    next = (next + kColdVersions - 1) / kColdVersions * kColdVersions;
    ctx->m.capacity_rps.push_back(Throughput(closed));
    OpenLoopResult loop =
        RunOpenLoop(kColdRatePerS, open_s, kServeWorkers, serve_from(next));
    next += loop.requests.size();
    AddOpenLoop(&ctx->m, loop);
    ctx->m.recover_io = ctx->m.recover_io + (IoOf(manager) - io_before);
    ctx->m.cache_evictions += service.cache_stats().evictions - evictions_before;
  }
  ctx->m.stored_bytes_per_user_byte =
      Ratio(static_cast<double>(DirectoryBytes(served.dir)),
            static_cast<double>(LogicalBytes(chain.newest) * kColdVersions));
  ctx->ReplayRecoveries(manager, chain.ids, chain.digests);
  ctx->ReplaySaves(manager);
  return Status::OK();
}

// ---- fleet-mixed ----------------------------------------------------------

/// A fleet-mixed store: a compacted, retained Update chain and its service.
struct FleetStore {
  std::string dir;
  std::unique_ptr<ModelSetManager> manager;
  std::unique_ptr<ModelSetService> service;
  Chain chain;
};

mmm::Result<FleetStore> SetUpFleet(Context* ctx, const VersionGen& gen,
                                   int index, SaveTally* saves) {
  const Clock::time_point start = Clock::now();
  FleetStore store;
  store.dir = ctx->StoreDir("fleet-mixed-" + std::to_string(index));
  store.manager = OpenStore({}, store.dir);
  store.chain = SaveChain(store.manager.get(), gen, kFleetInitialVersions,
                          saves, &ctx->tracer);
  mmm::ModelSetServiceOptions options;
  options.cache_capacity_bytes = static_cast<uint64_t>(
      kFleetCacheSets * static_cast<double>(SetFootprint(store.chain.newest)));
  store.service =
      std::make_unique<ModelSetService>(store.manager.get(), options);
  mmm::CompactionPolicy policy;
  policy.max_chain_depth = kFleetMaxDepth;
  MMM_RETURN_NOT_OK(store.service->CompactChains(policy).status());
  std::vector<std::string> keep(store.chain.ids.end() - kFleetLive,
                                store.chain.ids.end());
  MMM_RETURN_NOT_OK(store.service->RetainOnly(keep).status());
  ctx->m.setup_s.push_back(SecondsSince(start));
  return store;
}

Status RunFleetMixed(Context* ctx) {
  const RunConfig& config = ctx->config;
  ctx->m.maintenance = true;
  VersionGen gen(config.seed);
  SaveTally setup_saves;  // set-up saves are not the measured save traffic
  MMM_ASSIGN_OR_RETURN(FleetStore served, SetUpFleet(ctx, gen, 0, &setup_saves));
  ModelSetManager* manager = served.manager.get();
  ModelSetService* service = served.service.get();
  const Chain& chain = served.chain;
  mmm::CompactionPolicy policy;
  policy.max_chain_depth = kFleetMaxDepth;
  ctx->Knob("live_versions", static_cast<double>(kFleetLive));
  ctx->Knob("set_footprint_bytes",
            static_cast<double>(SetFootprint(chain.newest)));
  ctx->Knob("cache_bytes",
            static_cast<double>(service->cache_stats().capacity_bytes));
  ctx->Knob("threads", "2 recovery workers + 1 saver");
  ctx->Knob("offered_rps", kFleetRatePerS);
  ctx->Knob("save_every_s", kFleetSaveEveryS);
  ctx->Knob("cycles", static_cast<double>(kFleetCycles));

  // Live versions, oldest first, with their expected content. Guarded by
  // `fence`: recoveries hold it shared, the saver exclusively, because the
  // DocumentStore behind SaveDerived is not safe against concurrent readers.
  std::vector<std::string> live(chain.ids.end() - kFleetLive, chain.ids.end());
  std::vector<uint64_t> live_digests(chain.digests.end() - kFleetLive,
                                     chain.digests.end());
  std::shared_mutex fence;
  Warm(service, live, live_digests, &ctx->tracer);

  const double capacity_s = config.seconds * kFleetCapacityShare / kFleetCycles;
  const double open_s = config.seconds * (1 - kFleetCapacityShare) / kFleetCycles;
  std::vector<uint32_t> trace = RequestTrace(
      "fleet-mixed", config.seed,
      static_cast<size_t>(config.seconds * (kFleetRatePerS + 1000) + 64));
  auto serve = [&](uint64_t i, Clock::time_point* done) {
    ScopedSpan span(&ctx->tracer, "request", i);
    const int64_t wait = ctx->tracer.Begin("fence.wait", i, span.id());
    std::shared_lock<std::shared_mutex> lock(fence);
    ctx->tracer.End(wait);
    const size_t rank = std::min<size_t>(trace[i % trace.size()], live.size() - 1);
    const size_t index = live.size() - 1 - rank;
    return ServeOne(service, live[index], live_digests[index], &ctx->m.serve,
                    &ctx->tracer, i, span.id(), done);
  };
  uint64_t next = 0;  // next request index into the trace
  auto serve_from = [&](uint64_t offset) {
    return [&serve, offset](uint64_t i, Clock::time_point* done) {
      return serve(offset + i, done);
    };
  };

  Io maintenance_io;
  uint64_t version = kFleetInitialVersions;
  ModelSet newest = chain.newest;
  // The saver alternates two fenced steps half a cadence apart: save the
  // next version, then compact and apply retention. Between them the new
  // version is served, so the compaction that rebases it invalidates
  // cached entries as it would in a deployment.
  auto save_step = [&]() -> Status {
    mmm::ModelSetUpdateInfo update = gen.Advance(&newest, version);
    const uint64_t digest = ContentDigest(newest);
    std::unique_lock<std::shared_mutex> lock(fence);
    const Io io_start = IoOf(manager);
    update.base_set_id = live.back();
    mmm::Result<mmm::SaveResult> saved = ctx->m.saves.Run(
        newest, &ctx->tracer, false, [&] {
          return manager->SaveDerived(ApproachType::kUpdate, newest, update);
        });
    MMM_RETURN_NOT_OK(saved.status());
    live.push_back(saved->set_id);
    live_digests.push_back(digest);
    ++version;
    maintenance_io = maintenance_io + (IoOf(manager) - io_start);
    return Status::OK();
  };
  auto gc_step = [&]() -> Status {
    std::unique_lock<std::shared_mutex> lock(fence);
    const Io io_start = IoOf(manager);
    const uint64_t invalidated_start = service->cache_stats().invalidated;
    Clock::time_point start = Clock::now();
    mmm::Result<mmm::CompactionReport> compacted = [&] {
      ScopedSpan span(&ctx->tracer, "service.compact_chains", version);
      return service->CompactChains(policy);
    }();
    ctx->m.compaction_ms += MsBetween(start, Clock::now());
    MMM_RETURN_NOT_OK(compacted.status());
    ctx->m.compactions += compacted->sets_rebased > 0 ? 1 : 0;
    ctx->m.compaction_bytes += compacted->bytes_written;
    while (live.size() > kFleetLive) {
      live.erase(live.begin());
      live_digests.erase(live_digests.begin());
    }
    start = Clock::now();
    mmm::Result<mmm::DeleteReport> retained = [&] {
      ScopedSpan span(&ctx->tracer, "service.retain_only", version);
      return service->RetainOnly(live);
    }();
    ctx->m.retain_ms += MsBetween(start, Clock::now());
    MMM_RETURN_NOT_OK(retained.status());
    ctx->m.gc_steps += 1;
    ctx->m.sets_deleted += retained->sets_deleted;
    ctx->m.invalidated += service->cache_stats().invalidated - invalidated_start;
    maintenance_io = maintenance_io + (IoOf(manager) - io_start);
    return Status::OK();
  };

  uint64_t tick = 0;
  const int saver_steps =
      std::max(2, static_cast<int>(open_s / (kFleetSaveEveryS / 2)) - 1);
  for (int cycle = 0; cycle < kFleetCycles; ++cycle) {
    if (cycle > 0) {
      SaveTally scratch_saves;
      MMM_ASSIGN_OR_RETURN(FleetStore scratch,
                           SetUpFleet(ctx, gen, cycle, &scratch_saves));
      scratch.service.reset();
      scratch.manager.reset();
      std::filesystem::remove_all(scratch.dir);
    }
    const Io io_before = IoOf(manager);
    const Io maintenance_before = maintenance_io;
    const uint64_t evictions_before = service->cache_stats().evictions;
    Status saver_status = Status::OK();
    // A fixed number of steps per block keeps the versions saved, and so
    // the compactions and stored bytes, the same on every run.
    std::thread saver([&] {
      Clock::time_point due = Clock::now();
      for (int step = 0; step < saver_steps; ++step) {
        due += std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(kFleetSaveEveryS / 2));
        std::this_thread::sleep_until(due);
        saver_status = tick++ % 2 == 0 ? save_step() : gc_step();
        if (!saver_status.ok()) break;
      }
    });
    OpenLoopResult loop =
        RunOpenLoop(kFleetRatePerS, open_s, kServeWorkers, serve_from(next));
    saver.join();
    MMM_RETURN_NOT_OK(saver_status);
    ctx->m.saves.EndCycle();
    next += loop.requests.size();
    AddOpenLoop(&ctx->m, loop);
    // Closed-loop capacity of the settled store, saver stopped, after one
    // untimed pass refills the cache entries the last step invalidated.
    Warm(service, live, live_digests, &ctx->tracer);
    ClosedLoopResult closed =
        RunClosedLoop(kServeWorkers, capacity_s, serve_from(next));
    next += closed.requests.size();
    ctx->m.capacity_rps.push_back(Throughput(closed));
    ctx->m.recover_io = ctx->m.recover_io + (IoOf(manager) - io_before) -
                        (maintenance_io - maintenance_before);
    ctx->m.cache_evictions +=
        service->cache_stats().evictions - evictions_before;
  }
  ctx->m.stored_bytes_per_user_byte =
      Ratio(static_cast<double>(DirectoryBytes(served.dir)),
            static_cast<double>(LogicalBytes(chain.newest) * live.size()));
  ctx->ReplayRecoveries(manager, live, live_digests);
  ctx->ReplaySaves(manager);
  return Status::OK();
}

// ---- save-chain -----------------------------------------------------------

Status RunSaveChain(Context* ctx) {
  const RunConfig& config = ctx->config;
  VersionGen gen(config.seed);
  ModelSetManager::Options options;
  options.cas.enabled = true;
  // 32 KiB chunks instead of the default 8 KiB: a quarter of the chunk
  // files per save, so ext4 metadata work, which drifts on a shared host,
  // no longer dominates the save figures.
  options.cas.min_chunk_bytes = 8192;
  options.cas.avg_chunk_bytes = 32768;
  options.cas.max_chunk_bytes = 131072;
  options.blob_compression = mmm::Compression::kShuffleLz;
  options.pipeline.lanes = 2;
  mmm::CompactionPolicy auto_policy;
  auto_policy.max_chain_depth = kChainMaxDepth;
  options.auto_compaction = auto_policy;

  ctx->Knob("versions_per_round", static_cast<double>(kChainVersions));
  ctx->Knob("threads", "1 saver (2 pipeline lanes), then 1 recovery client");
  ctx->Knob("auto_compaction_max_depth", static_cast<double>(kChainMaxDepth));

  const std::vector<uint32_t> order =
      RequestTrace("save-chain", config.seed, kChainVersions);
  const Clock::time_point start = Clock::now();
  double last_round_s = 0;
  std::vector<double> stored_ratio;
  std::vector<double> dedup;
  std::vector<double> chunk_bytes;
  std::vector<double> plain_save_ms;
  std::vector<std::pair<double, uint64_t>> compacting;  // wall ms, extra bytes
  uint64_t request = 0;
  Io io_recover;
  for (size_t round = 0;; ++round) {
    const double elapsed = SecondsSince(start);
    if (round > 0 && elapsed + last_round_s > config.seconds) break;
    // Each round is one cycle. Set-up: generate every version's expected
    // content and open a fresh store.
    const Clock::time_point round_start = Clock::now();
    std::vector<uint64_t> digests;
    ModelSet set = gen.Initial();
    for (size_t v = 0; v < kChainVersions; ++v) {
      if (v > 0) gen.Advance(&set, v);
      digests.push_back(ContentDigest(set));
    }
    const std::string dir = ctx->StoreDir("save-chain-" + std::to_string(round));
    std::unique_ptr<ModelSetManager> manager = OpenStore(options, dir);
    ctx->m.setup_s.push_back(SecondsSince(round_start));

    std::vector<std::string> ids;
    set = gen.Initial();
    for (size_t v = 0; v < kChainVersions; ++v) {
      mmm::ModelSetUpdateInfo update;
      if (v > 0) {
        update = gen.Advance(&set, v);
        update.base_set_id = ids.back();
      }
      const Io before = IoOf(manager.get());
      mmm::Result<mmm::SaveResult> saved = ctx->m.saves.Run(
          set, &ctx->tracer, v == 0, [&] {
            return v == 0 ? manager->SaveInitial(ApproachType::kUpdate, set)
                          : manager->SaveDerived(ApproachType::kUpdate, set,
                                                 update);
          });
      MMM_RETURN_NOT_OK(saved.status());
      ids.push_back(saved->set_id);
      const Io written = IoOf(manager.get()) - before;
      const uint64_t total = written.file.bytes_written + written.doc.bytes_written;
      if (v == 0) continue;
      if (saved->chain_depth > kChainMaxDepth) {
        compacting.emplace_back(ctx->m.saves.wall_ms.back(),
                                total - std::min(total, saved->bytes_written));
      } else {
        plain_save_ms.push_back(ctx->m.saves.wall_ms.back());
      }
    }
    ctx->m.saves.EndCycle();
    // One client recovers every version once, in a seeded order; the
    // serving cache is off, so every read goes through CAS and LZ.
    mmm::ModelSetServiceOptions serve_options;
    serve_options.cache_enabled = false;
    ModelSetService service(manager.get(), serve_options);
    const Io io_start = IoOf(manager.get());
    uint64_t served_ok = 0;
    double pass_ms = 0;
    for (uint32_t v : order) {
      const uint64_t id = request++;
      ScopedSpan span(&ctx->tracer, "request", id);
      const Clock::time_point began = Clock::now();
      Clock::time_point done;
      served_ok += ServeOne(&service, ids[v], digests[v], &ctx->m.serve,
                            &ctx->tracer, id, span.id(), &done)
                       ? 1
                       : 0;
      ctx->m.recover_latency_ms.push_back(MsBetween(began, done));
      pass_ms += ctx->m.recover_latency_ms.back();
    }
    ctx->m.capacity_rps.push_back(
        Ratio(static_cast<double>(served_ok), pass_ms / 1e3));
    ctx->m.recover_cycle_ends.push_back(ctx->m.recover_latency_ms.size());
    io_recover = io_recover + (IoOf(manager.get()) - io_start);
    stored_ratio.push_back(Ratio(
        static_cast<double>(DirectoryBytes(dir)),
        static_cast<double>(LogicalBytes(set) * kChainVersions)));
    if (manager->cas() != nullptr) {
      mmm::CasStore::Stats cas = manager->cas()->ComputeStats().ValueOrDie();
      dedup.push_back(cas.dedup_ratio());
      chunk_bytes.push_back(static_cast<double>(cas.chunk_bytes) /
                            static_cast<double>(kChainVersions));
    }
    if (round == 0) {  // traced runs replay from the first round's store
      ctx->ReplayRecoveries(manager.get(), ids, digests);
      ctx->ReplaySaves(manager.get());
    }
    manager.reset();
    std::filesystem::remove_all(dir);
    last_round_s = SecondsSince(round_start);
  }
  ctx->m.recover_io = io_recover;
  ctx->m.stored_bytes_per_user_byte = Median(stored_ratio);
  ctx->m.dedup_ratio = Median(dedup);
  ctx->m.chunk_bytes_per_save = static_cast<uint64_t>(Median(chunk_bytes));
  const double plain_ms = Median(plain_save_ms);
  for (const auto& [ms, bytes] : compacting) {
    ctx->m.compactions += 1;
    ctx->m.compaction_ms += std::max(0.0, ms - plain_ms);
    ctx->m.compaction_bytes += bytes;
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"serve-cold", "save-chain", "fleet-mixed"};
}

std::vector<uint32_t> RequestTrace(const std::string& workload, uint64_t seed,
                                   size_t count) {
  mmm::Rng rng = mmm::Rng(seed).Fork(workload);
  std::vector<uint32_t> trace;
  trace.reserve(count);
  if (workload == "fleet-mixed") {
    mmm::ZipfianSampler zipf(kFleetLive, kFleetTheta);
    for (size_t i = 0; i < count; ++i) {
      trace.push_back(static_cast<uint32_t>(zipf.Sample(&rng)));
    }
  } else {
    // Uniform popularity as back-to-back seeded permutations, so every run
    // draws each version equally often and seeds differ only in order.
    const size_t versions =
        workload == "save-chain" ? kChainVersions : kColdVersions;
    while (trace.size() < count) {
      for (size_t v : rng.Permutation(versions)) {
        if (trace.size() < count) trace.push_back(static_cast<uint32_t>(v));
      }
    }
  }
  return trace;
}

mmm::Result<RunReport> RunWorkload(const RunConfig& config) {
  Status (*run)(Context*) = nullptr;
  if (config.workload == "serve-cold") run = RunServeCold;
  if (config.workload == "save-chain") run = RunSaveChain;
  if (config.workload == "fleet-mixed") run = RunFleetMixed;
  if (run == nullptr) {
    return Status::InvalidArgument("unknown workload '", config.workload, "'");
  }
  std::filesystem::remove_all(config.work_dir);
  std::filesystem::create_directories(config.work_dir);
  Context ctx(config);
  Status status = run(&ctx);
  std::filesystem::remove_all(config.work_dir);
  MMM_RETURN_NOT_OK(status);
  ctx.Finish();
  return std::move(ctx.report);
}

}  // namespace perfbench
