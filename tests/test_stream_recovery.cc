// Recovery read-path (DESIGN.md §12) bit-exactness, fault and accounting
// tests.
//
// Every recovery streams its blobs window-by-window through the incremental
// decoders. It must return exactly the sets that were saved, bit for bit, at
// every lane and worker count, with CAS on or off and with or without
// compression; under faults and corruption it must reject exactly where the
// materializing decoders (DecompressBlob, DecodeParamBlob, ...) reject. The
// peak-buffering test pins the point of streaming (no whole-snapshot
// buffers), and the accounting tests pin what an Update recovery reads.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "cas/blob_io.h"
#include "common/strings.h"
#include "core/blob_formats.h"
#include "core/manager.h"
#include "core/set_codec.h"
#include "serialize/compress.h"
#include "serve/service.h"
#include "serve/trace.h"
#include "storage/env.h"
#include "storage/stream_file.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace mmm {
namespace {

using ::mmm::testing::TempDir;

void ExpectSetsEqual(const ModelSet& a, const ModelSet& b,
                     const std::string& label) {
  ASSERT_EQ(a.models.size(), b.models.size()) << label;
  for (size_t m = 0; m < a.models.size(); ++m) {
    ASSERT_EQ(a.models[m].size(), b.models[m].size()) << label << " model " << m;
    for (size_t p = 0; p < a.models[m].size(); ++p) {
      EXPECT_EQ(a.models[m][p].first, b.models[m][p].first)
          << label << " model " << m << " param " << p;
      EXPECT_TRUE(a.models[m][p].second.Equals(b.models[m][p].second))
          << label << " model " << m << " param " << p << " ("
          << a.models[m][p].first << ") differs";
    }
  }
}

struct StoreFixture {
  std::unique_ptr<MultiModelScenario> scenario;
  /// Saved ids, oldest first, across all four approaches and the version
  /// chain (initial + 2 derived cycles per approach).
  std::vector<std::string> ids;
  /// The set each id was saved from (parallel to `ids`): the ground truth
  /// every recovery must reproduce bit-exactly.
  std::vector<ModelSet> saved;
};

/// Builds a store at `root` holding an initial set plus two update cycles
/// for every approach, then closes the writing manager (managers hold the
/// journal lock, so only one may be open on a root at a time).
StoreFixture BuildStore(const std::string& root, Env* env, bool cas_enabled,
                        Compression compression) {
  StoreFixture fixture;
  ScenarioConfig config = ScenarioConfig::Battery(6);
  config.samples_per_dataset = 32;
  fixture.scenario = std::make_unique<MultiModelScenario>(config);
  fixture.scenario->Init().Check();

  ModelSetManager::Options options;
  options.root_dir = root;
  options.env = env;
  options.resolver = fixture.scenario.get();
  options.cas.enabled = cas_enabled;
  options.blob_compression = compression;
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  std::map<ApproachType, std::string> heads;
  for (ApproachType type : kAllApproaches) {
    std::string id = manager->SaveInitial(type, fixture.scenario->current_set())
                         .ValueOrDie()
                         .set_id;
    heads[type] = id;
    fixture.ids.push_back(id);
    fixture.saved.push_back(fixture.scenario->current_set());
  }
  for (int cycle = 0; cycle < 2; ++cycle) {
    ModelSetUpdateInfo update = fixture.scenario->AdvanceCycle().ValueOrDie();
    for (ApproachType type : kAllApproaches) {
      update.base_set_id = heads[type];
      std::string id = manager
                           ->SaveDerived(type, fixture.scenario->current_set(),
                                         update)
                           .ValueOrDie()
                           .set_id;
      heads[type] = id;
      fixture.ids.push_back(id);
      fixture.saved.push_back(fixture.scenario->current_set());
    }
  }
  return fixture;
}

/// Recovers every id with one manager configuration; the manager is opened
/// and closed inside so runs never contend for the journal lock.
std::vector<ModelSet> RecoverAll(const std::string& root, Env* env,
                                 DatasetResolver* resolver,
                                 const std::vector<std::string>& ids,
                                 size_t lanes, uint64_t window_bytes = 0) {
  ModelSetManager::Options options;
  options.root_dir = root;
  options.env = env;
  options.resolver = resolver;
  options.stream_window_bytes = window_bytes;
  options.pipeline.lanes = lanes;
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  std::vector<ModelSet> sets;
  sets.reserve(ids.size());
  for (const std::string& id : ids) {
    sets.push_back(manager->Recover(id).ValueOrDie());
  }
  return sets;
}

void ExpectMatchesSaved(const StoreFixture& fixture,
                        const std::vector<ModelSet>& got,
                        const std::string& label) {
  ASSERT_EQ(got.size(), fixture.saved.size()) << label;
  for (size_t i = 0; i < got.size(); ++i) {
    ExpectSetsEqual(fixture.saved[i], got[i],
                    label + " set " + fixture.ids[i]);
  }
}

/// All four approaches × lanes {1, 4} × CAS {off, on} × compression
/// {none, lz} recover exactly the saved sets.
TEST(StreamRecoveryTest, BitExactAcrossApproachesLanesCasCompression) {
  for (bool cas : {false, true}) {
    for (Compression compression : {Compression::kNone, Compression::kLz}) {
      SCOPED_TRACE(::testing::Message()
                   << "cas=" << cas << " compression="
                   << static_cast<int>(compression));
      TempDir dir("stream-bitexact");
      StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                        cas, compression);
      for (size_t lanes : {size_t{1}, size_t{4}}) {
        ExpectMatchesSaved(
            fixture,
            RecoverAll(dir.path() + "/store", Env::Default(),
                       fixture.scenario.get(), fixture.ids, lanes),
            StringFormat("lanes=%zu", lanes));
      }
    }
  }
}

/// Tiny stream windows force many ReadFileRange calls and exercise every
/// window-boundary path in the incremental decoders; results must still be
/// bit-exact.
TEST(StreamRecoveryTest, BitExactAtTinyWindowSizes) {
  TempDir dir("stream-window");
  StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                    /*cas_enabled=*/true, Compression::kLz);
  for (uint64_t window : {uint64_t{64}, uint64_t{4096}}) {
    ExpectMatchesSaved(
        fixture,
        RecoverAll(dir.path() + "/store", Env::Default(),
                   fixture.scenario.get(), fixture.ids, /*lanes=*/1, window),
        StringFormat("window=%llu", static_cast<unsigned long long>(window)));
  }
}

/// Serving-layer parity: Replay at workers {1, 4} serves exactly the saved
/// sets.
TEST(StreamRecoveryTest, BitExactThroughServiceWorkers) {
  TempDir dir("stream-workers");
  StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                    /*cas_enabled=*/false, Compression::kNone);
  for (size_t workers : {size_t{1}, size_t{4}}) {
    ModelSetManager::Options options;
    options.root_dir = dir.path() + "/store";
    options.resolver = fixture.scenario.get();
    auto manager = ModelSetManager::Open(options).ValueOrDie();
    ModelSetServiceOptions service_options;
    service_options.workers = workers;
    ModelSetService service(manager.get(), service_options);
    std::vector<ModelSet> recovered;
    std::vector<ServeResult> results = service.Replay(fixture.ids, &recovered);
    ASSERT_EQ(results.size(), fixture.ids.size());
    for (const ServeResult& r : results) {
      ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    }
    ExpectMatchesSaved(fixture, recovered,
                       StringFormat("workers=%zu", workers));
  }
}

/// Streaming admits each finished layer to the LayerCache while the blob is
/// still in flight; a warm replay must therefore hit the cache and still be
/// bit-exact.
TEST(StreamRecoveryTest, EarlyLayerAdmissionFillsCache) {
  TempDir dir("stream-cache");
  StoreFixture fixture = BuildStore(dir.path() + "/store", Env::Default(),
                                    /*cas_enabled=*/false, Compression::kNone);
  // Only Update sets have the cached recovery path; pick its chain.
  std::vector<std::string> chain;
  std::vector<ModelSet> chain_saved;
  for (size_t i = 0; i < fixture.ids.size(); ++i) {
    // BuildStore pushes approaches in kAllApproaches order; kUpdate is
    // index 2 within each group of 4.
    if (i % 4 == 2) {
      chain.push_back(fixture.ids[i]);
      chain_saved.push_back(fixture.saved[i]);
    }
  }
  ASSERT_EQ(chain.size(), 3u);

  ModelSetManager::Options options;
  options.root_dir = dir.path() + "/store";
  options.resolver = fixture.scenario.get();
  auto manager = ModelSetManager::Open(options).ValueOrDie();
  ModelSetServiceOptions service_options;
  service_options.workers = 1;
  service_options.cache_enabled = true;
  service_options.cache_capacity_bytes = 256ull * 1024 * 1024;
  ModelSetService service(manager.get(), service_options);

  // Cold pass populates the cache from inside the streaming decode; the
  // warm pass must take layer hits.
  std::vector<ModelSet> cold_sets;
  std::vector<ServeResult> cold = service.Replay(chain, &cold_sets);
  for (const ServeResult& r : cold) ASSERT_TRUE(r.status.ok());
  std::vector<ModelSet> warm_sets;
  std::vector<ServeResult> warm = service.Replay(chain, &warm_sets);
  uint64_t warm_hits = 0;
  for (const ServeResult& r : warm) {
    ASSERT_TRUE(r.status.ok());
    warm_hits += r.cache.layer_hits;
  }
  EXPECT_GT(warm_hits, 0u);
  for (size_t i = 0; i < chain.size(); ++i) {
    ExpectSetsEqual(chain_saved[i], cold_sets[i],
                    StringFormat("cold replay of %s", chain[i].c_str()));
    ExpectSetsEqual(chain_saved[i], warm_sets[i],
                    StringFormat("warm replay of %s", chain[i].c_str()));
  }
}

/// Shard-kill fault (blobs subtree unreachable): recovery and the
/// materializing blob read both fail cleanly with a non-OK status, and
/// after healing every set recovers exactly as saved. Streaming must not
/// mask or reorder fault surfacing.
TEST(StreamRecoveryTest, FaultedBlobDirFailsCleanlyBothPaths) {
  TempDir dir("stream-fault");
  FaultInjectionEnv fault(Env::Default());
  const std::string root = dir.path() + "/store";
  StoreFixture fixture = BuildStore(root, &fault, /*cas_enabled=*/false,
                                    Compression::kLz);

  ModelSetManager::Options options;
  options.root_dir = root;
  options.env = &fault;
  options.resolver = fixture.scenario.get();
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  // Baseline's initial set (ids[1]) must read its param blob.
  const std::string param_blob = fixture.ids[1] + ".params.bin";
  fault.FailPathsUnder(root + "/blobs");
  EXPECT_FALSE(manager->Recover(fixture.ids[1]).ok());
  EXPECT_FALSE(CasReadBlob(manager->file_store(), param_blob).ok());
  fault.HealPaths();

  ASSERT_TRUE(CasReadBlob(manager->file_store(), param_blob).ok());
  for (size_t i = 0; i < fixture.ids.size(); ++i) {
    Result<ModelSet> up = manager->Recover(fixture.ids[i]);
    ASSERT_TRUE(up.ok()) << up.status().ToString();
    ExpectSetsEqual(fixture.saved[i], up.ValueOrDie(),
                    "healed set " + fixture.ids[i]);
  }
}

/// True when recovering `id` reads the blobs of set `owner`: `owner` lies
/// on the path from `id` down to its nearest full snapshot.
bool RecoveryReadsSet(const StoreContext& context, std::string id,
                      const std::string& owner) {
  while (true) {
    SetDocument doc = FetchSetDocument(context, id).ValueOrDie();
    if (doc.id == owner) return true;
    if (doc.kind == "full") return false;
    id = doc.base_set_id;
  }
}

/// Short read (a parameter blob truncated on disk after a partial crash):
/// recovery must reject — never return a short or padded set — exactly the
/// sets whose recovery reads the victim blob, and it must agree with the
/// materializing decoders run on that blob.
TEST(StreamRecoveryTest, TruncatedBlobRejectedByBothPaths) {
  TempDir dir("stream-trunc");
  const std::string root = dir.path() + "/store";
  StoreFixture fixture = BuildStore(root, Env::Default(), /*cas_enabled=*/false,
                                    Compression::kNone);

  // Truncate the largest parameter blob to half its size, emulating a torn
  // write that fsync never covered.
  const std::string suffix = ".params.bin";
  std::string victim;
  uintmax_t victim_size = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/blobs")) {
    const std::string name = entry.path().filename().string();
    if (!entry.is_regular_file() || !name.ends_with(suffix)) continue;
    if (entry.file_size() > victim_size) {
      victim_size = entry.file_size();
      victim = name;
    }
  }
  ASSERT_FALSE(victim.empty());
  std::filesystem::resize_file(root + "/blobs/" + victim, victim_size / 2);
  const std::string owner = victim.substr(0, victim.size() - suffix.size());

  ModelSetManager::Options options;
  options.root_dir = root;
  options.resolver = fixture.scenario.get();
  auto manager = ModelSetManager::Open(options).ValueOrDie();

  // Oracle: the materializing decoders on the victim blob.
  SetDocument owner_doc =
      FetchSetDocument(manager->context(), owner).ValueOrDie();
  ArchitectureSpec spec =
      ReadSnapshotSpec(manager->context(), owner_doc).ValueOrDie();
  bool victim_decodes = [&] {
    auto stored = CasReadBlob(manager->file_store(), victim);
    if (!stored.ok()) return false;
    auto blob = DecompressBlob(stored.ValueOrDie());
    return blob.ok() && DecodeParamBlob(spec, blob.ValueOrDie()).ok();
  }();
  EXPECT_FALSE(victim_decodes) << "the decoders accept a truncated blob";

  size_t rejected = 0;
  for (size_t i = 0; i < fixture.ids.size(); ++i) {
    const std::string& id = fixture.ids[i];
    const bool expect_ok =
        victim_decodes || !RecoveryReadsSet(manager->context(), id, owner);
    Result<ModelSet> streamed = manager->Recover(id);
    ASSERT_EQ(expect_ok, streamed.ok())
        << "set " << id << ": decoders " << (expect_ok ? "accept" : "reject")
        << ", recovery " << streamed.status().ToString();
    if (streamed.ok()) {
      ExpectSetsEqual(fixture.saved[i], streamed.ValueOrDie(), "set " + id);
    } else {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u) << "truncation hit no recovery path";
}

/// The point of streaming: peak decoder buffering stays at roughly one
/// layer, not the whole decompressed blob.
TEST(StreamRecoveryTest, PeakBufferingIsOneLayerNotWholeBlob) {
  auto set = MakeInitializedSet(Ffnn48Spec(), 16, /*seed=*/11).ValueOrDie();
  std::vector<uint8_t> raw = EncodeParamBlob(set);
  std::vector<uint8_t> blob = CompressBlob(Compression::kLz, raw);

  size_t max_layer_bytes = 0;
  for (const auto& [key, tensor] : set.models[0]) {
    max_layer_bytes =
        std::max(max_layer_bytes, tensor.data().size() * sizeof(float));
  }

  BlobDecompressor decompressor;
  size_t emitted = 0;
  ParamBlobStreamDecoder decoder(
      set.spec, raw.size(),
      [&](size_t, size_t, const std::string&, Tensor) {
        ++emitted;
        return Status::OK();
      });
  std::vector<uint8_t> ready;
  const size_t chunk = 64 * 1024;
  for (size_t off = 0; off < blob.size(); off += chunk) {
    size_t n = std::min(chunk, blob.size() - off);
    ready.clear();
    ASSERT_TRUE(
        decompressor.Feed(std::span<const uint8_t>(blob.data() + off, n), &ready)
            .ok());
    ASSERT_TRUE(decoder.Feed(ready).ok());
  }
  ready.clear();
  ASSERT_TRUE(decompressor.Finish(&ready).ok());
  ASSERT_TRUE(decoder.Feed(ready).ok());
  ASSERT_TRUE(decoder.Finish().ok());
  EXPECT_EQ(emitted, set.models.size() * set.models[0].size());

  // One layer plus bounded slack — far below the whole blob.
  EXPECT_LE(decoder.peak_buffered_bytes(), max_layer_bytes + 4096);
  EXPECT_LT(decoder.peak_buffered_bytes(), raw.size() / 4);
  // The LZ window retains at most kMaxOffset bytes plus chunk slack.
  EXPECT_LT(decompressor.peak_buffered_bytes(), raw.size());
}

// ---- What an Update recovery reads ----------------------------------------

/// A cache that never hits and admits nothing: every cached recovery
/// through it is cold.
class ColdCache : public RecoveryCache {
 public:
  bool GetLayer(const Sha256Digest&, Tensor*) override { return false; }
  void PutLayer(const Sha256Digest&, const Tensor&) override {}
  bool GetSetMeta(const std::string&, HashTable*, ArchitectureSpec*) override {
    return false;
  }
  void PutSetMeta(const std::string&, const HashTable&,
                  const ArchitectureSpec&) override {}
};

/// An Update chain of `kDepth` deltas over one full snapshot, saved with the
/// server latency profile so every store op has a nonzero modeled cost.
class RecoveryAccountingTest : public ::testing::Test {
 protected:
  static constexpr size_t kDepth = 3;

  void SetUp() override {
    ScenarioConfig config = ScenarioConfig::Battery(6);
    config.samples_per_dataset = 32;
    scenario_ = std::make_unique<MultiModelScenario>(config);
    ASSERT_OK(scenario_->Init());
    ModelSetManager::Options options;
    options.root_dir = "/store";
    options.env = &env_;
    options.resolver = scenario_.get();
    options.profile = SetupProfile::Server();
    ASSERT_OK_AND_ASSIGN(manager_, ModelSetManager::Open(options));
    ASSERT_OK_AND_ASSIGN(SaveResult root,
                         manager_->SaveInitial(ApproachType::kUpdate,
                                               scenario_->current_set()));
    chain_.push_back(root.set_id);
    for (size_t d = 0; d < kDepth; ++d) {
      ASSERT_OK_AND_ASSIGN(ModelSetUpdateInfo update,
                           scenario_->AdvanceCycle());
      update.base_set_id = chain_.back();
      ASSERT_OK_AND_ASSIGN(SaveResult saved,
                           manager_->SaveDerived(ApproachType::kUpdate,
                                                 scenario_->current_set(),
                                                 update));
      chain_.push_back(saved.set_id);
    }
  }

  /// Bytes the document store charges for fetching set `id`.
  uint64_t DocBytes(const std::string& id) {
    return manager_->doc_store()->Get(kSetCollection, id).ValueOrDie()
        .Dump()
        .size();
  }

  uint64_t BlobBytes(const std::string& name) {
    return manager_->file_store()->Size(name).ValueOrDie();
  }

  SetDocument Doc(size_t depth) {
    return FetchSetDocument(manager_->context(), chain_[depth]).ValueOrDie();
  }

  InMemoryEnv env_;
  std::unique_ptr<MultiModelScenario> scenario_;
  std::unique_ptr<ModelSetManager> manager_;
  /// chain_[k] is the set k deltas above the root snapshot.
  std::vector<std::string> chain_;
};

/// An uncached recovery at depth d reads d+1 documents, the root's
/// architecture and parameter blobs and d diff blobs — each exactly once,
/// with exactly its stored bytes — and no hash blob. Its modeled store time
/// is the latency model summed over exactly those reads.
TEST_F(RecoveryAccountingTest, UncachedUpdateRecoveryReadsExactlyItsChain) {
  const SetupProfile profile = SetupProfile::Server();
  for (size_t depth = 0; depth <= kDepth; ++depth) {
    SCOPED_TRACE(::testing::Message() << "depth=" << depth);
    StoreStats want_docs;
    StoreStats want_files;
    uint64_t want_nanos = 0;
    auto doc_read = [&](uint64_t bytes) {
      want_docs.read_ops += 1;
      want_docs.bytes_read += bytes;
      want_nanos += profile.document_store.CostNanos(bytes);
    };
    auto file_read = [&](uint64_t bytes) {
      want_files.read_ops += 1;
      want_files.bytes_read += bytes;
      want_nanos += profile.file_store.CostNanos(bytes);
    };
    for (size_t k = 0; k <= depth; ++k) doc_read(DocBytes(chain_[k]));
    file_read(BlobBytes(Doc(0).arch_blob));
    file_read(BlobBytes(Doc(0).param_blob));
    for (size_t k = 1; k <= depth; ++k) file_read(BlobBytes(Doc(k).diff_blob));

    StoreStats docs_before = manager_->doc_store()->stats();
    StoreStats files_before = manager_->file_store()->stats();
    RecoverStats stats;
    ASSERT_OK_AND_ASSIGN(ModelSet set, manager_->update_approach()->Recover(
                                           chain_[depth], &stats));
    StoreStats docs = manager_->doc_store()->stats() - docs_before;
    StoreStats files = manager_->file_store()->stats() - files_before;

    EXPECT_EQ(docs.read_ops, want_docs.read_ops);
    EXPECT_EQ(docs.bytes_read, want_docs.bytes_read);
    EXPECT_EQ(files.read_ops, want_files.read_ops);
    EXPECT_EQ(files.bytes_read, want_files.bytes_read);
    EXPECT_EQ(docs.write_ops + files.write_ops, 0u);
    EXPECT_EQ(stats.simulated_store_nanos, want_nanos);
    EXPECT_EQ(stats.sets_recovered, depth + 1);
  }
}

/// A cold cached recovery resolves every chain member's metadata from the
/// store: one meta miss and one hash-blob read per member, on top of the
/// blobs the uncached recovery reads and the architecture re-read of each
/// member's chain-spec walk.
TEST_F(RecoveryAccountingTest, ColdCachedRecoveryReadsEachHashBlobOnce) {
  ColdCache cache;
  for (size_t depth = 0; depth <= kDepth; ++depth) {
    SCOPED_TRACE(::testing::Message() << "depth=" << depth);
    uint64_t want_ops = 0;
    uint64_t want_bytes = 0;
    auto file_read = [&](uint64_t bytes) {
      want_ops += 1;
      want_bytes += bytes;
    };
    file_read(BlobBytes(Doc(0).param_blob));
    for (size_t k = 0; k <= depth; ++k) {
      file_read(BlobBytes(Doc(k).hash_blob));
      file_read(BlobBytes(Doc(0).arch_blob));
      if (k > 0) file_read(BlobBytes(Doc(k).diff_blob));
    }

    StoreStats before = manager_->file_store()->stats();
    CacheRequestStats cache_stats;
    ASSERT_OK_AND_ASSIGN(
        ModelSet set, manager_->update_approach()->RecoverCached(
                          chain_[depth], &cache, nullptr, &cache_stats));
    StoreStats files = manager_->file_store()->stats() - before;

    EXPECT_EQ(cache_stats.meta_misses, depth + 1);
    EXPECT_EQ(cache_stats.meta_hits, 0u);
    EXPECT_EQ(cache_stats.sets_from_cache, 0u);
    EXPECT_EQ(files.read_ops, want_ops);
    EXPECT_EQ(files.bytes_read, want_bytes);
  }
}

}  // namespace
}  // namespace mmm
