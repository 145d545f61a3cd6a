#ifndef MMM_STORAGE_FILE_STORE_H_
#define MMM_STORAGE_FILE_STORE_H_

#include <span>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/env.h"
#include "storage/latency_model.h"
#include "storage/store_stats.h"
#include "storage/stream_file.h"

namespace mmm {

/// \brief Named-blob store backed by an Env directory.
///
/// This is the "file store" of the paper's storage architecture: parameter
/// blobs, architecture snapshots, and code artifacts live here. Every
/// operation updates StoreStats and charges the configured latency model to
/// the simulated clock, so benchmarks can report modeled store time per
/// approach.
class FileStore {
 public:
  /// \param env filesystem to use
  /// \param root directory all blobs live under (created on Open)
  /// \param latency per-op/per-byte cost model charged to `sim_clock`
  /// \param sim_clock modeled-time sink; may be nullptr to disable accounting
  FileStore(Env* env, std::string root, StoreLatencyModel latency = {},
            SimulatedClock* sim_clock = nullptr);

  /// Creates the root directory.
  Status Open();

  /// Writes a blob; overwrites silently. Blob names must be non-empty and
  /// must not contain '/'.
  Status Put(const std::string& name, std::span<const uint8_t> data);

  /// Writes a string blob.
  Status PutString(const std::string& name, std::string_view data);

  /// Reads a blob.
  Result<std::vector<uint8_t>> Get(const std::string& name);

  /// Reads a blob as a string.
  Result<std::string> GetString(const std::string& name);

  /// Reads `length` bytes of a blob starting at `offset` (one store
  /// round-trip; enables selective model recovery from set-level blobs).
  Result<std::vector<uint8_t>> GetRange(const std::string& name,
                                        uint64_t offset, uint64_t length);

  /// Opens a blob for pull-based windowed reading (DESIGN.md §12).
  ///
  /// Cost model: a stream is one sequential pass over the blob, so it is
  /// accounted exactly like Get — one read op and the blob's full byte
  /// count, charged here at open. The per-window Env::ReadFileRange calls
  /// carry no extra modeled cost (a sequential reader's windows are hidden
  /// by readahead); by construction, flipping a recovery between Get and
  /// OpenStream leaves StoreStats and modeled store time identical.
  ///
  /// `window_bytes == 0` selects kDefaultStreamWindowBytes.
  Result<StreamFile> OpenStream(const std::string& name,
                                uint64_t window_bytes = 0);

  /// Size of a stored blob in bytes.
  Result<uint64_t> Size(const std::string& name);

  Result<bool> Exists(const std::string& name);
  Status Delete(const std::string& name);

  /// \name Batched-write support (see storage/store_batch.h).
  /// @{

  /// Writes a blob like Put but defers all accounting to the caller: shared
  /// stats are untouched, nothing is charged to the simulated clock, and the
  /// op's counters and modeled cost are returned through `stats` /
  /// `cost_nanos` instead. Safe to call concurrently for distinct names —
  /// this is the entry point StoreBatch fans out across executor lanes.
  Status PutDetached(const std::string& name, std::span<const uint8_t> data,
                     StoreStats* stats, uint64_t* cost_nanos) const;

  /// Folds a batch's merged per-lane counters back into this store's stats
  /// and charges `charge_nanos` of modeled time (the batch's overlapped
  /// total) to the simulated clock.
  void MergeBatch(const StoreStats& delta, uint64_t charge_nanos);
  /// @}

  /// Names of all blobs, sorted.
  Result<std::vector<std::string>> List();

  /// Snapshot of the operation counters. Accounting is atomic, so the
  /// snapshot is race-free even while other threads read from the store.
  StoreStats stats() const { return stats_.Snapshot(); }
  void ResetStats() { stats_.Reset(); }

  const std::string& root() const { return root_; }

 private:
  Status ValidateName(const std::string& name) const;
  void Charge(uint64_t bytes);

  Env* env_;
  std::string root_;
  StoreLatencyModel latency_;
  SimulatedClock* sim_clock_;
  AtomicStoreStats stats_;
};

}  // namespace mmm

#endif  // MMM_STORAGE_FILE_STORE_H_
