// The benchmark's three workloads. Each drives the library only through its
// public API (ModelSetManager, ModelSetService and the layers' public
// functions) and reports end-to-end and per-layer metrics. See README.md
// beside this file for why each workload exists and what it measures.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/recovery_cache.h"
#include "harness.h"
#include "serve/service.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  /// Record spans, replay sampled requests stage by stage and report the
  /// per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  /// Scratch directory for the stores; created and removed by the run.
  std::string work_dir;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  ///< observations behind the value (0: a count)
};

struct RunReport {
  uint64_t attempted = 0;   ///< saves and recoveries issued
  uint64_t failed = 0;      ///< of which failed or returned wrong content
  uint64_t mismatches = 0;  ///< recoveries whose content digest was wrong
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Sizes and thread counts of the run, for the output stamp.
  std::vector<std::pair<std::string, std::string>> knobs;
  /// Per span name: calls, bytes, total and self time (traced runs only).
  std::string span_summary_json = "{}";
};

/// Names accepted by RunWorkload, in presentation order.
std::vector<std::string> WorkloadNames();

/// Runs one workload. Fails on an unknown name or when the store cannot be
/// set up; failed or wrong recoveries are counted in the report instead.
mmm::Result<RunReport> RunWorkload(const RunConfig& config);

/// The request trace a workload draws from `seed`: the version of each of
/// the first `count` requests. serve-cold and save-chain: uniform, as
/// seeded permutations of their versions; fleet-mixed: Zipf rank over the
/// live versions, 0 = newest.
std::vector<uint32_t> RequestTrace(const std::string& workload, uint64_t seed,
                                   size_t count);

/// \brief Recovery counters shared by the threads of one run.
struct ServeTally {
  std::mutex mu;
  std::vector<double> service_ms;  ///< ServeResult::wall_nanos, successes
  std::vector<double> modeled_ms;  ///< ServeResult::modeled_store_nanos
  uint64_t requests = 0;
  uint64_t failures = 0;    ///< Recover returned an error
  uint64_t mismatches = 0;  ///< Recover returned the wrong content
  uint64_t sets_walked = 0;
  mmm::CacheRequestStats cache;
};

/// Recovers `id` through `service`, checks the content digest against
/// `expected` and records the outcome in `tally`. True on a correct result.
/// `done` (optional) receives the time Recover returned, before the check.
bool ServeOne(mmm::ModelSetService* service, const std::string& id,
              uint64_t expected, ServeTally* tally, Tracer* tracer,
              uint64_t request, int64_t parent, Clock::time_point* done);

/// Adds a tally's requests, failures and mismatches to the report.
void CountServes(const ServeTally& tally, RunReport* report);

/// Share of attempted operations that succeeded with the right content
/// (1 - error rate).
double OkRatio(const RunReport& report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
