// Tests of the benchmark itself: seeded inputs, percentiles, open-loop
// timing and error counting. Run with `python3 perfbench/run.py --selftest`
// or directly as .bench_build/perfbench_selftest. Exits non-zero on the
// first failed check.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "content.h"
#include "core/manager.h"
#include "harness.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,      \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

std::vector<uint64_t> ChainDigests(uint64_t seed, size_t versions) {
  perfbench::VersionGen gen(seed, /*models=*/20);
  mmm::ModelSet set = gen.Initial();
  std::vector<uint64_t> digests{perfbench::ContentDigest(set)};
  for (size_t v = 1; v < versions; ++v) {
    gen.Advance(&set, v);
    digests.push_back(perfbench::ContentDigest(set));
  }
  return digests;
}

void TestSeedDeterminism() {
  // Same seed: identical content digests and request traces.
  CHECK(ChainDigests(7, 4) == ChainDigests(7, 4));
  for (const std::string& workload : perfbench::WorkloadNames()) {
    CHECK(perfbench::RequestTrace(workload, 7, 200) ==
          perfbench::RequestTrace(workload, 7, 200));
    CHECK(perfbench::RequestTrace(workload, 7, 200) !=
          perfbench::RequestTrace(workload, 8, 200));
  }
  // Another seed: different content, and every version differs from the
  // one before it.
  std::vector<uint64_t> a = ChainDigests(7, 4);
  std::vector<uint64_t> b = ChainDigests(8, 4);
  for (size_t v = 0; v < a.size(); ++v) {
    CHECK(a[v] != b[v]);
    if (v > 0) CHECK(a[v] != a[v - 1]);
  }
  // Each version retrains exactly 10% of the models, half of them fully.
  perfbench::VersionGen gen(7, /*models=*/40);
  mmm::ModelSet set = gen.Initial();
  mmm::ModelSetUpdateInfo update = gen.Advance(&set, 1);
  size_t full = 0, partial = 0;
  for (mmm::UpdateKind kind : update.kinds) {
    full += kind == mmm::UpdateKind::kFull ? 1 : 0;
    partial += kind == mmm::UpdateKind::kPartial ? 1 : 0;
  }
  CHECK(full == 2 && partial == 2);
}

void TestNearestRankPercentile() {
  std::vector<double> values = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  CHECK(perfbench::Percentile(values, 50) == 5);
  CHECK(perfbench::Percentile(values, 90) == 9);
  CHECK(perfbench::Percentile(values, 91) == 10);
  CHECK(perfbench::Percentile(values, 100) == 10);
  CHECK(perfbench::Percentile(values, 10) == 1);
  CHECK(perfbench::Percentile(values, 0.1) == 1);
  CHECK(perfbench::Median({4, 1, 3}) == 3);
  CHECK(perfbench::Median({4, 1}) == 1);
  CHECK(perfbench::Percentile({42}, 99) == 42);
  CHECK(perfbench::Percentile({}, 50) == 0);
}

void TestMedianOverCycles() {
  // Three cycles of four samples; the middle one is a burst of noise.
  const std::vector<double> values = {1, 2, 3, 4, 50, 60, 70, 80, 2, 3, 4, 5};
  CHECK(perfbench::MedianOverCycles(values, {4, 8}, 50) == 3);
  CHECK(perfbench::MedianOverCycles(values, {4, 8}, 90) == 5);
  CHECK(perfbench::Percentile(values, 90) == 70);  // pooled: the burst shows
  CHECK(perfbench::MedianOverCycles(values, {4, 8, 12}, 90) == 5);
  CHECK(perfbench::MedianOverCycles(values, {0, 4, 4, 8}, 90) == 5);
  CHECK(perfbench::MedianOverCycles(values, {}, 90) == 70);
  CHECK(perfbench::MedianOverCycles({}, {3}, 50) == 0);
}

void TestOpenLoopCountsQueueWaitFromDueTime() {
  // One worker, a request due every 10 ms, each taking 30 ms: request i
  // starts around 30i ms but was due at 10i ms, so its latency is about
  // 20i + 30 ms although the stub itself always takes 30 ms.
  constexpr double kRate = 100;
  constexpr double kServiceMs = 30;
  perfbench::OpenLoopResult result = perfbench::RunOpenLoop(
      kRate, 0.2, 1, [](uint64_t, perfbench::Clock::time_point*) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return true;
      });
  CHECK(result.requests.size() == 20);
  for (size_t i = 0; i < result.requests.size(); ++i) {
    const perfbench::RequestTiming& timing = result.requests[i];
    const double expected_wait = 20.0 * static_cast<double>(i);
    CHECK(timing.ok);
    CHECK(timing.queue_wait_ms >= expected_wait - 1);
    CHECK(timing.latency_ms >= expected_wait + kServiceMs - 1);
  }
  CHECK(result.backlog_max >= 10);
  // The same stub under a load it can carry never queues.
  perfbench::OpenLoopResult light = perfbench::RunOpenLoop(
      10, 0.3, 1, [](uint64_t, perfbench::Clock::time_point*) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return true;
      });
  CHECK(light.requests.size() == 3);
  CHECK(light.late_ms.size() >= 2);  // request 0 may find its worker starting
  for (const perfbench::RequestTiming& timing : light.requests) {
    CHECK(timing.queue_wait_ms < 15);
  }
}

void TestFailedRequestsCountAsErrors() {
  const std::string dir =
      ".bench_out/selftest-" + std::to_string(getpid());
  std::filesystem::remove_all(dir);
  {
    mmm::ModelSetManager::Options options;
    options.root_dir = dir;
    auto manager = mmm::ModelSetManager::Open(options).ValueOrDie();
    perfbench::VersionGen gen(3, /*models=*/10);
    mmm::ModelSet set = gen.Initial();
    const std::string id =
        manager->SaveInitial(mmm::ApproachType::kUpdate, set)
            .ValueOrDie()
            .set_id;
    const uint64_t digest = perfbench::ContentDigest(set);
    mmm::ModelSetService service(manager.get());
    perfbench::Tracer tracer(false);
    perfbench::ServeTally tally;
    CHECK(perfbench::ServeOne(&service, id, digest, &tally, &tracer, 0, -1,
                              nullptr));
    CHECK(!perfbench::ServeOne(&service, "no-such-set", digest, &tally,
                               &tracer, 1, -1, nullptr));
    CHECK(!perfbench::ServeOne(&service, id, digest + 1, &tally, &tracer, 2,
                               -1, nullptr));
    CHECK(tally.requests == 3);
    CHECK(tally.failures == 1);
    CHECK(tally.mismatches == 1);
    perfbench::RunReport report;
    perfbench::CountServes(tally, &report);
    CHECK(report.attempted == 3);
    CHECK(report.failed == 2);
    CHECK(report.mismatches == 1);
    CHECK(perfbench::OkRatio(report) > 0.33 &&
          perfbench::OkRatio(report) < 0.34);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace

int main() {
  TestSeedDeterminism();
  TestNearestRankPercentile();
  TestMedianOverCycles();
  TestOpenLoopCountsQueueWaitFromDueTime();
  TestFailedRequestsCountAsErrors();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
