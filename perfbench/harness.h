// Load generation, percentiles and in-memory spans for the end-to-end
// benchmark. Nothing here knows about model sets: the load generators call a
// `serve(index)` callback and record when each request was due, started and
// finished.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Nearest-rank percentile: the smallest sample such that at least `p`
/// percent of the samples are <= it (p in (0, 100]). 0 for no samples.
double Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).
double Median(std::vector<double> values);

/// Percentile `p` of each cycle's samples, then the median over cycles.
/// `values` holds the samples of every cycle in order; cycle k ends before
/// index `cycle_ends[k]` (samples after the last end form one more cycle;
/// empty cycles are skipped). A burst of host noise that falls in a few
/// cycles moves this less than the percentile of the pooled samples.
double MedianOverCycles(const std::vector<double>& values,
                        const std::vector<size_t>& cycle_ends, double p);

/// Serves request `index`; returns false when it failed. A callback that
/// does work after the operation itself (such as checking its result) sets
/// `*done` to when the operation completed; otherwise the load generator
/// takes the time the callback returned.
using ServeFn = std::function<bool(uint64_t index, Clock::time_point* done)>;

/// \brief Outcome of one request as the load generator saw it.
struct RequestTiming {
  double latency_ms = 0;     ///< completion - due time
  double queue_wait_ms = 0;  ///< start - due time (0 if started on time)
  bool ok = false;
};

/// \brief Result of an open-loop run.
struct OpenLoopResult {
  std::vector<RequestTiming> requests;  ///< in due order
  /// How late an idle worker woke for a request it was waiting on; one
  /// sample per request that found a worker idle.
  std::vector<double> late_ms;
  /// Most requests that were due but not yet started at any start.
  uint64_t backlog_max = 0;
};

/// Runs an open loop: request i is due at start + i / rate_per_s, for
/// floor(seconds * rate_per_s) requests, served by `workers` threads that
/// each take the next due request when they are free. Latency is measured
/// from the due time, so a stall delays (and is charged to) every request
/// queued behind it.
OpenLoopResult RunOpenLoop(double rate_per_s, double seconds, size_t workers,
                           const ServeFn& serve);

/// \brief Result of a closed-loop run.
struct ClosedLoopResult {
  std::vector<RequestTiming> requests;  ///< in completion order
  /// Per client: successful requests and seconds spent inside `serve`
  /// up to each request's completion time.
  std::vector<std::pair<uint64_t, double>> clients;
};

/// Closed-loop throughput of one run: per client, successful requests over
/// the time spent in them, summed over clients. Work a client does after a
/// request's completion time (checking its result) does not count against
/// the system under test.
double Throughput(const ClosedLoopResult& run);

/// Runs `clients` threads, each issuing its next request as soon as the
/// previous one returns, until `seconds` have passed. Request indices are
/// handed out in order across clients.
ClosedLoopResult RunClosedLoop(size_t clients, double seconds,
                               const ServeFn& serve);

/// \brief In-memory span recorder. Disabled, every call returns at once.
///
/// A span is (name, request id, start, end, parent). Spans are kept until
/// the run ends and summarised per name as calls, total and self time,
/// where self time is a span's duration minus that of its children.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id, or -1 when disabled.
  int64_t Begin(std::string_view name, uint64_t request, int64_t parent = -1);
  /// Closes span `id` (ignored for -1). `bytes` is work done inside it.
  void End(int64_t id, uint64_t bytes = 0);

  struct Totals {
    uint64_t calls = 0;
    uint64_t bytes = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  /// Per span name, over closed spans.
  std::map<std::string, Totals> Summary() const;

  /// Summary as a JSON object, one member per span name.
  std::string SummaryJson() const;

  size_t size() const;

 private:
  struct Span {
    std::string name;
    uint64_t request = 0;
    int64_t parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    uint64_t bytes = 0;
    bool closed = false;
  };
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string_view name, uint64_t request,
             int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_, bytes_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }
  void set_bytes(uint64_t bytes) { bytes_ = bytes; }

 private:
  Tracer* tracer_;
  int64_t id_;
  uint64_t bytes_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
