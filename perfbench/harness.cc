#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

double MedianOverCycles(const std::vector<double>& values,
                        const std::vector<size_t>& cycle_ends, double p) {
  std::vector<double> per_cycle;
  size_t begin = 0;
  auto close = [&](size_t end) {
    end = std::min(end, values.size());
    if (end > begin) {
      per_cycle.push_back(Percentile(
          std::vector<double>(values.begin() + begin, values.begin() + end),
          p));
      begin = end;
    }
  };
  for (size_t end : cycle_ends) close(end);
  close(values.size());
  return Median(std::move(per_cycle));
}

namespace {

/// Calls `serve` and returns (ok, completion time).
std::pair<bool, Clock::time_point> Call(const ServeFn& serve, uint64_t index) {
  Clock::time_point done{};
  const bool ok = serve(index, &done);
  return {ok, done == Clock::time_point{} ? Clock::now() : done};
}

}  // namespace

OpenLoopResult RunOpenLoop(double rate_per_s, double seconds, size_t workers,
                           const ServeFn& serve) {
  const uint64_t count = static_cast<uint64_t>(seconds * rate_per_s);
  OpenLoopResult result;
  result.requests.resize(count);
  std::vector<std::vector<double>> late(workers);
  std::vector<uint64_t> backlog(workers, 0);
  std::atomic<uint64_t> next{0};
  // A short lead lets every worker reach its first wait before request 0.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  auto due_of = [&](uint64_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(
                           static_cast<double>(i) / rate_per_s));
  };

  auto worker = [&](size_t lane) {
    for (;;) {
      const uint64_t i = next.fetch_add(1);
      if (i >= count) return;
      const Clock::time_point due = due_of(i);
      Clock::time_point began = Clock::now();
      if (began < due) {
        std::this_thread::sleep_until(due);
        began = Clock::now();
        late[lane].push_back(MsBetween(due, began));
      } else {
        const double since_start =
            std::chrono::duration<double>(began - start).count();
        const uint64_t due_by_now = std::min<uint64_t>(
            count, static_cast<uint64_t>(since_start * rate_per_s) + 1);
        if (due_by_now > i) {
          backlog[lane] = std::max(backlog[lane], due_by_now - i);
        }
      }
      const auto [ok, done] = Call(serve, i);
      RequestTiming& timing = result.requests[i];
      timing.ok = ok;
      timing.latency_ms = MsBetween(due, done);
      timing.queue_wait_ms = std::max(0.0, MsBetween(due, began));
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers);
  for (size_t lane = 0; lane < workers; ++lane) {
    threads.emplace_back(worker, lane);
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t lane = 0; lane < workers; ++lane) {
    result.late_ms.insert(result.late_ms.end(), late[lane].begin(),
                          late[lane].end());
    result.backlog_max = std::max(result.backlog_max, backlog[lane]);
  }
  return result;
}

double Throughput(const ClosedLoopResult& run) {
  double total = 0;
  for (const auto& [ok, busy_s] : run.clients) {
    if (busy_s > 0) total += static_cast<double>(ok) / busy_s;
  }
  return total;
}

ClosedLoopResult RunClosedLoop(size_t clients, double seconds,
                               const ServeFn& serve) {
  ClosedLoopResult result;
  result.clients.resize(clients);
  std::vector<std::vector<RequestTiming>> per_client(clients);
  std::atomic<uint64_t> next{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  auto client = [&](size_t lane) {
    while (Clock::now() < deadline) {
      const uint64_t i = next.fetch_add(1);
      const Clock::time_point began = Clock::now();
      const auto [ok, done] = Call(serve, i);
      RequestTiming timing;
      timing.ok = ok;
      timing.latency_ms = MsBetween(began, done);
      per_client[lane].push_back(timing);
      result.clients[lane].first += ok ? 1 : 0;
      result.clients[lane].second += timing.latency_ms / 1e3;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t lane = 0; lane < clients; ++lane) {
    threads.emplace_back(client, lane);
  }
  for (std::thread& thread : threads) thread.join();
  for (const auto& timings : per_client) {
    result.requests.insert(result.requests.end(), timings.begin(),
                           timings.end());
  }
  return result;
}

int64_t Tracer::Begin(std::string_view name, uint64_t request,
                      int64_t parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.request = request;
  span.parent = parent;
  span.start = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::End(int64_t id, uint64_t bytes) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = now;
  span.bytes = bytes;
  span.closed = true;
}

std::map<std::string, Tracer::Totals> Tracer::Summary() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one parent run on the parent's thread, one after another,
  // so their durations add up without overlapping.
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.closed && span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] +=
          MsBetween(span.start, span.end);
    }
  }
  std::map<std::string, Totals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!span.closed) continue;
    Totals& entry = totals[span.name];
    const double duration = MsBetween(span.start, span.end);
    entry.calls += 1;
    entry.bytes += span.bytes;
    entry.total_ms += duration;
    entry.self_ms += std::max(0.0, duration - child_ms[i]);
  }
  return totals;
}

std::string Tracer::SummaryJson() const {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : Summary()) {
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\"%s\": {\"calls\": %llu, \"bytes\": %llu, "
                  "\"total_ms\": %.4f, \"self_ms\": %.4f}",
                  first ? "" : ", ", name.c_str(),
                  static_cast<unsigned long long>(entry.calls),
                  static_cast<unsigned long long>(entry.bytes), entry.total_ms,
                  entry.self_ms);
    out += buffer;
    first = false;
  }
  return out + "}";
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace perfbench
