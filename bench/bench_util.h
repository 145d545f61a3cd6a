#ifndef MMM_BENCH_BENCH_UTIL_H_
#define MMM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "common/env_config.h"
#include "common/strings.h"
#include "core/manager.h"
#include "serialize/json.h"
#include "storage/env.h"
#include "workload/experiment.h"

namespace mmm::bench {

/// \brief Fixed-width ASCII table mirroring the paper's figures
/// (rows = use cases, columns = approaches).
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns)
      : title_(std::move(title)), columns_(std::move(columns)) {}

  void AddRow(const std::string& label, const std::vector<std::string>& cells) {
    rows_.push_back({label, cells});
  }

  void Print() const {
    std::printf("\n%s\n", title_.c_str());
    std::printf("%-10s", "");
    for (const auto& column : columns_) std::printf(" | %12s", column.c_str());
    std::printf("\n");
    std::printf("----------");
    for (size_t i = 0; i < columns_.size(); ++i) std::printf("-+-------------");
    std::printf("\n");
    for (const auto& [label, cells] : rows_) {
      std::printf("%-10s", label.c_str());
      for (const auto& cell : cells) std::printf(" | %12s", cell.c_str());
      std::printf("\n");
    }
  }

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::pair<std::string, std::vector<std::string>>> rows_;
};

inline std::vector<std::string> ApproachColumns() {
  return {"MMlib-base", "Baseline", "Update", "Provenance"};
}

/// Prints one metric of an experiment result as a paper-style table.
/// `select` extracts the cell value from ApproachMetrics.
template <typename Fn>
void PrintMetricTable(const std::string& title,
                      const std::vector<UseCaseResult>& results, Fn select) {
  Table table(title, ApproachColumns());
  for (const UseCaseResult& row : results) {
    std::vector<std::string> cells;
    for (ApproachType type : kAllApproaches) {
      auto it = row.metrics.find(type);
      cells.push_back(it == row.metrics.end() ? "-" : select(it->second));
    }
    table.AddRow(row.use_case, cells);
  }
  table.Print();
}

inline std::string Mb(uint64_t bytes) {
  return StringFormat("%.2f", static_cast<double>(bytes) / 1e6);
}

inline std::string Seconds(double s) { return StringFormat("%.3f", s); }

/// Common scaling knobs, shared by every figure bench.
struct BenchKnobs {
  size_t models;
  int runs;
  size_t u3_iterations;
  size_t samples;
  bool keep_artifacts;

  static BenchKnobs FromEnv(size_t default_models = 5000,
                            int default_runs = 3) {
    BenchKnobs knobs;
    knobs.models = static_cast<size_t>(
        GetEnvInt64("MMM_MODELS", static_cast<int64_t>(default_models)));
    knobs.runs = static_cast<int>(GetEnvInt64("MMM_RUNS", default_runs));
    knobs.u3_iterations =
        static_cast<size_t>(GetEnvInt64("MMM_U3_ITERATIONS", 3));
    knobs.samples = static_cast<size_t>(GetEnvInt64("MMM_SAMPLES", 256));
    knobs.keep_artifacts = GetEnvBool("MMM_KEEP_ARTIFACTS", false);
    return knobs;
  }

  void Describe(const char* bench_name) const {
    std::printf(
        "[%s] models=%zu runs=%d u3_iterations=%zu samples=%zu\n"
        "  (override with MMM_MODELS / MMM_RUNS / MMM_U3_ITERATIONS / "
        "MMM_SAMPLES; paper setting: 5000 models, 5 runs)\n",
        bench_name, models, runs, u3_iterations, samples);
  }
};

/// Writes `doc` pretty-printed (plus a trailing newline) to `file` in the
/// working directory and prints a "wrote <file>" line.
inline void WriteBenchJson(const std::string& file, const JsonValue& doc) {
  const std::string json = doc.DumpPretty() + "\n";
  Env::Default()
      ->WriteFile(file, std::span<const uint8_t>(
                            reinterpret_cast<const uint8_t*>(json.data()),
                            json.size()))
      .Check();
  std::printf("\nwrote %s\n", file.c_str());
}

/// Removes the experiment working directory unless MMM_KEEP_ARTIFACTS=1.
inline void CleanupWorkDir(const BenchKnobs& knobs, const std::string& dir) {
  if (!knobs.keep_artifacts) Env::Default()->RemoveDirs(dir).Check();
}

}  // namespace mmm::bench

#endif  // MMM_BENCH_BENCH_UTIL_H_
