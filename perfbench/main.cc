// mmmbench: runs one benchmark workload and prints its metrics.
//
//   mmmbench --workload serve-cold --seed 1 --seconds 20 --trace 0
//
// stdout ends with one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer ones
// with --trace 1. Lines before it stamp the host and run and list every
// metric with its unit and sample count. Exit code 1 means a recovery
// returned wrong content; 2 means the run could not be carried out.
#include <unistd.h>

#include <cpuid.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/simd.h"
#include "workloads.h"

namespace {

std::string CpuModel() {
  unsigned int regs[12] = {};
  unsigned int max_leaf = __get_cpuid_max(0x80000000, nullptr);
  if (max_leaf < 0x80000004) return "unknown";
  for (unsigned int i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  const size_t first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

/// {"name": {"value": v, "unit": u}, ...}
std::string MetricsJson(const std::vector<perfbench::Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    out += (i == 0 ? "" : ", ") + JsonString(metrics[i].name) +
           ": {\"value\": " + Number(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "mmmbench: %s\nusage: mmmbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  config.work_dir = ".bench_out/work-" + std::to_string(getpid());
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.workload.empty()) return Usage("--workload is required");
  if (!(config.seconds > 0)) return Usage("--seconds must be positive");

  const char* git_sha = std::getenv("PERFBENCH_GIT_SHA");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "{\"stamp\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %ld, \"cpu\": %s, \"simd\": %s, "
      "\"build_type\": %s, \"git_sha\": %s, \"env\": \"Env::Default (posix)\", "
      "\"env_root\": %s, \"flush_policy\": \"none (PosixEnv never fsyncs)\"}}\n",
      JsonString(config.workload).c_str(),
      static_cast<unsigned long long>(config.seed),
      Number(config.seconds).c_str(), config.trace ? 1 : 0, nproc,
      JsonString(CpuModel()).c_str(),
      JsonString(mmm::SimdLevelName(mmm::ActiveSimdLevel())).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(git_sha != nullptr ? git_sha : "unknown").c_str(),
      JsonString(std::filesystem::absolute(config.work_dir).string()).c_str());
  std::fflush(stdout);

  mmm::Result<perfbench::RunReport> result = perfbench::RunWorkload(config);
  if (!result.ok()) {
    std::fprintf(stderr, "mmmbench: %s\n", result.status().ToString().c_str());
    return 2;
  }
  const perfbench::RunReport& report = *result;

  std::string knobs = "{";
  for (size_t i = 0; i < report.knobs.size(); ++i) {
    knobs += (i == 0 ? "" : ", ") + JsonString(report.knobs[i].first) + ": " +
             JsonString(report.knobs[i].second);
  }
  std::printf("{\"knobs\": %s}\n", (knobs + "}").c_str());
  const std::vector<perfbench::Metric>& metrics =
      config.trace ? report.per_layer : report.end_to_end;
  for (const perfbench::Metric& metric : metrics) {
    std::printf("%-36s %14.4f %-6s samples=%llu\n", metric.name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<unsigned long long>(metric.samples));
  }
  if (config.trace) {
    // End-to-end figures of the traced run, for the tracing overhead; the
    // reported end-to-end metrics come from untraced runs only.
    std::printf("{\"end_to_end_traced\": %s}\n",
                MetricsJson(report.end_to_end).c_str());
    std::printf("{\"spans\": %s}\n", report.span_summary_json.c_str());
    if (!trace_out.empty()) {
      std::ofstream out(trace_out);
      out << "{\"workload\": " << JsonString(config.workload)
          << ", \"seed\": " << config.seed
          << ", \"spans\": " << report.span_summary_json << "}\n";
    }
  }

  std::string line = "{\"correct\": ";
  line += report.mismatches == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report.attempted);
  line += ", \"failed\": " + std::to_string(report.failed);
  line += ", \"metrics\": " + MetricsJson(metrics);
  std::printf("%s}\n", line.c_str());
  return report.mismatches == 0 ? 0 : 1;
}
