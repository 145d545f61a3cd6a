#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "sa.h"

namespace {

void PrintUsage() {
  std::cout
      << "usage: mmmsa [options] <path>...\n"
         "\n"
         "The mmm tree's static analyzer (DESIGN.md §6.3): whole-program\n"
         "analyses and token rules in one pass. Paths are files or\n"
         "directories; directories recurse over .h/.hpp/.cc/.cpp.\n"
         "\n"
         "options:\n"
         "  --analysis=<name>      run only this check (repeatable)\n"
         "  --list-analyses        print the check catalog and exit\n"
         "  --list-suppressions    print every source suppression with its "
         "reason\n"
         "  --baseline=<file>      drop findings listed in the ratchet "
         "baseline\n"
         "  --write-baseline=<file> write current findings as a new baseline\n"
         "  --sarif=<file>         also write findings as SARIF 2.1.0 JSON\n"
         "  --dump-lock-graph      print the lock rank table and acquisition "
         "edges\n"
         "  --help                 this text\n"
         "\n"
         "Suppress one finding with a comment on its line or the line above:\n"
         "  // MMMSA(<check-or-rule>): <reason>\n"
         "\n"
         "exit status: 0 clean, 1 findings, 2 usage or I/O error\n";
}

bool WriteFileOrComplain(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::cerr << "mmmsa: cannot write '" << path << "'\n";
    return false;
  }
  out << contents;
  return out.good();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  mmmsa::SaOptions options;
  std::string baseline, write_baseline, sarif;
  bool dump_lock_graph = false;
  bool list_suppressions = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    }
    if (arg == "--list-analyses") {
      for (const std::string& name : mmmsa::AnalysisNames()) {
        std::cout << name << "\n";
      }
      return 0;
    }
    if (arg == "--dump-lock-graph") {
      dump_lock_graph = true;
      continue;
    }
    if (arg == "--list-suppressions") {
      list_suppressions = true;
      continue;
    }
    if (arg.rfind("--analysis=", 0) == 0) {
      std::string name = arg.substr(11);
      const auto& names = mmmsa::AnalysisNames();
      if (std::find(names.begin(), names.end(), name) == names.end()) {
        std::cerr << "mmmsa: unknown analysis '" << name
                  << "' (see --list-analyses)\n";
        return 2;
      }
      options.only_analyses.insert(name);
      continue;
    }
    if (arg.rfind("--baseline=", 0) == 0) {
      baseline = arg.substr(11);
      continue;
    }
    if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline = arg.substr(17);
      continue;
    }
    if (arg.rfind("--sarif=", 0) == 0) {
      sarif = arg.substr(8);
      continue;
    }
    if (!arg.empty() && arg[0] == '-') {
      std::cerr << "mmmsa: unknown option '" << arg << "'\n";
      PrintUsage();
      return 2;
    }
    paths.push_back(arg);
  }

  if (paths.empty()) {
    PrintUsage();
    return 2;
  }

  if (dump_lock_graph) {
    std::cout << mmmsa::DescribeLockGraph(paths);
    return 0;
  }

  std::vector<std::string> io_errors;
  auto report_io_errors = [&io_errors] {
    for (const std::string& path : io_errors) {
      std::cerr << "mmmsa: cannot read '" << path << "'\n";
    }
    return io_errors.empty();
  };

  if (list_suppressions) {
    std::vector<mmmsa::SuppressionNote> notes =
        mmmsa::ListSuppressions(paths, &io_errors);
    for (const mmmsa::SuppressionNote& note : notes) {
      std::cout << note.path << ":" << note.line << ": [" << note.name << "] "
                << (note.reason.empty() ? "(no reason given)" : note.reason)
                << "\n";
    }
    std::cout << "mmmsa: " << notes.size() << " suppression"
              << (notes.size() == 1 ? "" : "s") << "\n";
    return report_io_errors() ? 0 : 2;
  }

  std::vector<mmmsa::Finding> findings =
      mmmsa::AnalyzePaths(paths, options, &io_errors);
  report_io_errors();

  if (!write_baseline.empty()) {
    if (!WriteFileOrComplain(write_baseline,
                             mmmsa::FormatBaseline(findings))) {
      return 2;
    }
    // SARIF in this mode carries the raw findings (no baseline applied),
    // matching what was just serialized.
    if (!sarif.empty() &&
        !WriteFileOrComplain(sarif, mmmsa::FormatSarif(findings))) {
      return 2;
    }
    std::cout << "mmmsa: wrote " << findings.size() << " baseline entr"
              << (findings.size() == 1 ? "y" : "ies") << " to "
              << write_baseline << "\n";
    return io_errors.empty() ? 0 : 2;
  }

  if (!baseline.empty()) {
    std::string error;
    if (!mmmsa::ApplyBaseline(baseline, &findings, &error)) {
      std::cerr << "mmmsa: " << error << "\n";
      return 2;
    }
  }

  if (!sarif.empty() &&
      !WriteFileOrComplain(sarif, mmmsa::FormatSarif(findings))) {
    return 2;
  }

  std::cout << mmmsa::FormatText(findings);
  if (!io_errors.empty()) return 2;
  return findings.empty() ? 0 : 1;
}
