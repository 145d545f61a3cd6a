#ifndef MMM_TOOLS_MMMSA_SA_H_
#define MMM_TOOLS_MMMSA_SA_H_

#include <set>
#include <string>
#include <vector>

/// \file
/// mmmsa public interface: the repository's one static analyzer. Fifteen
/// checks (DESIGN.md §6.3) share one lexer, one suppression grammar, one
/// baseline, and one report:
///
///   whole-program analyses (parser + CFG + cross-file call graph)
///     lock-order           lock-cycle, rank-inversion, lock-rank-missing
///     status-flow          status-overwrite, status-drop
///     journal-path         unjournaled-delete
///     layer-dag            layer-violation
///   token rules (one token window at a time; rule name = check name)
///     banned-random        nondeterminism outside src/common/rng.* and
///                          src/common/clock.h
///     discarded-status     a storage Status/Result dropped as a bare
///                          statement or (void) cast
///     naked-new            `new` not wrapped into a smart pointer
///     naked-delete         any `delete` expression
///     mutex-missing-guard  a class with a mutex member but no
///                          MMM_GUARDED_BY field
///     raw-std-mutex        raw std::mutex et al. outside
///                          src/common/thread_annotations.h
///     direct-env-write     Env/FileStore writes from src/core/
///     direct-env-read      Env reads from src/core/
///     direct-manager-open  ModelSetManager::Open outside src/core/,
///                          src/cluster/, tests/, and bench/
///     chunk-delete         deleting a `cas-` chunk blob outside src/cas/
///     include-cycle        a cycle in the quoted-include graph
///
/// Findings carry a `symbol` (lock id, function qualified name, include
/// edge, or the offending token) so the baseline ratchets on stable identity
/// rather than line numbers. Suppress one finding in source with a comment
/// naming a check or rule and giving a reason, on the finding's line or the
/// line above: `MMMSA(<check-or-rule>): <reason>` after `//`. A suppression
/// with an unknown name or an empty reason suppresses nothing, and a run of
/// the full catalog reports it (rule `invalid-suppression`).

namespace mmmsa {

struct Finding {
  std::string analysis;  ///< check name, e.g. "lock-order", "naked-new"
  std::string rule;      ///< e.g. "rank-inversion"; = analysis for token rules
  std::string file;      ///< EffectivePath(path): the repo-relative identity
  std::string path;      ///< the file as scanned (suppressions match on it)
  int line = 0;
  std::string symbol;  ///< stable identity for baselining
  std::string message;

  bool operator<(const Finding& other) const {
    if (path != other.path) return path < other.path;
    if (line != other.line) return line < other.line;
    if (rule != other.rule) return rule < other.rule;
    return symbol < other.symbol;
  }
  bool operator==(const Finding& other) const {
    return path == other.path && line == other.line && rule == other.rule &&
           symbol == other.symbol;
  }
};

struct SaOptions {
  /// Empty = run every check; otherwise names from AnalysisNames().
  std::set<std::string> only_analyses;
};

/// Names of the fifteen checks, in report order.
const std::vector<std::string>& AnalysisNames();

/// Recursively collects .h/.hpp/.cc/.cpp under each path (or the path itself
/// when it is a file), lexes them, parses them when a whole-program check is
/// selected, and runs the selected checks. Findings come back sorted and
/// deduplicated; valid source suppressions are already applied, and invalid
/// ones are reported when no check filter is set. `io_errors` (optional)
/// receives paths that could not be read.
std::vector<Finding> AnalyzePaths(const std::vector<std::string>& paths,
                                  const SaOptions& options,
                                  std::vector<std::string>* io_errors);

/// One well-formed `MMMSA(<name>): <reason>` comment — the suppression debt
/// `mmmsa --list-suppressions` prints so CI logs show every waiver with its
/// justification.
struct SuppressionNote {
  std::string path;
  int line = 0;
  std::string name;    ///< check or rule it names
  std::string reason;  ///< trimmed text after the colon
};

/// Every well-formed suppression under `paths`, sorted by (path, line).
/// Prose that merely mentions the syntax (a name that is not a lowercase
/// identifier, or no colon after the parenthesis) is not a suppression.
std::vector<SuppressionNote> ListSuppressions(
    const std::vector<std::string>& paths,
    std::vector<std::string>* io_errors);

/// Drops findings whose `rule|file|symbol` key appears in the baseline file.
/// Returns false when the baseline file cannot be read (missing file is an
/// error: pass --write-baseline to create one).
bool ApplyBaseline(const std::string& baseline_path,
                   std::vector<Finding>* findings, std::string* error);

/// Serializes findings as baseline lines (sorted, unique, with a header).
std::string FormatBaseline(const std::vector<Finding>& findings);

/// One `path:line: [rule] message` line per finding (`[check/rule]` when the
/// two differ) plus a summary tail.
std::string FormatText(const std::vector<Finding>& findings);

/// Minimal SARIF 2.1.0 document (one run, one result per finding).
std::string FormatSarif(const std::vector<Finding>& findings);

/// Renders the whole-program lock-rank table and acquisition-edge list
/// (for `--dump-lock-graph`; also the source of the DESIGN.md table).
std::string DescribeLockGraph(const std::vector<std::string>& paths);

/// Strips leading fixture/scratch directories: the path suffix starting at
/// the rightmost "src/", "tools/", "tests/", or "bench/" marker that begins
/// a path component, so fixture trees that mirror the real layout analyze
/// identically. Returns the input unchanged when no marker occurs. Every
/// path-gated check judges this form.
std::string EffectivePath(const std::string& path);

}  // namespace mmmsa

#endif  // MMM_TOOLS_MMMSA_SA_H_
