#ifndef MMM_TOOLS_MMMLINT_LINT_H_
#define MMM_TOOLS_MMMLINT_LINT_H_

#include <string>
#include <vector>

/// \file
/// mmmlint — repo-specific invariant checker for the mmm codebase.
///
/// A from-scratch token-level scanner (no libclang): each translation unit is
/// lexed into identifiers / punctuation / literals with comments retained for
/// suppression matching, then a small set of repo-specific rules runs over
/// the token stream. The rules encode contracts a generic linter cannot know
/// (see DESIGN.md §6.3 for the catalog and rationale):
///
///   banned-random        nondeterminism sources (rand(), std::random_device,
///                        time(), wall clocks) outside src/common/rng.* and
///                        src/common/clock.h — the Provenance approach's
///                        replay depends on seeded determinism.
///   discarded-status     a call to a known Status/Result-returning storage
///                        API used as a bare statement (or silenced with a
///                        `(void)` cast) — dropped write errors corrupt sets.
///   naked-new            `new` outside a smart-pointer construction, or any
///                        `delete` expression (allocator shim files exempt).
///   mutex-missing-guard  a class declares a Mutex/std::mutex member but
///                        annotates nothing with MMM_GUARDED_BY.
///   raw-std-mutex        a raw std::mutex / std::shared_mutex /
///                        std::condition_variable outside
///                        common/thread_annotations.h — concurrent code must
///                        use the annotated wrappers so clang's
///                        -Wthread-safety can check it.
///   direct-env-write     Env::WriteFile / AppendToFile, or a FileStore
///                        Put / PutString / Append call, from approach
///                        code (src/core/): save-path writes must stage
///                        through StoreBatch so batching, journaling, and
///                        crash sweeps see them.
///   direct-manager-open  ModelSetManager::Open outside src/core/,
///                        src/cluster/, tests, and bench — other layers take
///                        an injected manager or route through the cluster
///                        Coordinator, so one store never has two facades.
///   chunk-delete         Delete/DeleteFile of a `cas-` chunk-namespace blob
///                        outside src/cas/ — chunks are refcounted and
///                        shared across sets; deleting one behind the CAS
///                        sweeper's back corrupts every manifest sharing it.
///   include-cycle        a cycle in the quoted-include graph under the
///                        scanned roots.
///
/// Suppression: a comment `// MMMLINT(<rule>): <reason>` (or `MMMLINT(*)`)
/// on the finding's line or the line directly above it suppresses that rule
/// there. The reason is mandatory by convention; reviewers enforce it.

namespace mmmlint {

/// One rule violation.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string message;
};

struct LintOptions {
  /// When non-empty, only these rules run.
  std::vector<std::string> only_rules;
};

/// Names of every registered rule, in catalog order.
std::vector<std::string> RuleNames();

/// Expands files and directories (recursing into dirs, keeping .h/.hpp/.cc/
/// .cpp files), lints every file, and returns the surviving findings sorted
/// by (file, line). Unreadable paths produce a finding under rule "io".
std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintOptions& options = {});

/// One `// MMMLINT(<rule>): <reason>` comment found in the tree — the
/// suppression debt `mmmlint --list-suppressions` prints so CI logs show
/// every waived finding with its justification.
struct SuppressionNote {
  std::string file;
  int line = 0;
  std::string rule;    ///< suppressed rule name, or "*"
  std::string reason;  ///< text after the colon; empty = unjustified
};

/// Collects every MMMLINT suppression comment under `paths`, sorted by
/// (file, line). Unreadable paths are skipped.
std::vector<SuppressionNote> ListSuppressions(
    const std::vector<std::string>& paths);

/// Renders findings one per line: `file:line: [rule] message`.
std::string FormatText(const std::vector<Finding>& findings);

/// Renders findings as a JSON array of {file, line, rule, message}.
std::string FormatJson(const std::vector<Finding>& findings);

}  // namespace mmmlint

#endif  // MMM_TOOLS_MMMLINT_LINT_H_
