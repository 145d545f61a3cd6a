#include "lint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_map>

#include "lexer.h"

namespace mmmlint {
namespace {

namespace fs = std::filesystem;

bool PathContains(const std::string& path, std::string_view fragment) {
  return path.find(fragment) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Suppressions: `// MMMLINT(<rule>): reason` on the finding's line or the
// line directly above.

struct Suppressions {
  /// line -> rules suppressed there ("*" = all).
  std::unordered_map<int, std::vector<std::string>> by_line;

  bool Covers(const std::string& rule, int line) const {
    for (int l : {line, line - 1}) {
      auto it = by_line.find(l);
      if (it == by_line.end()) continue;
      for (const std::string& r : it->second) {
        if (r == "*" || r == rule) return true;
      }
    }
    return false;
  }
};

Suppressions CollectSuppressions(const LexedFile& file) {
  Suppressions out;
  for (const Comment& comment : file.comments) {
    size_t pos = 0;
    while ((pos = comment.text.find("MMMLINT(", pos)) != std::string::npos) {
      size_t start = pos + 8;
      size_t end = comment.text.find(')', start);
      if (end == std::string::npos) break;
      // A multi-line block comment suppresses relative to its first line,
      // which is the documented contract (suppressions are one-liners).
      out.by_line[comment.line].push_back(
          comment.text.substr(start, end - start));
      pos = end;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rule engine scaffolding.

struct RuleContext {
  const LexedFile& file;
  std::vector<Finding>* findings;

  void Report(const std::string& rule, int line, std::string message) const {
    findings->push_back(Finding{file.path, line, rule, std::move(message)});
  }
};

const Token* TokenAt(const std::vector<Token>& toks, size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

bool IsIdent(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kIdent && t->text == text;
}

bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

/// Index just past a balanced `( ... )` group starting at `open` (which must
/// be the opening paren); tolerates EOF by returning tokens.size().
size_t SkipParens(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i + 1;
  }
  return toks.size();
}

/// Index just past a balanced `{ ... }` group starting at `open`.
size_t SkipBraces(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i + 1;
  }
  return toks.size();
}

// ---------------------------------------------------------------------------
// banned-random: nondeterminism sources outside the sanctioned shims.

const std::set<std::string, std::less<>> kBannedTypes = {
    "random_device", "mt19937",      "mt19937_64",
    "minstd_rand",   "ranlux24",     "default_random_engine",
    "system_clock",  "steady_clock", "high_resolution_clock",
};

const std::set<std::string, std::less<>> kBannedCalls = {
    "rand",      "srand",        "time",    "gettimeofday",
    "localtime", "clock_gettime", "gmtime", "mktime",
};

void CheckBannedRandom(const RuleContext& ctx) {
  if (PathContains(ctx.file.path, "common/rng.") ||
      PathContains(ctx.file.path, "common/clock.h")) {
    return;
  }
  const auto& toks = ctx.file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    bool member_access = IsPunct(prev, ".") || IsPunct(prev, "->");
    if (kBannedTypes.count(toks[i].text) != 0 && !member_access) {
      ctx.Report("banned-random", toks[i].line,
                 "'" + toks[i].text +
                     "' is nondeterministic; use src/common/rng.h (seeded "
                     "Rng) or src/common/clock.h (WallClock/SimulatedClock)");
      continue;
    }
    if (kBannedCalls.count(toks[i].text) != 0 && !member_access &&
        IsPunct(TokenAt(toks, i + 1), "(")) {
      ctx.Report("banned-random", toks[i].line,
                 "call to '" + toks[i].text +
                     "()' breaks the determinism contract; route randomness "
                     "through src/common/rng.h and time through "
                     "src/common/clock.h");
    }
  }
}

// ---------------------------------------------------------------------------
// discarded-status: a bare-statement call (or `(void)` cast) of a storage API
// whose Status/Result return encodes a write failure.

const std::set<std::string, std::less<>> kStatusCalls = {
    "Commit",        "WriteFile",  "AppendToFile", "DeleteFile",
    "CreateDirs",    "RemoveDirs", "MarkCommitted", "MarkFinished",
};

void CheckDiscardedStatus(const RuleContext& ctx) {
  const auto& toks = ctx.file.tokens;
  // Statement starts: after `;`, `{`, `}` at paren depth 0, plus index 0.
  size_t stmt = 0;
  int paren_depth = 0;
  for (size_t i = 0; i <= toks.size(); ++i) {
    bool boundary = i == toks.size();
    if (!boundary && toks[i].kind == TokenKind::kPunct) {
      if (toks[i].text == "(") ++paren_depth;
      if (toks[i].text == ")") --paren_depth;
      boundary = paren_depth == 0 && (toks[i].text == ";" ||
                                      toks[i].text == "{" ||
                                      toks[i].text == "}");
    }
    if (!boundary) continue;
    // Analyze [stmt, i): flag if it is a pure call chain ending in a
    // catalog call, optionally wrapped in a (void) cast.
    size_t p = stmt;
    bool voided = false;
    if (IsPunct(TokenAt(toks, p), "(") && IsIdent(TokenAt(toks, p + 1), "void") &&
        IsPunct(TokenAt(toks, p + 2), ")")) {
      voided = true;
      p += 3;
    }
    const Token* head = TokenAt(toks, p);
    if (head != nullptr && head->kind == TokenKind::kIdent) {
      std::string last_name = head->text;
      std::string final_call;
      int call_line = head->line;
      ++p;
      while (p < i) {
        if (IsPunct(TokenAt(toks, p), "::") &&
            TokenAt(toks, p + 1) != nullptr &&
            toks[p + 1].kind == TokenKind::kIdent) {
          last_name = toks[p + 1].text;
          p += 2;
        } else if (IsPunct(TokenAt(toks, p), "(")) {
          final_call = last_name;
          call_line = toks[p].line;
          p = SkipParens(toks, p);
        } else if ((IsPunct(TokenAt(toks, p), ".") ||
                    IsPunct(TokenAt(toks, p), "->")) &&
                   TokenAt(toks, p + 1) != nullptr &&
                   toks[p + 1].kind == TokenKind::kIdent) {
          last_name = toks[p + 1].text;
          p += 2;
        } else {
          final_call.clear();
          break;
        }
      }
      if (p == i && !final_call.empty() &&
          kStatusCalls.count(final_call) != 0 &&
          IsPunct(TokenAt(toks, i), ";")) {
        ctx.Report("discarded-status", call_line,
                   std::string(voided ? "(void)-cast" : "discarded") +
                       " Status/Result of '" + final_call +
                       "': handle the error or suppress with a justified "
                       "MMMLINT(discarded-status) comment");
      }
    }
    stmt = i + 1;
  }
}

// ---------------------------------------------------------------------------
// naked-new / delete outside allocator shims.

const std::set<std::string, std::less<>> kSmartPtrMakers = {
    "unique_ptr", "shared_ptr", "make_unique", "make_shared",
};

void CheckNakedNew(const RuleContext& ctx) {
  if (PathContains(ctx.file.path, "allocator")) return;
  const auto& toks = ctx.file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if (toks[i].text == "new") {
      // Back-scan to the statement start: a `new` immediately wrapped into a
      // smart pointer is the sanctioned ownership-transfer idiom.
      bool smart = false;
      for (size_t j = i; j-- > 0;) {
        if (toks[j].kind == TokenKind::kPunct &&
            (toks[j].text == ";" || toks[j].text == "{" ||
             toks[j].text == "}")) {
          break;
        }
        if (toks[j].kind == TokenKind::kIdent &&
            kSmartPtrMakers.count(toks[j].text) != 0) {
          smart = true;
          break;
        }
      }
      if (!smart) {
        ctx.Report("naked-new", toks[i].line,
                   "naked 'new': wrap the allocation in std::unique_ptr / "
                   "std::make_unique (allocator shim files are exempt)");
      }
    } else if (toks[i].text == "delete") {
      const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
      if (IsPunct(prev, "=") || IsIdent(prev, "operator")) continue;
      ctx.Report("naked-delete", toks[i].line,
                 "explicit 'delete': ownership must live in a smart pointer "
                 "(allocator shim files are exempt)");
    }
  }
}

// ---------------------------------------------------------------------------
// mutex-missing-guard + raw-std-mutex.

const std::set<std::string, std::less<>> kWrappedMutexTypes = {
    "Mutex", "SharedMutex",
};

const std::set<std::string, std::less<>> kRawMutexTypes = {
    "mutex",           "shared_mutex",          "recursive_mutex",
    "timed_mutex",     "condition_variable",    "condition_variable_any",
    "recursive_timed_mutex",
};

void CheckMutexRules(const RuleContext& ctx) {
  if (PathContains(ctx.file.path, "common/thread_annotations.h")) {
    return;  // the annotated wrapper shim itself
  }
  const auto& toks = ctx.file.tokens;

  // raw-std-mutex: `std :: <raw type>` anywhere.
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsIdent(&toks[i], "std") && IsPunct(&toks[i + 1], "::") &&
        toks[i + 2].kind == TokenKind::kIdent &&
        kRawMutexTypes.count(toks[i + 2].text) != 0) {
      ctx.Report("raw-std-mutex", toks[i].line,
                 "raw std::" + toks[i + 2].text +
                     ": use the annotated wrappers in "
                     "common/thread_annotations.h (Mutex, SharedMutex, "
                     "CondVar) so -Wthread-safety can check the contract");
    }
  }

  // mutex-missing-guard: a class body that declares a wrapped mutex member
  // must annotate at least one field with MMM_GUARDED_BY / MMM_PT_GUARDED_BY.
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(&toks[i], "class") && !IsIdent(&toks[i], "struct")) continue;
    // Find the body opener, skipping the name, attribute macros with
    // arguments, `final`, and base clauses. A `;` first means a forward
    // declaration.
    size_t p = i + 1;
    size_t body = 0;
    while (p < toks.size()) {
      if (IsPunct(&toks[p], ";")) break;
      if (IsPunct(&toks[p], "(")) {
        p = SkipParens(toks, p);
        continue;
      }
      if (IsPunct(&toks[p], "{")) {
        body = p;
        break;
      }
      ++p;
    }
    if (body == 0) continue;
    size_t end = SkipBraces(toks, body);
    bool has_guard = false;
    std::vector<std::pair<int, std::string>> mutex_members;
    int depth = 0;
    for (size_t j = body; j < end; ++j) {
      if (toks[j].kind == TokenKind::kPunct) {
        if (toks[j].text == "(") ++depth;
        if (toks[j].text == ")") --depth;
        continue;
      }
      if (toks[j].kind != TokenKind::kIdent) continue;
      if (toks[j].text == "MMM_GUARDED_BY" ||
          toks[j].text == "MMM_PT_GUARDED_BY") {
        has_guard = true;
      }
      bool wrapped_type = kWrappedMutexTypes.count(toks[j].text) != 0 &&
                          !IsPunct(TokenAt(toks, j >= 1 ? j - 1 : 0), "<");
      bool raw_type = kRawMutexTypes.count(toks[j].text) != 0 && j >= 2 &&
                      IsIdent(&toks[j - 2], "std") &&
                      IsPunct(&toks[j - 1], "::");
      if (depth == 0 && (wrapped_type || raw_type)) {
        // `Mutex name ;` at paren depth 0 is a member declaration.
        const Token* name = TokenAt(toks, j + 1);
        if (name != nullptr && name->kind == TokenKind::kIdent &&
            IsPunct(TokenAt(toks, j + 2), ";")) {
          mutex_members.emplace_back(toks[j].line, name->text);
        }
      }
    }
    if (!has_guard) {
      for (const auto& [line, name] : mutex_members) {
        ctx.Report("mutex-missing-guard", line,
                   "class declares mutex member '" + name +
                       "' but annotates no field with MMM_GUARDED_BY: state "
                       "the locking contract (or suppress with a reason if "
                       "the mutex guards an external resource)");
      }
    }
    // Do not skip past the body: nested classes are revisited on their own
    // `class` token and checked against their own members.
  }
}

// ---------------------------------------------------------------------------
// direct-env-write: approach code must stage writes through StoreBatch —
// neither the Env write entry points nor the FileStore ones.

const std::set<std::string, std::less<>> kFileStoreWrites = {"Put", "PutString",
                                                             "Append"};

/// True when the member call at `i` is reached the way approach code
/// reaches a FileStore: through a pointer (`context.file_store->Put(`), or
/// on a receiver whose name says it is a store (`store.Put(`). This keeps
/// `JsonValue::Append` on local arrays clean.
bool IsFileStoreWriteCall(const std::vector<Token>& toks, size_t i) {
  if (kFileStoreWrites.count(toks[i].text) == 0 ||
      !IsPunct(TokenAt(toks, i + 1), "(") || i == 0) {
    return false;
  }
  if (IsPunct(&toks[i - 1], "->")) return true;
  return i >= 2 && IsPunct(&toks[i - 1], ".") &&
         toks[i - 2].kind == TokenKind::kIdent &&
         toks[i - 2].text.find("store") != std::string::npos;
}

void CheckDirectEnvWrite(const RuleContext& ctx) {
  if (!PathContains(ctx.file.path, "src/core/")) return;
  const auto& toks = ctx.file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if (((toks[i].text == "WriteFile" || toks[i].text == "AppendToFile") &&
         IsPunct(TokenAt(toks, i + 1), "(")) ||
        IsFileStoreWriteCall(toks, i)) {
      ctx.Report("direct-env-write", toks[i].line,
                 "'" + toks[i].text +
                     "' in approach code: save-path writes must stage "
                     "through StoreBatch so batching, journaling, and "
                     "crash-point sweeps observe them");
    }
  }
}

// ---------------------------------------------------------------------------
// direct-env-read: approach code must read through FileStore (Get /
// GetRange / OpenStream), never Env::ReadFile / ReadFileRange directly —
// a direct read bypasses the modeled store latency, the StoreStats
// counters, and fault injection, so benches and crash sweeps silently stop
// observing it.

void CheckDirectEnvRead(const RuleContext& ctx) {
  if (!PathContains(ctx.file.path, "src/core/")) return;
  const auto& toks = ctx.file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if ((toks[i].text == "ReadFile" || toks[i].text == "ReadFileRange") &&
        IsPunct(TokenAt(toks, i + 1), "(")) {
      ctx.Report("direct-env-read", toks[i].line,
                 "'" + toks[i].text +
                     "' in approach code: recovery reads must go through "
                     "FileStore (Get/GetRange/OpenStream) so modeled "
                     "latency, read counters, and fault injection observe "
                     "them");
    }
  }
}

// ---------------------------------------------------------------------------
// direct-manager-open: ModelSetManager is opened by its ownership layers
// (core itself, cluster shards) plus tests and benches; everything else gets
// a manager (or a Coordinator) handed to it. A stray Open elsewhere is how
// two facades end up racing on one store without the cluster's placement
// and locking discipline.

/// Path with everything up to and including the last "lint_fixtures/"
/// stripped, so fixture trees mirror real source paths (a fixture under
/// tests/lint_fixtures/x/src/serve/ is judged as src/serve/, not exempted
/// as part of tests/).
std::string EffectivePath(const std::string& path) {
  size_t pos = path.rfind("lint_fixtures/");
  if (pos == std::string::npos) return path;
  return path.substr(pos + std::string_view("lint_fixtures/").size());
}

void CheckDirectManagerOpen(const RuleContext& ctx) {
  std::string path = EffectivePath(ctx.file.path);
  if (PathContains(path, "src/core/") || PathContains(path, "src/cluster/") ||
      PathContains(path, "tests/") || PathContains(path, "bench/")) {
    return;
  }
  const auto& toks = ctx.file.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (IsIdent(&toks[i], "ModelSetManager") && IsPunct(&toks[i + 1], "::") &&
        IsIdent(&toks[i + 2], "Open") && IsPunct(&toks[i + 3], "(")) {
      ctx.Report("direct-manager-open", toks[i].line,
                 "direct ModelSetManager::Open outside core/, cluster/, "
                 "tests, and bench: take an injected manager, or go through "
                 "cluster/Coordinator so placement and lock order hold");
    }
  }
}

// ---------------------------------------------------------------------------
// chunk-delete: the `cas-` chunk namespace is refcounted (cas/cas_store.h);
// a Delete that bypasses the CAS sweeper leaves the refcount index pointing
// at a blob that no longer exists, which every manifest sharing the chunk
// then fails to read. Only src/cas/ may delete chunk blobs; everyone else
// decrements (OnManifestDeleted) and lets the sweep reclaim.

void CheckChunkDelete(const RuleContext& ctx) {
  std::string path = EffectivePath(ctx.file.path);
  if (PathContains(path, "src/cas/")) return;
  const auto& toks = ctx.file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if (toks[i].text != "Delete" && toks[i].text != "DeleteFile") continue;
    if (!IsPunct(TokenAt(toks, i + 1), "(")) continue;
    size_t end = SkipParens(toks, i + 1);
    for (size_t j = i + 2; j + 1 < end; ++j) {
      bool chunk_arg =
          (toks[j].kind == TokenKind::kIdent &&
           (toks[j].text == "ChunkBlobName" ||
            toks[j].text == "kCasChunkPrefix")) ||
          (toks[j].kind == TokenKind::kString &&
           toks[j].text.rfind("cas-", 0) == 0);
      if (chunk_arg) {
        ctx.Report("chunk-delete", toks[i].line,
                   "'" + toks[i].text +
                       "' of a cas- chunk blob outside src/cas/: chunks are "
                       "refcounted — call CasStore::OnManifestDeleted and "
                       "let SweepZeroRefChunks reclaim them");
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// include-cycle: DFS over the quoted-include graph of the scanned files.

struct IncludeEdge {
  std::string target;  ///< include text as written
  int line = 0;
};

std::vector<IncludeEdge> ExtractIncludes(const LexedFile& file) {
  std::vector<IncludeEdge> out;
  const auto& toks = file.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsPunct(&toks[i], "#") && IsIdent(&toks[i + 1], "include") &&
        toks[i + 2].kind == TokenKind::kString &&
        toks[i + 1].line == toks[i + 2].line) {
      out.push_back({toks[i + 2].text, toks[i + 2].line});
    }
  }
  return out;
}

/// Maps each scanned file to a canonical node id, and resolves an include
/// string from a given file to a node id (or "" if it is not a scanned file).
class IncludeGraph {
 public:
  explicit IncludeGraph(const std::vector<LexedFile>& files) {
    for (const LexedFile& f : files) {
      by_suffix_[NormalizedSuffix(f.path)] = f.path;
      by_exact_[fs::weakly_canonical(f.path).string()] = f.path;
    }
    for (const LexedFile& f : files) {
      for (const IncludeEdge& inc : ExtractIncludes(f)) {
        std::string target = Resolve(f.path, inc.target);
        if (!target.empty()) {
          edges_[f.path].push_back({target, inc.line});
        }
      }
    }
  }

  /// Reports one finding per distinct cycle, attached to the edge that
  /// closes it.
  void ReportCycles(std::vector<Finding>* findings) const {
    std::unordered_map<std::string, int> color;  // 0 white 1 grey 2 black
    std::vector<std::string> stack;
    std::set<std::string> reported;
    for (const auto& [node, unused] : edges_) {
      Dfs(node, &color, &stack, &reported, findings);
    }
  }

 private:
  struct ResolvedEdge {
    std::string to;
    int line;
  };

  static std::string NormalizedSuffix(const std::string& path) {
    // Includes are rooted at src/ (e.g. "storage/env.h"); fall back to the
    // bare filename for tool-local includes.
    size_t pos = path.rfind("src/");
    if (pos != std::string::npos) return path.substr(pos + 4);
    return fs::path(path).filename().string();
  }

  std::string Resolve(const std::string& from, const std::string& inc) const {
    // Same-directory include first (tools), then the src/-rooted form.
    fs::path sibling = fs::path(from).parent_path() / inc;
    auto exact = by_exact_.find(fs::weakly_canonical(sibling).string());
    if (exact != by_exact_.end()) return exact->second;
    auto suffix = by_suffix_.find(inc);
    if (suffix != by_suffix_.end()) return suffix->second;
    return "";
  }

  void Dfs(const std::string& node, std::unordered_map<std::string, int>* color,
           std::vector<std::string>* stack, std::set<std::string>* reported,
           std::vector<Finding>* findings) const {
    int& c = (*color)[node];
    if (c != 0) return;
    c = 1;
    stack->push_back(node);
    auto it = edges_.find(node);
    if (it != edges_.end()) {
      for (const ResolvedEdge& edge : it->second) {
        int state = (*color)[edge.to];
        if (state == 1) {
          // Grey target: the stack suffix from `edge.to` is a cycle.
          auto begin = std::find(stack->begin(), stack->end(), edge.to);
          std::string chain;
          std::set<std::string> members;
          for (auto p = begin; p != stack->end(); ++p) {
            chain += NormalizedSuffix(*p) + " -> ";
            members.insert(*p);
          }
          chain += NormalizedSuffix(edge.to);
          std::string key;
          for (const std::string& m : members) key += m + "|";
          if (reported->insert(key).second) {
            findings->push_back(Finding{node, edge.line, "include-cycle",
                                        "include cycle: " + chain});
          }
        } else if (state == 0) {
          Dfs(edge.to, color, stack, reported, findings);
        }
      }
    }
    stack->pop_back();
    c = 2;
  }

  std::unordered_map<std::string, std::string> by_suffix_;
  std::unordered_map<std::string, std::string> by_exact_;
  std::unordered_map<std::string, std::vector<ResolvedEdge>> edges_;
};

// ---------------------------------------------------------------------------
// Driver.

bool WantRule(const LintOptions& options, std::string_view rule) {
  if (options.only_rules.empty()) return true;
  return std::find(options.only_rules.begin(), options.only_rules.end(),
                   rule) != options.only_rules.end();
}

void CollectSources(const std::string& root, std::vector<std::string>* out,
                    std::vector<Finding>* findings) {
  std::error_code ec;
  fs::file_status st = fs::status(root, ec);
  if (ec || !fs::exists(st)) {
    findings->push_back(Finding{root, 0, "io", "path does not exist"});
    return;
  }
  auto keep = [](const fs::path& p) {
    std::string ext = p.extension().string();
    return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
  };
  if (fs::is_regular_file(st)) {
    out->push_back(root);
    return;
  }
  for (fs::recursive_directory_iterator it(root, ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file() && keep(it->path())) {
      out->push_back(it->path().generic_string());
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> RuleNames() {
  return {"banned-random",  "discarded-status",   "naked-new",
          "naked-delete",   "mutex-missing-guard", "raw-std-mutex",
          "direct-env-write", "direct-env-read", "direct-manager-open",
          "chunk-delete", "include-cycle"};
}

std::vector<Finding> LintPaths(const std::vector<std::string>& paths,
                               const LintOptions& options) {
  std::vector<Finding> findings;
  std::vector<std::string> sources;
  for (const std::string& p : paths) CollectSources(p, &sources, &findings);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

  std::vector<LexedFile> lexed;
  lexed.reserve(sources.size());
  for (const std::string& path : sources) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      findings.push_back(Finding{path, 0, "io", "cannot read file"});
      continue;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    lexed.push_back(Lex(path, buffer.str()));
  }

  for (const LexedFile& file : lexed) {
    RuleContext ctx{file, &findings};
    if (WantRule(options, "banned-random")) CheckBannedRandom(ctx);
    if (WantRule(options, "discarded-status")) CheckDiscardedStatus(ctx);
    if (WantRule(options, "naked-new") || WantRule(options, "naked-delete")) {
      CheckNakedNew(ctx);
    }
    if (WantRule(options, "mutex-missing-guard") ||
        WantRule(options, "raw-std-mutex")) {
      CheckMutexRules(ctx);
    }
    if (WantRule(options, "direct-env-write")) CheckDirectEnvWrite(ctx);
    if (WantRule(options, "direct-env-read")) CheckDirectEnvRead(ctx);
    if (WantRule(options, "direct-manager-open")) CheckDirectManagerOpen(ctx);
    if (WantRule(options, "chunk-delete")) CheckChunkDelete(ctx);
  }
  if (WantRule(options, "include-cycle")) {
    IncludeGraph(lexed).ReportCycles(&findings);
  }

  // Apply suppressions, then sort and dedupe (nested-class scans can visit a
  // member twice).
  std::unordered_map<std::string, Suppressions> suppressions;
  for (const LexedFile& file : lexed) {
    suppressions.emplace(file.path, CollectSuppressions(file));
  }
  std::erase_if(findings, [&](const Finding& f) {
    auto it = suppressions.find(f.file);
    return it != suppressions.end() && it->second.Covers(f.rule, f.line);
  });
  std::sort(findings.begin(), findings.end(), [](const Finding& a,
                                                 const Finding& b) {
    return std::tie(a.file, a.line, a.rule, a.message) <
           std::tie(b.file, b.line, b.rule, b.message);
  });
  findings.erase(std::unique(findings.begin(), findings.end(),
                             [](const Finding& a, const Finding& b) {
                               return a.file == b.file && a.line == b.line &&
                                      a.rule == b.rule;
                             }),
                 findings.end());
  return findings;
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.file << ":" << f.line << ": [" << f.rule << "] " << f.message
        << "\n";
  }
  return out.str();
}

std::vector<SuppressionNote> ListSuppressions(
    const std::vector<std::string>& paths) {
  std::vector<Finding> io_sink;
  std::vector<std::string> sources;
  for (const std::string& p : paths) CollectSources(p, &sources, &io_sink);
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());

  std::vector<SuppressionNote> notes;
  for (const std::string& path : sources) {
    std::ifstream in(path, std::ios::binary);
    if (!in) continue;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    LexedFile file = Lex(path, buffer.str());
    for (const Comment& comment : file.comments) {
      size_t pos = 0;
      while ((pos = comment.text.find("MMMLINT(", pos)) !=
             std::string::npos) {
        size_t start = pos + 8;
        size_t end = comment.text.find(')', start);
        if (end == std::string::npos) break;
        SuppressionNote note;
        note.file = path;
        note.line = comment.line;
        note.rule = comment.text.substr(start, end - start);
        // Only well-formed suppressions (`MMMLINT(<rule>): ...` with a real
        // rule name and the trailing colon) — doc comments describing the
        // syntax would otherwise show up as debt.
        bool rule_ok =
            note.rule == "*" ||
            (!note.rule.empty() &&
             note.rule.find_first_not_of(
                 "abcdefghijklmnopqrstuvwxyz0123456789-") ==
                 std::string::npos);
        if (!rule_ok || end + 1 >= comment.text.size() ||
            comment.text[end + 1] != ':') {
          pos = end;
          continue;
        }
        size_t reason_begin = end + 2;
        size_t reason_end = comment.text.find('\n', reason_begin);
        if (reason_end == std::string::npos) {
          reason_end = comment.text.size();
        }
        std::string reason =
            comment.text.substr(reason_begin, reason_end - reason_begin);
        while (!reason.empty() && reason.front() == ' ') reason.erase(0, 1);
        while (!reason.empty() &&
               (reason.back() == ' ' || reason.back() == '\r')) {
          reason.pop_back();
        }
        note.reason = std::move(reason);
        notes.push_back(std::move(note));
        pos = end;
      }
    }
  }
  std::sort(notes.begin(), notes.end(),
            [](const SuppressionNote& a, const SuppressionNote& b) {
              return std::tie(a.file, a.line, a.rule) <
                     std::tie(b.file, b.line, b.rule);
            });
  return notes;
}

std::string FormatJson(const std::vector<Finding>& findings) {
  std::ostringstream out;
  out << "[";
  for (size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    out << (i == 0 ? "" : ",") << "\n  {\"file\": \"" << JsonEscape(f.file)
        << "\", \"line\": " << f.line << ", \"rule\": \"" << JsonEscape(f.rule)
        << "\", \"message\": \"" << JsonEscape(f.message) << "\"}";
  }
  out << (findings.empty() ? "]" : "\n]") << "\n";
  return out.str();
}

}  // namespace mmmlint
