#include <algorithm>
#include <filesystem>
#include <set>
#include <unordered_map>

#include "checks.h"

namespace mmmsa {
namespace {

namespace fs = std::filesystem;

void Report(const LexedFile& file, std::vector<Finding>* out,
            const char* rule, int line, std::string symbol,
            std::string message) {
  Finding f;
  f.analysis = rule;
  f.rule = rule;
  f.path = file.path;
  f.line = line;
  f.symbol = std::move(symbol);
  f.message = std::move(message);
  out->push_back(std::move(f));
}

/// Allocator shim files (any file whose name mentions "allocator") may own
/// raw memory.
bool IsAllocatorShim(const std::string& path) {
  return fs::path(path).filename().string().find("allocator") !=
         std::string::npos;
}

}  // namespace

// ---------------------------------------------------------------------------
// banned-random: nondeterminism sources outside the sanctioned shims — the
// Provenance approach's replay depends on seeded determinism.

const std::set<std::string, std::less<>> kBannedTypes = {
    "random_device", "mt19937",      "mt19937_64",
    "minstd_rand",   "ranlux24",     "default_random_engine",
    "system_clock",  "steady_clock", "high_resolution_clock",
};

const std::set<std::string, std::less<>> kBannedCalls = {
    "rand",      "srand",        "time",    "gettimeofday",
    "localtime", "clock_gettime", "gmtime", "mktime",
};

void CheckBannedRandom(const LexedFile& file, std::vector<Finding>* out) {
  std::string path = EffectivePath(file.path);
  if (path.rfind("src/common/rng.", 0) == 0 || path == "src/common/clock.h") {
    return;
  }
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    if (IsPunct(prev, ".") || IsPunct(prev, "->")) continue;  // member
    if (kBannedTypes.count(toks[i].text) != 0) {
      Report(file, out, "banned-random", toks[i].line, toks[i].text,
             "'" + toks[i].text +
                 "' is nondeterministic; use src/common/rng.h (seeded "
                 "Rng) or src/common/clock.h (WallClock/SimulatedClock)");
      continue;
    }
    if (kBannedCalls.count(toks[i].text) != 0 &&
        IsPunct(At(toks, i + 1), "(")) {
      Report(file, out, "banned-random", toks[i].line, toks[i].text + "()",
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

void CheckDiscardedStatus(const LexedFile& file, std::vector<Finding>* out) {
  const auto& toks = file.tokens;
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
    if (IsPunct(At(toks, p), "(") && IsIdent(At(toks, p + 1), "void") &&
        IsPunct(At(toks, p + 2), ")")) {
      voided = true;
      p += 3;
    }
    const Token* head = At(toks, p);
    if (IsAnyIdent(head)) {
      std::string last_name = head->text;
      std::string final_call;
      int call_line = head->line;
      ++p;
      while (p < i) {
        if ((IsPunct(At(toks, p), "::") || IsPunct(At(toks, p), ".") ||
             IsPunct(At(toks, p), "->")) &&
            IsAnyIdent(At(toks, p + 1))) {
          last_name = toks[p + 1].text;
          p += 2;
        } else if (IsPunct(At(toks, p), "(")) {
          final_call = last_name;
          call_line = toks[p].line;
          p = SkipParens(toks, p);
        } else {
          final_call.clear();
          break;
        }
      }
      if (p == i && !final_call.empty() &&
          kStatusCalls.count(final_call) != 0 && IsPunct(At(toks, i), ";")) {
        Report(file, out, "discarded-status", call_line, final_call,
               std::string(voided ? "(void)-cast" : "discarded") +
                   " Status/Result of '" + final_call +
                   "': handle the error or suppress with a justified "
                   "MMMSA(discarded-status) comment");
      }
    }
    stmt = i + 1;
  }
}

// ---------------------------------------------------------------------------
// naked-new / naked-delete outside allocator shims.

const std::set<std::string, std::less<>> kSmartPtrMakers = {
    "unique_ptr", "shared_ptr", "make_unique", "make_shared",
};

void CheckNakedNew(const LexedFile& file, std::vector<Finding>* out) {
  if (IsAllocatorShim(file.path)) return;
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(&toks[i], "new")) continue;
    // Back-scan to the statement start: a `new` immediately wrapped into a
    // smart pointer is the sanctioned ownership-transfer idiom.
    bool smart = false;
    for (size_t j = i; j-- > 0;) {
      if (IsPunct(&toks[j], ";") || IsPunct(&toks[j], "{") ||
          IsPunct(&toks[j], "}")) {
        break;
      }
      if (toks[j].kind == TokenKind::kIdent &&
          kSmartPtrMakers.count(toks[j].text) != 0) {
        smart = true;
        break;
      }
    }
    if (!smart) {
      const Token* type = At(toks, i + 1);
      Report(file, out, "naked-new", toks[i].line,
             "new " + (IsAnyIdent(type) ? type->text : std::string()),
             "naked 'new': wrap the allocation in std::unique_ptr / "
             "std::make_unique (allocator shim files are exempt)");
    }
  }
}

void CheckNakedDelete(const LexedFile& file, std::vector<Finding>* out) {
  if (IsAllocatorShim(file.path)) return;
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(&toks[i], "delete")) continue;
    const Token* prev = i > 0 ? &toks[i - 1] : nullptr;
    if (IsPunct(prev, "=") || IsIdent(prev, "operator")) continue;
    const Token* target = At(toks, i + 1);
    Report(file, out, "naked-delete", toks[i].line,
           "delete " + (IsAnyIdent(target) ? target->text : std::string()),
           "explicit 'delete': ownership must live in a smart pointer "
           "(allocator shim files are exempt)");
  }
}

// ---------------------------------------------------------------------------
// raw-std-mutex + mutex-missing-guard: concurrent code uses the annotated
// wrappers so clang's -Wthread-safety can check it, and states its contract.

const std::set<std::string, std::less<>> kWrappedMutexTypes = {
    "Mutex", "SharedMutex",
};

const std::set<std::string, std::less<>> kRawMutexTypes = {
    "mutex",           "shared_mutex",          "recursive_mutex",
    "timed_mutex",     "condition_variable",    "condition_variable_any",
    "recursive_timed_mutex",
};

void CheckRawStdMutex(const LexedFile& file, std::vector<Finding>* out) {
  if (EffectivePath(file.path) == "src/common/thread_annotations.h") return;
  const auto& toks = file.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsIdent(&toks[i], "std") && IsPunct(&toks[i + 1], "::") &&
        toks[i + 2].kind == TokenKind::kIdent &&
        kRawMutexTypes.count(toks[i + 2].text) != 0) {
      Report(file, out, "raw-std-mutex", toks[i].line,
             "std::" + toks[i + 2].text,
             "raw std::" + toks[i + 2].text +
                 ": use the annotated wrappers in "
                 "common/thread_annotations.h (Mutex, SharedMutex, "
                 "CondVar) so -Wthread-safety can check the contract");
    }
  }
}

void CheckMutexMissingGuard(const LexedFile& file, std::vector<Finding>* out) {
  if (EffectivePath(file.path) == "src/common/thread_annotations.h") return;
  // A class body that declares a mutex member must annotate at least one
  // field with MMM_GUARDED_BY / MMM_PT_GUARDED_BY.
  const auto& toks = file.tokens;
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
                          !IsPunct(At(toks, j >= 1 ? j - 1 : 0), "<");
      bool raw_type = kRawMutexTypes.count(toks[j].text) != 0 && j >= 2 &&
                      IsIdent(&toks[j - 2], "std") &&
                      IsPunct(&toks[j - 1], "::");
      if (depth == 0 && (wrapped_type || raw_type)) {
        // `Mutex name [MMM_LOCK_RANK(n)] ;` at paren depth 0 is a member
        // declaration.
        const Token* name = At(toks, j + 1);
        size_t after = j + 2;
        if (IsIdent(At(toks, after), "MMM_LOCK_RANK") &&
            IsPunct(At(toks, after + 1), "(")) {
          after = SkipParens(toks, after + 1);
        }
        if (IsAnyIdent(name) && IsPunct(At(toks, after), ";")) {
          mutex_members.emplace_back(toks[j].line, name->text);
        }
      }
    }
    if (!has_guard) {
      for (const auto& [line, name] : mutex_members) {
        Report(file, out, "mutex-missing-guard", line, name,
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
// neither the Env write entry points nor the FileStore ones — so batching,
// journaling, and crash-point sweeps observe them.

const std::set<std::string, std::less<>> kFileStoreWrites = {"Put", "PutString",
                                                             "Append"};

namespace {

/// True when the member call at `i` is reached the way approach code
/// reaches a FileStore: through a pointer (`context.file_store->Put(`), or
/// on a receiver whose name says it is a store (`store.Put(`). This keeps
/// `JsonValue::Append` on local arrays clean.
bool IsFileStoreWriteCall(const std::vector<Token>& toks, size_t i) {
  if (kFileStoreWrites.count(toks[i].text) == 0 ||
      !IsPunct(At(toks, i + 1), "(") || i == 0) {
    return false;
  }
  if (IsPunct(&toks[i - 1], "->")) return true;
  return i >= 2 && IsPunct(&toks[i - 1], ".") &&
         toks[i - 2].kind == TokenKind::kIdent &&
         toks[i - 2].text.find("store") != std::string::npos;
}

}  // namespace

void CheckDirectEnvWrite(const LexedFile& file, std::vector<Finding>* out) {
  if (!UnderDir(file.path, "src/core/")) return;
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if (((toks[i].text == "WriteFile" || toks[i].text == "AppendToFile") &&
         IsPunct(At(toks, i + 1), "(")) ||
        IsFileStoreWriteCall(toks, i)) {
      Report(file, out, "direct-env-write", toks[i].line, toks[i].text,
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

void CheckDirectEnvRead(const LexedFile& file, std::vector<Finding>* out) {
  if (!UnderDir(file.path, "src/core/")) return;
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    if ((toks[i].text == "ReadFile" || toks[i].text == "ReadFileRange") &&
        IsPunct(At(toks, i + 1), "(")) {
      Report(file, out, "direct-env-read", toks[i].line, toks[i].text,
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

void CheckDirectManagerOpen(const LexedFile& file, std::vector<Finding>* out) {
  for (std::string_view owner : {"src/core/", "src/cluster/", "tests/",
                                 "bench/"}) {
    if (UnderDir(file.path, owner)) return;
  }
  const auto& toks = file.tokens;
  for (size_t i = 0; i + 3 < toks.size(); ++i) {
    if (IsIdent(&toks[i], "ModelSetManager") && IsPunct(&toks[i + 1], "::") &&
        IsIdent(&toks[i + 2], "Open") && IsPunct(&toks[i + 3], "(")) {
      Report(file, out, "direct-manager-open", toks[i].line,
             "ModelSetManager::Open",
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

void CheckChunkDelete(const LexedFile& file, std::vector<Finding>* out) {
  if (UnderDir(file.path, "src/cas/")) return;
  const auto& toks = file.tokens;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!IsIdent(&toks[i], "Delete") && !IsIdent(&toks[i], "DeleteFile")) {
      continue;
    }
    if (!IsPunct(At(toks, i + 1), "(")) continue;
    size_t end = SkipParens(toks, i + 1);
    for (size_t j = i + 2; j + 1 < end; ++j) {
      bool chunk_arg =
          IsIdent(&toks[j], "ChunkBlobName") ||
          IsIdent(&toks[j], "kCasChunkPrefix") ||
          (toks[j].kind == TokenKind::kString &&
           toks[j].text.rfind("cas-", 0) == 0);
      if (chunk_arg) {
        Report(file, out, "chunk-delete", toks[i].line, toks[i].text,
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

namespace {

/// Maps each scanned file to a node, and resolves an include string from a
/// given file to the node it names (or "" if it is not a scanned file).
class IncludeGraph {
 public:
  explicit IncludeGraph(const std::vector<LexedFile>& files) {
    for (const LexedFile& f : files) {
      by_suffix_[NormalizedSuffix(f.path)] = f.path;
      by_exact_[fs::weakly_canonical(f.path).string()] = f.path;
    }
    for (const LexedFile& f : files) {
      for (const IncludeDirective& inc : QuotedIncludes(f)) {
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
    // Visit nodes in path order so the closing edge does not depend on hash
    // order.
    std::vector<std::string> nodes;
    for (const auto& [node, unused] : edges_) nodes.push_back(node);
    std::sort(nodes.begin(), nodes.end());
    for (const std::string& node : nodes) {
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
    std::string effective = EffectivePath(path);
    if (effective.rfind("src/", 0) == 0) return effective.substr(4);
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
          std::set<std::string> members, names;
          for (auto p = begin; p != stack->end(); ++p) {
            chain += NormalizedSuffix(*p) + " -> ";
            members.insert(*p);
            names.insert(NormalizedSuffix(*p));
          }
          chain += NormalizedSuffix(edge.to);
          std::string key, symbol;
          for (const std::string& m : members) key += m + "|";
          for (const std::string& n : names) {
            symbol += symbol.empty() ? n : "<->" + n;
          }
          if (reported->insert(key).second) {
            Finding f;
            f.analysis = f.rule = "include-cycle";
            f.path = node;
            f.line = edge.line;
            f.symbol = symbol;
            f.message = "include cycle: " + chain;
            findings->push_back(std::move(f));
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

}  // namespace

void CheckIncludeCycles(const std::vector<LexedFile>& files,
                        std::vector<Finding>* out) {
  IncludeGraph(files).ReportCycles(out);
}

}  // namespace mmmsa
