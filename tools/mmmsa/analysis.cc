#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cfg.h"
#include "checks.h"
#include "parser.h"
#include "sa.h"

namespace mmmsa {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// File collection + lexing.

bool HasSourceExtension(const fs::path& p) {
  std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cc" || ext == ".cpp";
}

std::vector<std::string> CollectSources(const std::vector<std::string>& paths,
                                        std::vector<std::string>* io_errors) {
  std::vector<std::string> out;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (auto it = fs::recursive_directory_iterator(
               path, fs::directory_options::skip_permission_denied, ec);
           it != fs::recursive_directory_iterator(); it.increment(ec)) {
        if (ec) break;
        if (it->is_regular_file(ec) && HasSourceExtension(it->path())) {
          out.push_back(it->path().generic_string());
        }
      }
    } else if (fs::is_regular_file(path, ec)) {
      out.push_back(path);
    } else if (io_errors != nullptr) {
      io_errors->push_back(path);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  *out = ss.str();
  return true;
}

std::vector<LexedFile> LoadFiles(const std::vector<std::string>& paths,
                                 std::vector<std::string>* io_errors) {
  std::vector<LexedFile> files;
  for (const std::string& path : CollectSources(paths, io_errors)) {
    std::string contents;
    if (!ReadFile(path, &contents)) {
      if (io_errors != nullptr) io_errors->push_back(path);
      continue;
    }
    files.push_back(Lex(path, contents));
  }
  return files;
}

// ---------------------------------------------------------------------------
// Lock-expression and callee resolution.

struct Analyzer;

/// Splits a member chain like `c . topo_mu_` / `store_ -> mu_` into
/// segments; each segment may carry a trailing `()` call marker.
struct ChainSeg {
  std::string name;
  bool call = false;
};

/// Parses tokens [begin, end) as `seg (. | ->) seg ...`, each seg an ident
/// optionally followed by `( )` (empty-arg accessor). Leading `*`/`&`/`this->`
/// is tolerated. Returns empty when the shape does not fit.
std::vector<ChainSeg> ParseChain(const std::vector<Token>& toks, size_t begin,
                                 size_t end) {
  std::vector<ChainSeg> chain;
  size_t i = begin;
  while (i < end && (IsPunct(&toks[i], "*") || IsPunct(&toks[i], "&"))) ++i;
  if (i < end && IsIdent(&toks[i], "this") && i + 1 < end &&
      IsPunct(&toks[i + 1], "->")) {
    i += 2;  // `this->member` resolves like a bare member
  }
  while (i < end) {
    if (!IsAnyIdent(&toks[i])) return {};
    ChainSeg seg;
    seg.name = toks[i].text;
    ++i;
    if (i < end && IsPunct(&toks[i], "(")) {
      size_t close = SkipParens(toks, i);
      if (close - i != 2) return {};  // accessor chains only: no arguments
      seg.call = true;
      i = close;
    }
    chain.push_back(std::move(seg));
    if (i >= end) break;
    if (!IsPunct(&toks[i], ".") && !IsPunct(&toks[i], "->")) return {};
    ++i;
    if (i >= end) return {};  // trailing separator: malformed
  }
  return chain;
}

struct Analyzer {
  explicit Analyzer(const Program& p) : program(p) {}
  const Program& program;

  /// Walks the enclosing-class chain from `scope` outward looking up `key`
  /// with `probe`; returns the first hit.
  template <typename Fn>
  std::string ProbeScopes(const std::string& scope, Fn probe) const {
    std::string s = scope;
    while (true) {
      std::string hit = probe(s);
      if (!hit.empty()) return hit;
      if (s.empty()) return "";
      size_t pos = s.rfind("::");
      s = pos == std::string::npos ? "" : s.substr(0, pos);
    }
  }

  /// Resolves the class of chain segment 0 in the context of `fn`.
  std::string ResolveChainBase(const FunctionInfo& fn,
                               const ChainSeg& seg) const {
    if (seg.call) {
      // Accessor call at the head: a method of the enclosing class or a
      // free function with a unique class-valued return.
      const FunctionInfo* callee = nullptr;
      std::string q = ProbeScopes(fn.class_scope, [&](const std::string& s) {
        std::string cand = s.empty() ? seg.name : s + "::" + seg.name;
        return program.by_qualified.count(cand) != 0 ? cand : std::string();
      });
      if (!q.empty()) {
        callee = &program.functions[program.by_qualified.at(q)[0]];
        return callee->return_class;
      }
      return "";
    }
    auto vt = fn.var_types.find(seg.name);
    if (vt != fn.var_types.end()) return vt->second;
    return ProbeScopes(fn.class_scope, [&](const std::string& s) {
      if (s.empty()) return std::string();
      auto cit = program.classes.find(s);
      if (cit == program.classes.end()) return std::string();
      auto mt = cit->second.member_types.find(seg.name);
      return mt != cit->second.member_types.end() ? mt->second : std::string();
    });
  }

  /// Steps from class `cls` through one chain segment.
  std::string ResolveChainStep(const std::string& cls,
                               const ChainSeg& seg) const {
    auto cit = program.classes.find(cls);
    if (cit == program.classes.end()) return "";
    if (seg.call) {
      auto rit = cit->second.method_return_class.find(seg.name);
      return rit != cit->second.method_return_class.end() ? rit->second : "";
    }
    auto mt = cit->second.member_types.find(seg.name);
    return mt != cit->second.member_types.end() ? mt->second : "";
  }

  /// Resolves a lock expression (tokens of a guard-constructor argument or
  /// an MMM_REQUIRES spelling) to a lock id; "" when unknown.
  std::string ResolveLockExpr(const FunctionInfo& fn,
                              const std::vector<Token>& toks, size_t begin,
                              size_t end) const {
    std::vector<ChainSeg> chain = ParseChain(toks, begin, end);
    if (chain.empty()) return "";
    if (chain.size() == 1) {
      const ChainSeg& seg = chain[0];
      if (seg.call) {
        // `MutexLock lock(SinkMutex());` — the returned-lock idiom.
        std::string q = ProbeScopes(fn.class_scope, [&](const std::string& s) {
          std::string cand = s.empty() ? seg.name : s + "::" + seg.name;
          return program.returned_locks.count(cand) != 0 ? cand
                                                         : std::string();
        });
        if (!q.empty()) return program.returned_locks.at(q);
        return "";
      }
      // Bare lock member of the enclosing class chain...
      std::string id = ProbeScopes(fn.class_scope, [&](const std::string& s) {
        if (s.empty()) return std::string();
        std::string cand = s + "::" + seg.name;
        return program.lock_index.count(cand) != 0 ? cand : std::string();
      });
      if (!id.empty()) return id;
      // ...or a unique lock member name anywhere.
      auto mit = program.locks_by_member.find(seg.name);
      if (mit != program.locks_by_member.end() && mit->second.size() == 1) {
        return mit->second[0];
      }
      return "";
    }
    // Chain: resolve the receiver class, then the final lock member.
    std::string cls = ResolveChainBase(fn, chain[0]);
    for (size_t i = 1; i + 1 < chain.size() && !cls.empty(); ++i) {
      cls = ResolveChainStep(cls, chain[i]);
    }
    const std::string& leaf = chain.back().name;
    if (!cls.empty()) {
      std::string cand = cls + "::" + leaf;
      if (program.lock_index.count(cand) != 0) return cand;
    }
    auto mit = program.locks_by_member.find(leaf);
    if (mit != program.locks_by_member.end() && mit->second.size() == 1) {
      return mit->second[0];
    }
    return "";
  }

  /// Resolves a call site ending at the callee ident `toks[name_idx]`
  /// (followed by `(`). `chain_begin` is the first token of the receiver
  /// chain (== name_idx for a bare call). Returns function indices.
  std::vector<size_t> ResolveCallee(const FunctionInfo& fn,
                                    const std::vector<Token>& toks,
                                    size_t chain_begin, size_t name_idx) const {
    const std::string& name = toks[name_idx].text;
    // Qualified call `C::m(...)` — must win over the bare-call probe, or
    // `Shard::Open(...)` inside a Coordinator method would resolve to
    // Coordinator::Open.
    if (name_idx >= 1 && IsPunct(&toks[name_idx - 1], "::")) {
      if (name_idx >= 2 && IsAnyIdent(&toks[name_idx - 2])) {
        std::string cls = mmmsa::ResolveClassName(program, fn.class_scope,
                                                  toks[name_idx - 2].text);
        if (!cls.empty()) {
          auto qit = program.by_qualified.find(cls + "::" + name);
          if (qit != program.by_qualified.end()) return qit->second;
        }
      }
      return {};  // namespace-qualified (std::move, mmm::...) or unknown
    }
    if (chain_begin == name_idx) {
      // Bare call: enclosing class method first, then a free function.
      std::string q = ProbeScopes(fn.class_scope, [&](const std::string& s) {
        if (s.empty()) return std::string();
        std::string cand = s + "::" + name;
        return program.by_qualified.count(cand) != 0 ? cand : std::string();
      });
      if (!q.empty()) return program.by_qualified.at(q);
      auto fit = program.free_by_name.find(name);
      if (fit != program.free_by_name.end() && fit->second.size() == 1) {
        return fit->second;
      }
      return {};
    }
    // Member call through a receiver chain.
    std::vector<ChainSeg> chain = ParseChain(toks, chain_begin, name_idx);
    if (chain.empty()) return {};
    std::string cls = ResolveChainBase(fn, chain[0]);
    for (size_t i = 1; i < chain.size() && !cls.empty(); ++i) {
      cls = ResolveChainStep(cls, chain[i]);
    }
    if (cls.empty()) return {};
    std::string probe = cls;
    while (!probe.empty()) {
      auto qit = program.by_qualified.find(probe + "::" + name);
      if (qit != program.by_qualified.end()) return qit->second;
      size_t pos = probe.rfind("::");
      probe = pos == std::string::npos ? "" : probe.substr(0, pos);
      break;  // only the exact class: base-class walks would guess
    }
    return {};
  }
};

/// Finds the start of the receiver chain for a call whose name ident sits at
/// `name_idx`: walks back over `seg (.|->) seg` links. Returns name_idx for
/// a bare call.
size_t ChainStart(const std::vector<Token>& toks, size_t name_idx) {
  size_t i = name_idx;
  while (i >= 2 &&
         (IsPunct(&toks[i - 1], ".") || IsPunct(&toks[i - 1], "->"))) {
    size_t prev = i - 2;
    if (IsPunct(&toks[prev], ")")) {
      // accessor call: scan back to its `(` then the ident before it
      int depth = 0;
      size_t j = prev;
      while (true) {
        if (IsPunct(&toks[j], ")")) ++depth;
        if (IsPunct(&toks[j], "(") && --depth == 0) break;
        if (j == 0) return i;
        --j;
      }
      if (j == 0 || !IsAnyIdent(&toks[j - 1])) return i;
      i = j - 1;
      continue;
    }
    if (!IsAnyIdent(&toks[prev])) return i;
    i = prev;
  }
  return i;
}

bool IsCallKeyword(const std::string& s) {
  static const std::set<std::string> kKeywords = {
      "if",       "while",      "for",         "switch",  "return",
      "sizeof",   "alignof",    "decltype",    "new",     "delete",
      "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast",
      "assert",   "defined",    "catch",       "throw",
  };
  return kKeywords.count(s) != 0 || s.rfind("MMM_", 0) == 0;
}

// ---------------------------------------------------------------------------
// Analysis 1: lock-order graph.

struct LockEdge {
  std::string from, to;
  std::string file;
  int line = 0;
  std::string via;  ///< qualified function where the edge was observed
};

struct CallSite {
  size_t callee = 0;        ///< index into program.functions
  std::vector<std::string> held;
  std::string file;
  int line = 0;
};

struct FnLockFacts {
  std::vector<std::string> direct;  ///< lock ids acquired in the body
  std::vector<CallSite> calls;
};

class LockOrderAnalysis {
 public:
  LockOrderAnalysis(const Program& program, const Analyzer& az)
      : program_(program), az_(az) {}

  void Run(std::vector<Finding>* findings) {
    facts_.resize(program_.functions.size());
    for (size_t i = 0; i < program_.functions.size(); ++i) {
      CollectFunction(i);
    }
    PropagateSummaries();
    AddCallEdges();
    ReportMissingRanks(findings);
    ReportInversions(findings);
    ReportCycles(findings);
  }

  const std::map<std::pair<std::string, std::string>, LockEdge>& edges() const {
    return edges_;
  }

 private:
  void AddEdge(const std::string& from, const std::string& to,
               const std::string& file, int line, const std::string& via) {
    auto key = std::make_pair(from, to);
    if (edges_.count(key) == 0) {
      edges_[key] = LockEdge{from, to, file, line, via};
    }
  }

  /// Scans one token run for guard declarations and call sites, with `held`
  /// live for the rest of the enclosing statement sequence.
  void ScanTokens(size_t fn_idx, const std::vector<Token>& toks,
                  std::vector<std::string>* held) {
    const FunctionInfo& fn = program_.functions[fn_idx];
    for (size_t i = 0; i < toks.size(); ++i) {
      if (!IsAnyIdent(&toks[i])) continue;
      const std::string& t = toks[i].text;
      if (t == "MutexLock" || t == "ReaderMutexLock" ||
          t == "WriterMutexLock") {
        // `MutexLock name ( expr ) ;`
        if (i + 2 < toks.size() && IsAnyIdent(&toks[i + 1]) &&
            IsPunct(&toks[i + 2], "(")) {
          size_t close = SkipParens(toks, i + 2);
          std::string id =
              az_.ResolveLockExpr(fn, toks, i + 3, close > i + 2 ? close - 1
                                                                 : i + 3);
          if (!id.empty()) {
            for (const std::string& h : *held) {
              AddEdge(h, id, fn.file, toks[i].line, fn.qualified);
            }
            facts_[fn_idx].direct.push_back(id);
            held->push_back(id);
          }
          i = close > i ? close - 1 : i;
        }
        continue;
      }
      // Call site: ident followed by `(`, not a keyword/macro, not a guard.
      if (i + 1 < toks.size() && IsPunct(&toks[i + 1], "(") &&
          !IsCallKeyword(t)) {
        size_t chain_begin = ChainStart(toks, i);
        std::vector<size_t> callees =
            az_.ResolveCallee(fn, toks, chain_begin, i);
        for (size_t callee : callees) {
          if (callee == fn_idx) continue;  // recursion adds nothing
          facts_[fn_idx].calls.push_back(
              CallSite{callee, *held, fn.file, toks[i].line});
        }
      }
    }
  }

  void WalkStmts(size_t fn_idx, const std::vector<Stmt>& stmts,
                 std::vector<std::string> held) {
    for (const Stmt& s : stmts) {
      size_t held_before = held.size();
      ScanTokens(fn_idx, s.tokens, &held);
      // Guards declared inside a condition/plain stmt stay held for the
      // nested bodies and the following siblings (RAII scope = enclosing
      // block, which this sequence models).
      WalkStmts(fn_idx, s.body, held);
      if (s.has_else) {
        std::vector<std::string> else_held(held.begin(),
                                           held.begin() + held_before);
        // else branch: guards from the then-path are out of scope; guards
        // from the condition (rare) conservatively dropped too.
        WalkStmts(fn_idx, s.else_body, else_held);
      }
    }
  }

  void CollectFunction(size_t fn_idx) {
    const FunctionInfo& fn = program_.functions[fn_idx];
    std::vector<std::string> held;
    for (const std::string& spelling : fn.requires_locks) {
      LexedFile lexed = Lex("<requires>", spelling);
      std::string id =
          az_.ResolveLockExpr(fn, lexed.tokens, 0, lexed.tokens.size());
      if (!id.empty()) held.push_back(id);
    }
    required_[fn_idx] = held;
    WalkStmts(fn_idx, fn.body, std::move(held));
  }

  void PropagateSummaries() {
    summaries_.assign(program_.functions.size(), {});
    for (size_t i = 0; i < facts_.size(); ++i) {
      summaries_[i].insert(facts_[i].direct.begin(), facts_[i].direct.end());
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < facts_.size(); ++i) {
        for (const CallSite& cs : facts_[i].calls) {
          for (const std::string& id : summaries_[cs.callee]) {
            if (summaries_[i].insert(id).second) changed = true;
          }
        }
      }
    }
  }

  void AddCallEdges() {
    for (size_t i = 0; i < facts_.size(); ++i) {
      for (const CallSite& cs : facts_[i].calls) {
        if (cs.held.empty()) continue;
        for (const std::string& acquired : summaries_[cs.callee]) {
          for (const std::string& h : cs.held) {
            AddEdge(h, acquired, cs.file, cs.line,
                    program_.functions[i].qualified);
          }
        }
      }
    }
  }

  void ReportMissingRanks(std::vector<Finding>* findings) {
    for (const LockDecl& lock : program_.locks) {
      if (!UnderDir(lock.file, "src/") || lock.rank >= 0) continue;
      Finding f;
      f.analysis = "lock-order";
      f.rule = "lock-rank-missing";
      f.path = lock.file;
      f.line = lock.line;
      f.symbol = lock.id;
      f.message = "lock '" + lock.id +
                  "' has no MMM_LOCK_RANK annotation; every Mutex/SharedMutex "
                  "under src/ must declare its place in the global order "
                  "(DESIGN.md §6.2)";
      findings->push_back(std::move(f));
    }
  }

  void ReportInversions(std::vector<Finding>* findings) {
    for (const auto& [key, edge] : edges_) {
      const LockDecl* from = program_.FindLock(edge.from);
      const LockDecl* to = program_.FindLock(edge.to);
      if (from == nullptr || to == nullptr) continue;
      if (from->rank < 0 || to->rank < 0) continue;
      if (from->rank < to->rank) continue;
      Finding f;
      f.analysis = "lock-order";
      f.rule = "rank-inversion";
      f.path = edge.file;
      f.line = edge.line;
      f.symbol = edge.from + "->" + edge.to;
      char buf[512];
      std::snprintf(buf, sizeof(buf),
                    "'%s' (rank %d) acquired while holding '%s' (rank %d) in "
                    "%s; acquisition order must follow strictly increasing "
                    "ranks",
                    edge.to.c_str(), to->rank, edge.from.c_str(), from->rank,
                    edge.via.c_str());
      f.message = buf;
      findings->push_back(std::move(f));
    }
  }

  void ReportCycles(std::vector<Finding>* findings) {
    // Tarjan SCC over the acquisition graph; an SCC of >1 lock, or a
    // self-edge, is a potential deadlock cycle.
    std::map<std::string, std::vector<std::string>> adj;
    for (const auto& [key, edge] : edges_) {
      adj[edge.from].push_back(edge.to);
      adj[edge.to];  // ensure node exists
    }
    std::map<std::string, int> index, low;
    std::map<std::string, bool> on_stack;
    std::vector<std::string> stack;
    std::vector<std::vector<std::string>> sccs;
    int counter = 0;
    // Iterative Tarjan to stay safe on deep graphs.
    struct Frame {
      std::string node;
      size_t next = 0;
    };
    for (const auto& [start, unused] : adj) {
      if (index.count(start) != 0) continue;
      std::vector<Frame> frames{{start, 0}};
      index[start] = low[start] = counter++;
      stack.push_back(start);
      on_stack[start] = true;
      while (!frames.empty()) {
        Frame& fr = frames.back();
        const std::vector<std::string>& succs = adj[fr.node];
        if (fr.next < succs.size()) {
          const std::string& next = succs[fr.next++];
          if (index.count(next) == 0) {
            index[next] = low[next] = counter++;
            stack.push_back(next);
            on_stack[next] = true;
            frames.push_back(Frame{next, 0});
          } else if (on_stack[next]) {
            low[fr.node] = std::min(low[fr.node], index[next]);
          }
          continue;
        }
        if (low[fr.node] == index[fr.node]) {
          std::vector<std::string> scc;
          while (true) {
            std::string top = stack.back();
            stack.pop_back();
            on_stack[top] = false;
            scc.push_back(top);
            if (top == fr.node) break;
          }
          sccs.push_back(std::move(scc));
        }
        std::string done = fr.node;
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().node] =
              std::min(low[frames.back().node], low[done]);
        }
      }
    }
    for (std::vector<std::string>& scc : sccs) {
      bool self_loop =
          scc.size() == 1 && edges_.count({scc[0], scc[0]}) != 0;
      if (scc.size() < 2 && !self_loop) continue;
      std::sort(scc.begin(), scc.end());
      std::string joined;
      for (const std::string& id : scc) {
        joined += joined.empty() ? id : "<->" + id;
      }
      // Anchor the finding at the lexicographically first in-cycle edge.
      const LockEdge* site = nullptr;
      for (const auto& [key, edge] : edges_) {
        if (std::find(scc.begin(), scc.end(), edge.from) == scc.end()) continue;
        if (std::find(scc.begin(), scc.end(), edge.to) == scc.end()) continue;
        if (site == nullptr) site = &edge;
      }
      Finding f;
      f.analysis = "lock-order";
      f.rule = "lock-cycle";
      f.path = site != nullptr ? site->file : "<unknown>";
      f.line = site != nullptr ? site->line : 0;
      f.symbol = joined;
      f.message =
          "acquisition-order cycle between locks {" + joined +
          "}: two threads taking them in opposite orders can deadlock";
      findings->push_back(std::move(f));
    }
  }

  const Program& program_;
  const Analyzer& az_;
  std::vector<FnLockFacts> facts_;
  std::map<size_t, std::vector<std::string>> required_;
  std::vector<std::set<std::string>> summaries_;
  std::map<std::pair<std::string, std::string>, LockEdge> edges_;
};

// ---------------------------------------------------------------------------
// Analysis 2: Status dataflow.

class StatusFlowAnalysis {
 public:
  explicit StatusFlowAnalysis(const Program& program) : program_(program) {}

  void Run(std::vector<Finding>* findings) {
    for (const FunctionInfo& fn : program_.functions) {
      AnalyzeFunction(fn, findings);
    }
  }

 private:
  enum class Mark { kNone, kLive, kConsumed };

  struct VarState {
    Mark mark = Mark::kNone;
    std::set<int> origins;  ///< CFG node ids whose assignment is unchecked

    bool Join(const VarState& other) {
      // Optimistic join: a path that consumed the value clears the alarm.
      VarState merged;
      if (mark == Mark::kConsumed || other.mark == Mark::kConsumed) {
        merged.mark = Mark::kConsumed;
      } else if (mark == Mark::kLive || other.mark == Mark::kLive) {
        merged.mark = Mark::kLive;
        merged.origins = origins;
        merged.origins.insert(other.origins.begin(), other.origins.end());
      } else {
        merged.mark = Mark::kNone;
      }
      bool changed = merged.mark != mark || merged.origins != origins;
      *this = merged;
      return changed;
    }
  };

  /// Declared Status locals: stmt-initial `Status name` / `mmm::Status name`
  /// (also after `const`). Returns name -> decl line.
  static void FindDecl(const Stmt& s, std::map<std::string, int>* decls) {
    const std::vector<Token>& toks = s.tokens;
    size_t i = 0;
    if (IsIdent(At(toks, i), "const")) ++i;
    if (IsIdent(At(toks, i), "mmm") && IsPunct(At(toks, i + 1), "::")) i += 2;
    if (!IsIdent(At(toks, i), "Status")) return;
    if (!IsAnyIdent(At(toks, i + 1))) return;
    (*decls)[toks[i + 1].text] = s.line;
  }

  static bool Mentions(const std::vector<Token>& toks, const std::string& var,
                       size_t from = 0) {
    for (size_t i = from; i < toks.size(); ++i) {
      if (!IsIdent(&toks[i], var)) continue;
      if (i > 0 &&
          (IsPunct(&toks[i - 1], ".") || IsPunct(&toks[i - 1], "->"))) {
        continue;  // member of something else that happens to share the name
      }
      return true;
    }
    return false;
  }

  /// True when the RHS tokens are a benign OK construction.
  static bool IsOkConstruction(const std::vector<Token>& toks, size_t from) {
    for (size_t i = from; i < toks.size(); ++i) {
      if (IsPunct(&toks[i], ";")) break;
      if (IsIdent(&toks[i], "OK") || IsIdent(&toks[i], "OkStatus")) {
        return true;
      }
      if (toks[i].kind == TokenKind::kIdent && toks[i].text != "Status" &&
          toks[i].text != "mmm") {
        return false;
      }
    }
    return false;
  }

  void AnalyzeFunction(const FunctionInfo& fn, std::vector<Finding>* findings) {
    Cfg cfg = BuildCfg(fn.body);
    if (cfg.entry < 0) return;

    // Collect candidate variables from declaration statements.
    std::map<std::string, int> decls;
    for (int n = 0; n < static_cast<int>(cfg.nodes.size()); ++n) {
      const Stmt* s = cfg.nodes[n].stmt;
      if (s != nullptr && s->kind == Stmt::Kind::kPlain) FindDecl(*s, &decls);
    }
    for (const auto& [var, decl_line] : decls) {
      AnalyzeVar(fn, fn.file, cfg, var, findings);
    }
  }

  /// Transfer function for one node; may emit an overwrite finding.
  VarState Transfer(const FunctionInfo& fn, const std::string& path,
                    const Cfg& cfg, int node, const std::string& var,
                    VarState in, std::set<std::string>* reported,
                    std::vector<Finding>* findings) {
    const Stmt* s = cfg.nodes[node].stmt;
    if (s == nullptr) {  // synthetic exit: falling off the end drops `var`
      if (in.mark == Mark::kLive) {
        for (int origin : in.origins) {
          const Stmt* os = cfg.nodes[origin].stmt;
          ReportDrop(fn, path, os != nullptr ? os->line : fn.line, var,
                     "falls out of scope", reported, findings);
        }
      }
      return in;
    }
    const std::vector<Token>& toks = s->tokens;

    // Declaration statement for this var?
    bool is_decl = false;
    {
      std::map<std::string, int> d;
      if (s->kind == Stmt::Kind::kPlain) FindDecl(*s, &d);
      is_decl = d.count(var) != 0;
    }
    if (is_decl) {
      // `Status v = <init>;` — live iff initialized with a non-OK call.
      size_t eq = 0;
      for (size_t i = 0; i < toks.size(); ++i) {
        if (IsPunct(&toks[i], "=")) {
          eq = i;
          break;
        }
      }
      VarState out;
      if (eq == 0) {
        out.mark = Mark::kConsumed;  // default-constructed OK status
      } else if (IsOkConstruction(toks, eq + 1)) {
        out.mark = Mark::kConsumed;
      } else {
        out.mark = Mark::kLive;
        out.origins = {node};
      }
      return out;
    }

    // Head assignment `v = <rhs>;`?
    if (s->kind == Stmt::Kind::kPlain && toks.size() >= 2 &&
        IsIdent(&toks[0], var) && IsPunct(&toks[1], "=")) {
      bool rhs_reads_v = Mentions(toks, var, 2);
      if (!rhs_reads_v && in.mark == Mark::kLive) {
        for (int origin : in.origins) {
          if (origin == node) continue;  // loop re-assignment of itself
          const Stmt* os = cfg.nodes[origin].stmt;
          std::string key = var + "@" + std::to_string(s->line) + "<-" +
                            std::to_string(os != nullptr ? os->line : 0);
          if (!reported->insert("ow:" + key).second) continue;
          Finding f;
          f.analysis = "status-flow";
          f.rule = "status-overwrite";
          f.path = path;
          f.line = s->line;
          f.symbol = fn.qualified + "::" + var;
          f.message = "'" + var + "' still holds the unchecked Status from " +
                      "line " +
                      std::to_string(os != nullptr ? os->line : 0) +
                      " when it is overwritten here in " + fn.qualified +
                      "; check or propagate it first";
          findings->push_back(std::move(f));
        }
      }
      VarState out;
      if (IsOkConstruction(toks, 2)) {
        out.mark = Mark::kConsumed;
      } else {
        out.mark = Mark::kLive;
        out.origins = {node};
      }
      return out;
    }

    // Return statement: mentioning v propagates it; otherwise a live v is
    // dropped on this early-return path.
    if (s->kind == Stmt::Kind::kReturn) {
      if (Mentions(toks, var)) {
        VarState out;
        out.mark = Mark::kConsumed;
        return out;
      }
      if (in.mark == Mark::kLive) {
        ReportDrop(fn, path, s->line, var,
                   "is dropped by this return", reported, findings);
        VarState out;
        out.mark = Mark::kConsumed;  // report each return once
        return out;
      }
      return in;
    }

    // Any other mention consumes (reads, passes, .ok() checks, macro use).
    if (Mentions(toks, var)) {
      VarState out;
      out.mark = Mark::kConsumed;
      return out;
    }
    return in;
  }

  void ReportDrop(const FunctionInfo& fn, const std::string& path, int line,
                  const std::string& var, const std::string& how,
                  std::set<std::string>* reported,
                  std::vector<Finding>* findings) {
    std::string key = "dr:" + var + "@" + std::to_string(line) + ":" + how;
    if (!reported->insert(key).second) return;
    Finding f;
    f.analysis = "status-flow";
    f.rule = "status-drop";
    f.path = path;
    f.line = line;
    f.symbol = fn.qualified + "::" + var;
    f.message = "Status '" + var + "' in " + fn.qualified +
                " is assigned but never checked before it " + how +
                "; propagate it or check .ok()";
    findings->push_back(std::move(f));
  }

  void AnalyzeVar(const FunctionInfo& fn, const std::string& path,
                  const Cfg& cfg, const std::string& var,
                  std::vector<Finding>* findings) {
    size_t n = cfg.nodes.size();
    std::vector<VarState> in_state(n), out_state(n);
    std::set<std::string> reported;
    std::vector<Finding> staged;

    // Two rounds: one to reach the fixpoint silently, then one reporting
    // pass over the stable states (so loop back-edges cannot double-report
    // with partial states).
    for (int round = 0; round < 2; ++round) {
      std::vector<Finding>* sink = round == 0 ? nullptr : &staged;
      bool changed = true;
      int iterations = 0;
      while (changed && iterations++ < 64) {
        changed = false;
        for (int node = 0; node < static_cast<int>(n); ++node) {
          VarState in;
          bool has_pred = false;
          for (int p = 0; p < static_cast<int>(n); ++p) {
            for (int succ : cfg.nodes[p].succs) {
              if (succ != node) continue;
              if (!has_pred) {
                in = out_state[p];
                has_pred = true;
              } else {
                in.Join(out_state[p]);
              }
            }
          }
          if (node == cfg.entry && !has_pred) in = VarState{};
          in_state[node] = in;
          std::vector<Finding> scratch;
          VarState out =
              Transfer(fn, path, cfg, node, var, in, &reported,
                       sink != nullptr ? sink : &scratch);
          if (out.mark != out_state[node].mark ||
              out.origins != out_state[node].origins) {
            out_state[node] = out;
            changed = true;
          }
        }
        if (sink != nullptr) break;  // reporting pass: single sweep
      }
      if (round == 0) reported.clear();
    }
    findings->insert(findings->end(), staged.begin(), staged.end());
  }

  const Program& program_;
};

// ---------------------------------------------------------------------------
// Analysis 3: journal-protocol conformance.

class JournalPathAnalysis {
 public:
  JournalPathAnalysis(const Program& program, const Analyzer& az)
      : program_(program), az_(az) {}

  void Run(std::vector<Finding>* findings) {
    size_t n = program_.functions.size();
    std::vector<std::vector<Token>> flat(n);
    for (size_t i = 0; i < n; ++i) {
      Flatten(program_.functions[i].body, &flat[i]);
    }

    // Round 1: direct primitives. A function whose file is part of the
    // storage/CAS machinery is sanctioned — deletions there ARE the
    // journal/sweep implementation.
    std::vector<bool> raw(n, false);
    std::vector<Finding> site(n);
    for (size_t i = 0; i < n; ++i) {
      const FunctionInfo& fn = program_.functions[i];
      if (Sanctioned(fn)) continue;
      bool intent = false;
      for (size_t t = 0; t < flat[i].size(); ++t) {
        const Token& tok = flat[i][t];
        if (IsAnyIdent(&tok) && kIntentIdents.count(tok.text) != 0) {
          intent = true;
        }
        if (intent) break;
        if (IsDeletePrimitive(flat[i], t)) {
          raw[i] = true;
          site[i] = MakeFinding(fn, tok.line,
                                "calls blob/file deletion ('" + tok.text +
                                    "') with no preceding journaled intent");
          break;
        }
      }
    }

    // Fixpoint: calling a raw deleter without preceding intent makes the
    // caller raw too (the violation floats up to the outermost entry).
    std::vector<std::vector<std::pair<size_t, int>>> callsites(n);
    for (size_t i = 0; i < n; ++i) {
      const FunctionInfo& fn = program_.functions[i];
      for (size_t t = 0; t + 1 < flat[i].size(); ++t) {
        if (!IsAnyIdent(&flat[i][t]) || !IsPunct(&flat[i][t + 1], "(")) {
          continue;
        }
        if (IsCallKeyword(flat[i][t].text)) continue;
        size_t chain_begin = ChainStart(flat[i], t);
        for (size_t callee : az_.ResolveCallee(fn, flat[i], chain_begin, t)) {
          if (callee != i) {
            callsites[i].push_back({callee, static_cast<int>(t)});
          }
        }
      }
    }
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t i = 0; i < n; ++i) {
        if (raw[i]) continue;
        const FunctionInfo& fn = program_.functions[i];
        if (Sanctioned(fn)) continue;
        for (const auto& [callee, tok_idx] : callsites[i]) {
          if (!raw[callee]) continue;
          bool intent = false;
          for (int t = 0; t < tok_idx; ++t) {
            if (IsAnyIdent(&flat[i][t]) &&
                kIntentIdents.count(flat[i][t].text) != 0) {
              intent = true;
              break;
            }
          }
          if (intent) continue;
          raw[i] = true;
          site[i] = MakeFinding(
              fn, flat[i][tok_idx].line,
              "reaches blob/file deletion via '" +
                  program_.functions[callee].qualified +
                  "' with no preceding journaled intent on this path");
          changed = true;
          break;
        }
      }
    }

    // Report the raw functions nothing calls: the outermost unjournaled
    // entry points. Raw functions that only discharged callers reach are
    // covered at those call sites.
    std::vector<bool> has_caller(n, false);
    for (size_t i = 0; i < n; ++i) {
      for (const auto& [callee, tok_idx] : callsites[i]) {
        has_caller[callee] = true;
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (raw[i] && !has_caller[i]) findings->push_back(site[i]);
    }
  }

 private:
  inline static const std::set<std::string> kIntentIdents = {
      "Begin",              // CommitJournal::Begin — journaled write intent
      "OnManifestDeleted",  // CAS refcount decrement before blob removal
      "FindOrphanBlobs",    // sweep candidates derived from the journal
      "PendingBlobs",       // journal-replay pending set
  };

  static bool Sanctioned(const FunctionInfo& fn) {
    return UnderDir(fn.file, "src/storage/") || UnderDir(fn.file, "src/cas/");
  }

  static bool IsDeletePrimitive(const std::vector<Token>& toks, size_t i) {
    if (!IsAnyIdent(&toks[i]) || !IsPunct(At(toks, i + 1), "(")) return false;
    if (toks[i].text == "DeleteFile") return true;
    if (toks[i].text != "Delete") return false;
    return i > 0 &&
           (IsPunct(&toks[i - 1], ".") || IsPunct(&toks[i - 1], "->"));
  }

  static void Flatten(const std::vector<Stmt>& stmts,
                      std::vector<Token>* out) {
    for (const Stmt& s : stmts) {
      out->insert(out->end(), s.tokens.begin(), s.tokens.end());
      Flatten(s.body, out);
      Flatten(s.else_body, out);
    }
  }

  Finding MakeFinding(const FunctionInfo& fn, int line,
                      const std::string& what) const {
    Finding f;
    f.analysis = "journal-path";
    f.rule = "unjournaled-delete";
    f.path = fn.file;
    f.line = line;
    f.symbol = fn.qualified;
    f.message = fn.qualified + " " + what +
                "; destructive blob operations must be dominated by a "
                "journal Begin/OnManifestDeleted/orphan-sweep intent "
                "(DESIGN.md §6.3)";
    return f;
  }

  const Program& program_;
  const Analyzer& az_;
};

// ---------------------------------------------------------------------------
// Analysis 4: layer DAG.

void RunLayerDag(const std::vector<LexedFile>& files,
                 std::vector<Finding>* findings) {
  static const std::map<std::string, std::set<std::string>> kAllowed = {
      {"common", {}},
      {"serialize", {"common"}},
      {"tensor", {"common", "serialize"}},
      {"storage", {"common", "serialize"}},
      {"nn", {"common", "serialize", "tensor"}},
      {"data", {"common", "serialize", "tensor"}},
      {"cas", {"common", "serialize", "storage"}},
      {"battery", {"common", "data"}},
      {"prov", {"common", "serialize", "data", "nn"}},
      {"core",
       {"common", "serialize", "tensor", "storage", "cas", "nn", "data",
        "prov"}},
      {"serve", {"common", "serialize", "tensor", "storage", "core"}},
      {"workload", {"common", "core", "data", "nn", "prov", "battery"}},
      {"cluster", {"common", "serialize", "storage", "core", "serve"}},
      {"fleet",
       {"common", "serialize", "storage", "cas", "core", "serve", "cluster",
        "nn", "prov", "battery"}},
  };

  for (const LexedFile& file : files) {
    std::string path = EffectivePath(file.path);
    if (path.rfind("src/", 0) != 0) continue;  // tools/tests/bench: free
    std::string layer = path.substr(4, path.find('/', 4) - 4);
    auto allowed_it = kAllowed.find(layer);
    if (allowed_it == kAllowed.end()) continue;
    const std::set<std::string>& allowed = allowed_it->second;

    for (const IncludeDirective& inc : QuotedIncludes(file)) {
      size_t slash = inc.target.find('/');
      if (slash == std::string::npos) continue;  // same-dir include
      std::string target = inc.target.substr(0, slash);
      if (kAllowed.count(target) == 0) continue;  // not a src layer
      if (target == layer || allowed.count(target) != 0) continue;
      Finding f;
      f.analysis = "layer-dag";
      f.rule = "layer-violation";
      f.path = file.path;
      f.line = inc.line;
      f.symbol = layer + "->" + target;
      f.message = "layer '" + layer + "' must not include '" + inc.target +
                  "' from layer '" + target +
                  "': the enforced dependency DAG (ARCHITECTURE.md) "
                  "points strictly downward";
      findings->push_back(std::move(f));
    }
  }
}

// ---------------------------------------------------------------------------
// The catalog: every check, the rules it reports, and how it runs.

struct Corpus {
  const std::vector<LexedFile>& files;
  const Program& program;  ///< empty unless a whole-program check runs
  const Analyzer& az;
};

struct Check {
  std::string name;
  std::vector<std::string> rules;  ///< rule ids it reports; empty = {name}
  bool whole_program = false;      ///< needs ParseProgram
  void (*run)(const Corpus&, std::vector<Finding>*) = nullptr;
};

template <FileCheck kCheck>
void EachFile(const Corpus& corpus, std::vector<Finding>* out) {
  for (const LexedFile& file : corpus.files) kCheck(file, out);
}

const std::vector<Check>& Catalog() {
  static const std::vector<Check> kChecks = {
      {"lock-order",
       {"lock-cycle", "rank-inversion", "lock-rank-missing"},
       true,
       [](const Corpus& c, std::vector<Finding>* out) {
         LockOrderAnalysis(c.program, c.az).Run(out);
       }},
      {"status-flow",
       {"status-overwrite", "status-drop"},
       true,
       [](const Corpus& c, std::vector<Finding>* out) {
         StatusFlowAnalysis(c.program).Run(out);
       }},
      {"journal-path",
       {"unjournaled-delete"},
       true,
       [](const Corpus& c, std::vector<Finding>* out) {
         JournalPathAnalysis(c.program, c.az).Run(out);
       }},
      {"layer-dag",
       {"layer-violation"},
       false,
       [](const Corpus& c, std::vector<Finding>* out) {
         RunLayerDag(c.files, out);
       }},
      {"banned-random", {}, false, EachFile<CheckBannedRandom>},
      {"discarded-status", {}, false, EachFile<CheckDiscardedStatus>},
      {"naked-new", {}, false, EachFile<CheckNakedNew>},
      {"naked-delete", {}, false, EachFile<CheckNakedDelete>},
      {"mutex-missing-guard", {}, false, EachFile<CheckMutexMissingGuard>},
      {"raw-std-mutex", {}, false, EachFile<CheckRawStdMutex>},
      {"direct-env-write", {}, false, EachFile<CheckDirectEnvWrite>},
      {"direct-env-read", {}, false, EachFile<CheckDirectEnvRead>},
      {"direct-manager-open", {}, false, EachFile<CheckDirectManagerOpen>},
      {"chunk-delete", {}, false, EachFile<CheckChunkDelete>},
      {"include-cycle",
       {},
       false,
       [](const Corpus& c, std::vector<Finding>* out) {
         CheckIncludeCycles(c.files, out);
       }},
  };
  return kChecks;
}

/// True when `name` is a check or one of the rules a check reports.
bool IsCatalogName(const std::string& name) {
  for (const Check& check : Catalog()) {
    if (check.name == name ||
        std::find(check.rules.begin(), check.rules.end(), name) !=
            check.rules.end()) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Suppressions: `MMMSA(<check-or-rule>): <reason>` in a comment on the
// finding's line or the line above, matched in the file that holds it.

std::vector<SuppressionNote> ParseSuppressions(const LexedFile& file) {
  static constexpr std::string_view kOpen = "MMMSA(";
  std::vector<SuppressionNote> notes;
  for (const Comment& c : file.comments) {
    const std::string& text = c.text;
    for (size_t pos = text.find(kOpen); pos != std::string::npos;
         pos = text.find(kOpen, pos + 1)) {
      size_t begin = pos + kOpen.size();
      size_t close = text.find(')', begin);
      if (close == std::string::npos) break;
      std::string name = text.substr(begin, close - begin);
      // Prose that mentions the syntax (a `<rule>` placeholder, no colon)
      // is not a suppression.
      if (name.empty() ||
          name.find_first_not_of("abcdefghijklmnopqrstuvwxyz0123456789-") !=
              std::string::npos ||
          close + 1 >= text.size() || text[close + 1] != ':') {
        continue;
      }
      // The reason runs to the end of the line or the next suppression.
      size_t end = std::min(text.find('\n', close), text.find(kOpen, close));
      std::string reason = text.substr(close + 2, end - (close + 2));
      size_t first = reason.find_first_not_of(" \t\r");
      size_t last = reason.find_last_not_of(" \t\r");
      reason = first == std::string::npos
                   ? ""
                   : reason.substr(first, last - first + 1);
      notes.push_back({file.path, c.line, std::move(name), std::move(reason)});
    }
  }
  return notes;
}

/// Drops every finding a valid suppression covers. With `audit`, also
/// appends one `invalid-suppression` finding per suppression that names no
/// catalog entry or gives no reason (those waive nothing).
void ApplySuppressions(const std::vector<LexedFile>& files, bool audit,
                       std::vector<Finding>* findings) {
  std::map<std::string, std::multimap<int, std::string>> waivers;
  std::vector<Finding> invalid;
  for (const LexedFile& file : files) {
    for (SuppressionNote& note : ParseSuppressions(file)) {
      std::string problem;
      if (!IsCatalogName(note.name)) {
        problem = "names no check or rule (see --list-analyses)";
      } else if (note.reason.empty()) {
        problem = "gives no reason";
      } else {
        waivers[note.path].emplace(note.line, note.name);
        continue;
      }
      Finding f;
      f.analysis = f.rule = "invalid-suppression";
      f.path = note.path;
      f.line = note.line;
      f.symbol = note.name;
      f.message = "suppression of '" + note.name + "' " + problem +
                  ", so it suppresses nothing; name a check or rule and "
                  "say why after the colon";
      invalid.push_back(std::move(f));
    }
  }
  std::erase_if(*findings, [&](const Finding& f) {
    auto it = waivers.find(f.path);
    if (it == waivers.end()) return false;
    for (int line : {f.line, f.line - 1}) {
      auto range = it->second.equal_range(line);
      for (auto e = range.first; e != range.second; ++e) {
        if (e->second == f.analysis || e->second == f.rule) return true;
      }
    }
    return false;
  });
  if (audit) findings->insert(findings->end(), invalid.begin(), invalid.end());
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

// ---------------------------------------------------------------------------
// Public interface.

const std::vector<std::string>& AnalysisNames() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    for (const Check& check : Catalog()) names.push_back(check.name);
    return names;
  }();
  return kNames;
}

bool UnderDir(const std::string& path, std::string_view dir) {
  return EffectivePath(path).starts_with(dir);
}

std::string EffectivePath(const std::string& path) {
  static const std::vector<std::string> kMarkers = {"src/", "tools/", "tests/",
                                                    "bench/"};
  size_t best = std::string::npos;
  for (const std::string& marker : kMarkers) {
    size_t pos = path.rfind(marker);
    while (pos != std::string::npos) {
      bool boundary = pos == 0 || path[pos - 1] == '/';
      if (boundary && (best == std::string::npos || pos > best)) best = pos;
      if (pos == 0) break;
      pos = path.rfind(marker, pos - 1);
    }
  }
  return best == std::string::npos ? path : path.substr(best);
}

std::vector<Finding> AnalyzePaths(const std::vector<std::string>& paths,
                                  const SaOptions& options,
                                  std::vector<std::string>* io_errors) {
  std::vector<LexedFile> files = LoadFiles(paths, io_errors);
  auto enabled = [&](const Check& check) {
    return options.only_analyses.empty() ||
           options.only_analyses.count(check.name) != 0;
  };

  Program program;
  if (std::any_of(Catalog().begin(), Catalog().end(), [&](const Check& c) {
        return c.whole_program && enabled(c);
      })) {
    program = ParseProgram(files);
  }
  Analyzer az(program);
  Corpus corpus{files, program, az};
  std::vector<Finding> findings;
  for (const Check& check : Catalog()) {
    if (enabled(check)) check.run(corpus, &findings);
  }

  // The suppression audit belongs to full runs: --analysis narrows the
  // report to the named checks.
  ApplySuppressions(files, options.only_analyses.empty(), &findings);
  for (Finding& f : findings) f.file = EffectivePath(f.path);
  std::sort(findings.begin(), findings.end());
  findings.erase(std::unique(findings.begin(), findings.end()),
                 findings.end());
  return findings;
}

std::vector<SuppressionNote> ListSuppressions(
    const std::vector<std::string>& paths,
    std::vector<std::string>* io_errors) {
  std::vector<SuppressionNote> notes;
  for (const LexedFile& file : LoadFiles(paths, io_errors)) {
    std::vector<SuppressionNote> in_file = ParseSuppressions(file);
    notes.insert(notes.end(), in_file.begin(), in_file.end());
  }
  return notes;
}

std::string DescribeLockGraph(const std::vector<std::string>& paths) {
  Program program = ParseProgram(LoadFiles(paths, nullptr));
  Analyzer az(program);
  std::vector<Finding> scratch;
  LockOrderAnalysis analysis(program, az);
  analysis.Run(&scratch);
  std::ostringstream out;
  out << "# locks (rank, id, declaration)\n";
  std::vector<const LockDecl*> locks;
  for (const LockDecl& l : program.locks) locks.push_back(&l);
  std::sort(locks.begin(), locks.end(),
            [](const LockDecl* a, const LockDecl* b) {
              if (a->rank != b->rank) return a->rank < b->rank;
              return a->id < b->id;
            });
  for (const LockDecl* l : locks) {
    out << "  " << (l->rank < 0 ? std::string("   ?")
                                : std::to_string(l->rank))
        << "  " << l->id << "  (" << EffectivePath(l->file) << ":" << l->line
        << (l->shared ? ", shared" : "") << ")\n";
  }
  out << "# acquisition edges (outer -> inner, first site)\n";
  for (const auto& [key, edge] : analysis.edges()) {
    out << "  " << edge.from << " -> " << edge.to << "  ("
        << EffectivePath(edge.file) << ":" << edge.line << " in " << edge.via
        << ")\n";
  }
  return out.str();
}

bool ApplyBaseline(const std::string& baseline_path,
                   std::vector<Finding>* findings, std::string* error) {
  std::string contents;
  if (!ReadFile(baseline_path, &contents)) {
    if (error != nullptr) {
      *error = "cannot read baseline file '" + baseline_path + "'";
    }
    return false;
  }
  std::set<std::string> keys;
  std::istringstream in(contents);
  std::string line;
  while (std::getline(in, line)) {
    while (!line.empty() && (line.back() == '\r' || line.back() == ' ')) {
      line.pop_back();
    }
    if (line.empty() || line[0] == '#') continue;
    keys.insert(line);
  }
  findings->erase(
      std::remove_if(findings->begin(), findings->end(),
                     [&](const Finding& f) {
                       return keys.count(f.rule + "|" + f.file + "|" +
                                         f.symbol) != 0;
                     }),
      findings->end());
  return true;
}

std::string FormatBaseline(const std::vector<Finding>& findings) {
  std::set<std::string> keys;
  for (const Finding& f : findings) {
    keys.insert(f.rule + "|" + f.file + "|" + f.symbol);
  }
  std::ostringstream out;
  out << "# mmmsa ratchet baseline: rule|file|symbol per line.\n"
      << "# Findings listed here are known debt and do not fail the build;\n"
      << "# remove lines as they are fixed. Never add lines for new code.\n";
  for (const std::string& key : keys) out << key << "\n";
  return out.str();
}

std::string FormatText(const std::vector<Finding>& findings) {
  std::ostringstream out;
  for (const Finding& f : findings) {
    out << f.path << ":" << f.line << ": ["
        << (f.analysis == f.rule ? f.rule : f.analysis + "/" + f.rule) << "] "
        << f.message << "\n";
  }
  if (findings.empty()) {
    out << "mmmsa: clean\n";
  } else {
    out << "mmmsa: " << findings.size() << " finding"
        << (findings.size() == 1 ? "" : "s") << "\n";
  }
  return out.str();
}

std::string FormatSarif(const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  std::ostringstream out;
  out << "{\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"runs\": [\n"
      << "    {\n"
      << "      \"tool\": {\n"
      << "        \"driver\": {\n"
      << "          \"name\": \"mmmsa\",\n"
      << "          \"informationUri\": \"DESIGN.md\",\n"
      << "          \"rules\": [";
  bool first = true;
  for (const std::string& rule : rules) {
    out << (first ? "" : ",") << "\n            {\"id\": \""
        << JsonEscape(rule) << "\"}";
    first = false;
  }
  out << (rules.empty() ? "" : "\n          ") << "]\n"
      << "        }\n"
      << "      },\n"
      << "      \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    out << (first ? "" : ",") << "\n        {\n"
        << "          \"ruleId\": \"" << JsonEscape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << JsonEscape(f.message)
        << "\"},\n"
        << "          \"partialFingerprints\": {\"mmmsaSymbol\": \""
        << JsonEscape(f.symbol) << "\"},\n"
        << "          \"locations\": [\n"
        << "            {\n"
        << "              \"physicalLocation\": {\n"
        << "                \"artifactLocation\": {\"uri\": \""
        << JsonEscape(f.file) << "\"},\n"
        << "                \"region\": {\"startLine\": " << f.line << "}\n"
        << "              }\n"
        << "            }\n"
        << "          ]\n"
        << "        }";
    first = false;
  }
  out << (findings.empty() ? "" : "\n      ") << "]\n"
      << "    }\n"
      << "  ]\n"
      << "}\n";
  return out.str();
}

}  // namespace mmmsa
