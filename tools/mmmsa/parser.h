#ifndef MMM_TOOLS_MMMSA_PARSER_H_
#define MMM_TOOLS_MMMSA_PARSER_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "lexer.h"

/// \file
/// mmmsa's lightweight C++ front end: a declaration and function-body parser
/// over the lexer's token stream. It is *not* a C++ parser — it recovers
/// exactly the structure the whole-program analyses need and skips the rest:
///
///   - class/struct scopes (including nested and file-local classes), their
///     data members with a best-effort type (the unique known-class
///     identifier in the declaration), their lock members
///     (`Mutex`/`SharedMutex`) with the `MMM_LOCK_RANK(n)` annotation, and
///     their method declarations with `MMM_REQUIRES(...)` contracts;
///   - function definitions with a qualified name, parameter/local variable
///     types, and the body parsed into a statement tree (blocks, if/else,
///     loops, switch, return/break/continue); lambda bodies stay inline in
///     their enclosing statement, which matches how this codebase uses them
///     (IIFEs and `ParallelFor` closures that run before the statement
///     completes);
///   - functions that return a reference to a function-local static lock
///     (the logging-sink idiom), so `MutexLock lock(SinkMutex())` resolves.
///
/// Everything unresolvable is dropped, never guessed: the analyses downstream
/// are tuned for zero false positives on the real tree, so a missed edge is
/// acceptable and an invented one is not.

namespace mmmsa {

/// One statement of a function body.
struct Stmt {
  enum class Kind {
    kPlain,     ///< expression/declaration statement (tokens = whole stmt)
    kBlock,     ///< bare `{ ... }`
    kIf,        ///< tokens = condition; body = then, else_body = else
    kLoop,      ///< while/for/do; tokens = condition/header
    kSwitch,    ///< tokens = condition; body = flattened cases
    kReturn,    ///< tokens = `return ...` up to `;`
    kBreak,
    kContinue,
  };
  Kind kind = Kind::kPlain;
  int line = 0;
  std::vector<Token> tokens;
  std::vector<Stmt> body;
  std::vector<Stmt> else_body;
  bool has_else = false;
};

/// One `Mutex`/`SharedMutex` declaration (class member or function-local
/// static). `id` is the scoped name the analyses key on, e.g.
/// "Coordinator::topo_mu_", "LayerCache::Shard::mu", "SinkMutex::mu".
struct LockDecl {
  std::string id;
  std::string file;
  int line = 0;
  int rank = -1;  ///< from MMM_LOCK_RANK(n); -1 when unannotated
  bool shared = false;
};

/// One function definition (body present).
struct FunctionInfo {
  std::string name;         ///< unqualified, e.g. "Open"
  std::string qualified;    ///< e.g. "Coordinator::Open"; dtors "~Foo"
  std::string class_scope;  ///< scoped class name, "" for free functions
  std::string file;
  int line = 0;
  std::vector<Stmt> body;
  /// Parameter and local variable names -> scoped class name of their type
  /// (only variables whose declaration names a known class).
  std::map<std::string, std::string> var_types;
  /// Lock ids this function's declaration demands via MMM_REQUIRES /
  /// MMM_REQUIRES_SHARED (merged from the in-class declaration).
  std::vector<std::string> requires_locks;
  /// Scoped class name of the return type when exactly one known class
  /// appears in the return-type tokens ("" otherwise). Lets accessor chains
  /// like `shard->service()->Replay(...)` resolve.
  std::string return_class;
};

struct ClassInfo {
  std::string name;  ///< scoped, e.g. "LayerCache::Shard"
  /// member name -> scoped class name of its type (known classes only).
  std::map<std::string, std::string> member_types;
  /// Methods declared or defined in the class body.
  std::set<std::string> methods;
  std::map<std::string, std::string> method_return_class;
  /// method name -> raw MMM_REQUIRES argument spellings (e.g. "mu_").
  std::map<std::string, std::vector<std::string>> method_requires;
};

struct Program {
  std::map<std::string, ClassInfo> classes;  ///< scoped name -> info
  std::vector<LockDecl> locks;
  std::vector<FunctionInfo> functions;
  /// Function qualified name -> lock id, for functions whose body is
  /// `static Mutex mu; ...; return mu;`.
  std::map<std::string, std::string> returned_locks;

  // ----- lookup tables (built by ParseProgram) -----
  /// top-level (non-nested) class name -> scoped names carrying it.
  std::map<std::string, std::vector<std::string>> top_level_classes;
  /// qualified function name -> indices into `functions`.
  std::map<std::string, std::vector<size_t>> by_qualified;
  /// free-function name -> indices into `functions`.
  std::map<std::string, std::vector<size_t>> free_by_name;
  /// lock id -> index into `locks`.
  std::map<std::string, size_t> lock_index;
  /// lock member name (last component) -> lock ids carrying it.
  std::map<std::string, std::vector<std::string>> locks_by_member;

  const LockDecl* FindLock(const std::string& id) const {
    auto it = lock_index.find(id);
    return it == lock_index.end() ? nullptr : &locks[it->second];
  }
};

/// Parses every file into one linked Program.
Program ParseProgram(const std::vector<LexedFile>& files);

/// Resolves a bare type name seen inside `enclosing_class` to a scoped class
/// name: nested class of the enclosing chain first, then a unique top-level
/// class. Returns "" when unknown or ambiguous.
std::string ResolveClassName(const Program& program,
                             const std::string& enclosing_class,
                             const std::string& name);

}  // namespace mmmsa

#endif  // MMM_TOOLS_MMMSA_PARSER_H_
