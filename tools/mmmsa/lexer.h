#ifndef MMM_TOOLS_MMMSA_LEXER_H_
#define MMM_TOOLS_MMMSA_LEXER_H_

#include <string>
#include <string_view>
#include <vector>

namespace mmmsa {

enum class TokenKind {
  kIdent,    ///< identifiers and keywords (the checks treat keywords by name)
  kNumber,   ///< numeric literal
  kString,   ///< string literal (text excludes quotes; raw strings supported)
  kChar,     ///< character literal
  kPunct,    ///< one punctuator, longest-match ("->", "::", "<<", ...)
};

struct Token {
  TokenKind kind;
  std::string text;
  int line = 0;
};

/// A comment kept out-of-band for suppression matching.
struct Comment {
  int line = 0;       ///< line the comment starts on
  std::string text;   ///< body without the // or /* */ markers
};

/// Token stream of one file, comments separated out.
struct LexedFile {
  std::string path;
  std::vector<Token> tokens;
  std::vector<Comment> comments;
};

/// Lexes C++ source: skips whitespace, separates comments, folds line
/// continuations, and keeps preprocessor tokens inline (so `#include "x"`
/// appears as the tokens `#`, `include`, and a string). Never fails: bytes
/// that fit nothing become single-char punctuators.
LexedFile Lex(std::string path, std::string_view source);

// ---------------------------------------------------------------------------
// Token helpers shared by the parser and every check.

/// `&toks[i]`, or null past the end.
const Token* At(const std::vector<Token>& toks, size_t i);
bool IsIdent(const Token* t, std::string_view text);
bool IsPunct(const Token* t, std::string_view text);
bool IsAnyIdent(const Token* t);

/// Index just past a balanced `( ... )` group starting at `open` (which must
/// be the opening paren); tolerates EOF by returning toks.size().
size_t SkipParens(const std::vector<Token>& toks, size_t open);

/// Index just past a balanced `{ ... }` group starting at `open`.
size_t SkipBraces(const std::vector<Token>& toks, size_t open);

/// One `#include "..."` directive (angle-bracket includes are skipped).
struct IncludeDirective {
  std::string target;  ///< include text as written
  int line = 0;
};

/// Every quoted include of `file`, in source order.
std::vector<IncludeDirective> QuotedIncludes(const LexedFile& file);

}  // namespace mmmsa

#endif  // MMM_TOOLS_MMMSA_LEXER_H_
