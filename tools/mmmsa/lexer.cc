#include "lexer.h"

#include <cctype>

namespace mmmsa {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Multi-char punctuators, longest first so greedy matching is correct.
constexpr std::string_view kPuncts[] = {
    "<<=", ">>=", "...", "->*", "::", "->", "<<", ">>", "<=", ">=", "==",
    "!=", "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=",
    "^=", ".*",
};

}  // namespace

LexedFile Lex(std::string path, std::string_view src) {
  LexedFile out;
  out.path = std::move(path);
  size_t i = 0;
  int line = 1;
  const size_t n = src.size();

  auto peek = [&](size_t ahead) -> char {
    return i + ahead < n ? src[i + ahead] : '\0';
  };

  while (i < n) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == '\\' && peek(1) == '\n') {  // line continuation
      ++line;
      i += 2;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && peek(1) == '/') {
      size_t start = i + 2;
      while (i < n && src[i] != '\n') ++i;
      out.comments.push_back({line, std::string(src.substr(start, i - start))});
      continue;
    }
    if (c == '/' && peek(1) == '*') {
      int start_line = line;
      size_t start = i + 2;
      i += 2;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      out.comments.push_back(
          {start_line, std::string(src.substr(start, i - start))});
      i = i + 2 <= n ? i + 2 : n;
      continue;
    }
    // Raw strings: R"delim( ... )delim".
    if (c == 'R' && peek(1) == '"') {
      size_t delim_start = i + 2;
      size_t paren = src.find('(', delim_start);
      if (paren != std::string_view::npos && paren - delim_start <= 16) {
        std::string closer = ")" +
                             std::string(src.substr(delim_start,
                                                    paren - delim_start)) +
                             "\"";
        size_t end = src.find(closer, paren + 1);
        if (end != std::string_view::npos) {
          std::string_view body = src.substr(paren + 1, end - paren - 1);
          int start_line = line;
          for (char b : body) {
            if (b == '\n') ++line;
          }
          out.tokens.push_back(
              {TokenKind::kString, std::string(body), start_line});
          i = end + closer.size();
          continue;
        }
      }
    }
    // String and char literals.
    if (c == '"' || c == '\'') {
      char quote = c;
      int start_line = line;
      ++i;
      std::string text;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) {
          text.push_back(src[i]);
          text.push_back(src[i + 1]);
          i += 2;
          continue;
        }
        if (src[i] == '\n') ++line;  // unterminated; keep going defensively
        text.push_back(src[i]);
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.tokens.push_back({quote == '"' ? TokenKind::kString
                                         : TokenKind::kChar,
                            std::move(text), start_line});
      continue;
    }
    // Identifiers / keywords.
    if (IsIdentStart(c)) {
      size_t start = i;
      while (i < n && IsIdentChar(src[i])) ++i;
      out.tokens.push_back(
          {TokenKind::kIdent, std::string(src.substr(start, i - start)), line});
      continue;
    }
    // Numbers (incl. hex, separators, suffixes; pp-number rules, roughly).
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && std::isdigit(static_cast<unsigned char>(peek(1))))) {
      size_t start = i;
      ++i;
      while (i < n && (IsIdentChar(src[i]) || src[i] == '.' || src[i] == '\'' ||
                       ((src[i] == '+' || src[i] == '-') &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      out.tokens.push_back(
          {TokenKind::kNumber, std::string(src.substr(start, i - start)),
           line});
      continue;
    }
    // Punctuators, longest match first.
    bool matched = false;
    for (std::string_view p : kPuncts) {
      if (src.substr(i, p.size()) == p) {
        out.tokens.push_back({TokenKind::kPunct, std::string(p), line});
        i += p.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({TokenKind::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

const Token* At(const std::vector<Token>& toks, size_t i) {
  return i < toks.size() ? &toks[i] : nullptr;
}

bool IsIdent(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kIdent && t->text == text;
}

bool IsPunct(const Token* t, std::string_view text) {
  return t != nullptr && t->kind == TokenKind::kPunct && t->text == text;
}

bool IsAnyIdent(const Token* t) {
  return t != nullptr && t->kind == TokenKind::kIdent;
}

size_t SkipParens(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "(") ++depth;
    if (toks[i].text == ")" && --depth == 0) return i + 1;
  }
  return toks.size();
}

size_t SkipBraces(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kPunct) continue;
    if (toks[i].text == "{") ++depth;
    if (toks[i].text == "}" && --depth == 0) return i + 1;
  }
  return toks.size();
}

std::vector<IncludeDirective> QuotedIncludes(const LexedFile& file) {
  std::vector<IncludeDirective> out;
  const std::vector<Token>& toks = file.tokens;
  for (size_t i = 0; i + 2 < toks.size(); ++i) {
    if (IsPunct(&toks[i], "#") && IsIdent(&toks[i + 1], "include") &&
        toks[i + 2].kind == TokenKind::kString &&
        toks[i + 1].line == toks[i + 2].line) {
      out.push_back({toks[i + 2].text, toks[i + 2].line});
    }
  }
  return out;
}

}  // namespace mmmsa
