#include "serialize/json.h"

#include <cmath>
#include <cstdio>
#include <cstring>

namespace mmm {

JsonValue JsonValue::Array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

Result<bool> JsonValue::AsBool() const {
  if (!is_bool()) return Status::InvalidArgument("json value is not a bool");
  return bool_;
}

Result<double> JsonValue::AsDouble() const {
  if (!is_number()) return Status::InvalidArgument("json value is not a number");
  return number_;
}

Result<int64_t> JsonValue::AsInt64() const {
  if (!is_number()) return Status::InvalidArgument("json value is not a number");
  return static_cast<int64_t>(number_);
}

Result<std::string> JsonValue::AsString() const {
  if (!is_string()) return Status::InvalidArgument("json value is not a string");
  return string_;
}

void JsonValue::Append(JsonValue value) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  items_.push_back(std::move(value));
}

Result<const JsonValue*> JsonValue::At(size_t index) const {
  if (!is_array()) return Status::InvalidArgument("json value is not an array");
  if (index >= items_.size()) {
    return Status::OutOfRange("json array index ", index, " out of range ",
                              items_.size());
  }
  return &items_[index];
}

void JsonValue::Set(std::string key, JsonValue value) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (auto& [existing_key, existing_value] : members_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return;
    }
  }
  members_.emplace_back(std::move(key), std::move(value));
}

bool JsonValue::Has(std::string_view key) const {
  for (const auto& [existing_key, _] : members_) {
    if (existing_key == key) return true;
  }
  return false;
}

Result<const JsonValue*> JsonValue::Get(std::string_view key) const {
  if (!is_object()) return Status::InvalidArgument("json value is not an object");
  for (const auto& [existing_key, value] : members_) {
    if (existing_key == key) return &value;
  }
  return Status::NotFound("json object has no member '", key, "'");
}

Result<std::string> JsonValue::GetString(std::string_view key) const {
  MMM_ASSIGN_OR_RETURN(const JsonValue* v, Get(key));
  return v->AsString();
}

Result<double> JsonValue::GetDouble(std::string_view key) const {
  MMM_ASSIGN_OR_RETURN(const JsonValue* v, Get(key));
  return v->AsDouble();
}

Result<int64_t> JsonValue::GetInt64(std::string_view key) const {
  MMM_ASSIGN_OR_RETURN(const JsonValue* v, Get(key));
  return v->AsInt64();
}

Result<bool> JsonValue::GetBool(std::string_view key) const {
  MMM_ASSIGN_OR_RETURN(const JsonValue* v, Get(key));
  return v->AsBool();
}

std::string JsonValue::GetStringOr(std::string_view key, std::string fallback) const {
  auto result = GetString(key);
  return result.ok() ? result.ValueOrDie() : std::move(fallback);
}

int64_t JsonValue::GetInt64Or(std::string_view key, int64_t fallback) const {
  auto result = GetInt64(key);
  return result.ok() ? result.ValueOrDie() : fallback;
}

double JsonValue::GetDoubleOr(std::string_view key, double fallback) const {
  auto result = GetDouble(key);
  return result.ok() ? result.ValueOrDie() : fallback;
}

void JsonValue::DumpStringTo(const std::string& value, std::string* out) {
  out->push_back('"');
  // Characters that need no escape are appended a run at a time.
  size_t run_start = 0;
  for (size_t i = 0; i < value.size(); ++i) {
    const char c = value[i];
    const char* escape = nullptr;
    switch (c) {
      case '"':
        escape = "\\\"";
        break;
      case '\\':
        escape = "\\\\";
        break;
      case '\n':
        escape = "\\n";
        break;
      case '\r':
        escape = "\\r";
        break;
      case '\t':
        escape = "\\t";
        break;
      case '\b':
        escape = "\\b";
        break;
      case '\f':
        escape = "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out->append(value, run_start, i - run_start);
    run_start = i + 1;
    if (escape != nullptr) {
      *out += escape;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      *out += buf;
    }
  }
  out->append(value, run_start, std::string::npos);
  out->push_back('"');
}

void JsonValue::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      *out += "null";
      break;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      break;
    case Type::kNumber: {
      // Integers are printed without a fraction for stable round-trips.
      if (std::isfinite(number_) && number_ == std::floor(number_) &&
          std::fabs(number_) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(number_));
        *out += buf;
      } else {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", number_);
        *out += buf;
      }
      break;
    }
    case Type::kString:
      DumpStringTo(string_, out);
      break;
    case Type::kArray: {
      out->push_back('[');
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        items_[i].DumpTo(out, indent, depth + 1);
      }
      if (!items_.empty()) newline(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out->push_back(',');
        newline(depth + 1);
        DumpStringTo(members_[i].first, out);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        members_[i].second.DumpTo(out, indent, depth + 1);
      }
      if (!members_.empty()) newline(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(&out, /*indent=*/0, /*depth=*/0);
  return out;
}

std::string JsonValue::DumpPretty() const {
  std::string out;
  DumpTo(&out, /*indent=*/2, /*depth=*/0);
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kNumber:
      return number_ == other.number_;
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray:
      return items_ == other.items_;
    case Type::kObject:
      return members_ == other.members_;
  }
  return false;
}

namespace {

/// Recursive-descent JSON parser over a string_view.
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    MMM_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::Corruption("json: trailing characters at offset ", pos_);
    }
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  Result<char> Peek() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::Corruption("json: unexpected end of input");
    }
    return text_[pos_];
  }

  Status Expect(char c) {
    MMM_ASSIGN_OR_RETURN(char got, Peek());
    if (got != c) {
      return Status::Corruption("json: expected '", std::string(1, c), "' got '",
                                std::string(1, got), "' at offset ", pos_);
    }
    ++pos_;
    return Status::OK();
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue() {
    MMM_ASSIGN_OR_RETURN(char c, Peek());
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        MMM_ASSIGN_OR_RETURN(std::string s, ParseString());
        return JsonValue(std::move(s));
      }
      case 't':
        if (ConsumeLiteral("true")) return JsonValue(true);
        break;
      case 'f':
        if (ConsumeLiteral("false")) return JsonValue(false);
        break;
      case 'n':
        if (ConsumeLiteral("null")) return JsonValue(nullptr);
        break;
      default:
        return ParseNumber();
    }
    return Status::Corruption("json: invalid token at offset ", pos_);
  }

  Result<JsonValue> ParseObject() {
    MMM_RETURN_NOT_OK(Expect('{'));
    JsonValue object = JsonValue::Object();
    MMM_ASSIGN_OR_RETURN(char c, Peek());
    if (c == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      SkipWhitespace();
      MMM_ASSIGN_OR_RETURN(std::string key, ParseString());
      MMM_RETURN_NOT_OK(Expect(':'));
      MMM_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      object.Set(std::move(key), std::move(value));
      MMM_ASSIGN_OR_RETURN(char next, Peek());
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return object;
      }
      return Status::Corruption("json: expected ',' or '}' at offset ", pos_);
    }
  }

  Result<JsonValue> ParseArray() {
    MMM_RETURN_NOT_OK(Expect('['));
    JsonValue array = JsonValue::Array();
    MMM_ASSIGN_OR_RETURN(char c, Peek());
    if (c == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      MMM_ASSIGN_OR_RETURN(JsonValue value, ParseValue());
      array.Append(std::move(value));
      MMM_ASSIGN_OR_RETURN(char next, Peek());
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return array;
      }
      return Status::Corruption("json: expected ',' or ']' at offset ", pos_);
    }
  }

  Result<std::string> ParseString() {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::Corruption("json: expected string at offset ", pos_);
    }
    ++pos_;
    std::string out;
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            return Status::Corruption("json: truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Status::Corruption("json: invalid \\u escape");
            }
          }
          // Encode the code point as UTF-8 (BMP only; surrogate pairs are not
          // produced by our own writer).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          return Status::Corruption("json: invalid escape '\\", std::string(1, esc),
                                    "'");
      }
    }
    return Status::Corruption("json: unterminated string");
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      return Status::Corruption("json: invalid number at offset ", pos_);
    }
    std::string token(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) {
      return Status::Corruption("json: invalid number '", token, "'");
    }
    return JsonValue(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace mmm
