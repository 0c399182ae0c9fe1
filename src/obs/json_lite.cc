#include "src/obs/json_lite.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstdlib>

namespace ace {

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const auto& [name, value] : members) {
    if (name == key) {
      return &value;
    }
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

std::string JsonValue::StringOr(std::string_view key, std::string fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->str : std::move(fallback);
}

namespace {

// Containers deeper than this are rejected rather than recursed into: the parser
// reads untrusted bytes (committed baselines, live feeds, trace files), and
// unbounded recursion turns `[[[[...` into a stack overflow instead of an error.
constexpr int kMaxDepth = 200;

class Parser {
 public:
  Parser(std::string_view text, std::string* error) : text_(text), error_(error) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) {
      return false;
    }
    SkipWs();
    if (pos_ != text_.size()) {
      return Fail("trailing characters after document");
    }
    return true;
  }

 private:
  bool Fail(const char* what) {
    if (error_ != nullptr) {
      // Byte offset first (stable, machine-checkable), then the human-oriented
      // line/column derived by rescanning the consumed prefix.
      std::size_t line = 1;
      std::size_t col = 1;
      for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
        if (text_[i] == '\n') {
          ++line;
          col = 1;
        } else {
          ++col;
        }
      }
      *error_ = std::string(what) + " at byte " + std::to_string(pos_) + " (line " +
                std::to_string(line) + ", column " + std::to_string(col) + ")";
    }
    return false;
  }

  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      pos_++;
    }
  }

  bool Literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Fail("invalid literal");
    }
    pos_ += lit.size();
    return true;
  }

  bool ParseValue(JsonValue* out) {
    if (pos_ >= text_.size()) {
      return Fail("unexpected end of input");
    }
    switch (text_[pos_]) {
      case '{':
        if (depth_ >= kMaxDepth) {
          return Fail("nesting deeper than 200 levels");
        }
        ++depth_;
        {
          bool ok = ParseObject(out);
          --depth_;
          return ok;
        }
      case '[':
        if (depth_ >= kMaxDepth) {
          return Fail("nesting deeper than 200 levels");
        }
        ++depth_;
        {
          bool ok = ParseArray(out);
          --depth_;
          return ok;
        }
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->kind = JsonValue::Kind::kBool;
        out->boolean = false;
        return Literal("false");
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return Literal("null");
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    pos_++;  // '{'
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Fail("expected object key");
      }
      std::string key;
      if (!ParseString(&key)) {
        return false;
      }
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Fail("expected ':'");
      }
      pos_++;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->members.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated object");
      }
      if (text_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (text_[pos_] == '}') {
        pos_++;
        return true;
      }
      return Fail("expected ',' or '}'");
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    pos_++;  // '['
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      pos_++;
      return true;
    }
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) {
        return false;
      }
      out->items.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) {
        return Fail("unterminated array");
      }
      if (text_[pos_] == ',') {
        pos_++;
        continue;
      }
      if (text_[pos_] == ']') {
        pos_++;
        return true;
      }
      return Fail("expected ',' or ']'");
    }
  }

  bool ParseString(std::string* out) {
    pos_++;  // opening quote
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') {
        pos_++;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) {
          return Fail("dangling escape");
        }
        char esc = text_[pos_ + 1];
        pos_ += 2;
        switch (esc) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
            out->push_back('\b');
            break;
          case 'f':
            out->push_back('\f');
            break;
          case 'n':
            out->push_back('\n');
            break;
          case 'r':
            out->push_back('\r');
            break;
          case 't':
            out->push_back('\t');
            break;
          case 'u': {
            // AppendJsonString writes control bytes as \u00XX; decode any escape of
            // an ASCII code point and keep the rest verbatim.
            if (pos_ + 4 > text_.size()) {
              return Fail("truncated \\u escape");
            }
            std::string_view hex = text_.substr(pos_, 4);
            unsigned code = 0x80;
            auto [end, ec] = std::from_chars(hex.data(), hex.data() + hex.size(), code, 16);
            if (ec == std::errc() && end == hex.data() + hex.size() && code < 0x80) {
              out->push_back(static_cast<char>(code));
            } else {
              out->append("\\u");
              out->append(hex);
            }
            pos_ += 4;
            break;
          }
          default:
            return Fail("unknown escape");
        }
        continue;
      }
      out->push_back(c);
      pos_++;
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(JsonValue* out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') {
      pos_++;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      pos_++;
    }
    if (pos_ == start || (pos_ == start + 1 && text_[start] == '-')) {
      return Fail("invalid number");
    }
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double value = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Fail("invalid number");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

bool ParseJson(std::string_view text, JsonValue* out, std::string* error) {
  *out = JsonValue{};  // a reused out-value must not accumulate the previous parse
  Parser parser(text, error);
  return parser.Parse(out);
}

void AppendJsonString(std::string* out, std::string_view s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

}  // namespace ace
