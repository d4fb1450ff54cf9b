#include "util/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace kbrepair {

const JsonValue& JsonValue::at(size_t index) const {
  static const JsonValue kNull;
  if (!is_array() || index >= items_.size()) return kNull;
  return items_[index];
}

JsonValue& JsonValue::Append(JsonValue value) {
  if (!is_array()) {
    kind_ = Kind::kArray;
    items_.clear();
  }
  items_.push_back(std::move(value));
  return *this;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  for (const auto& [name, value] : members_) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::Get(const std::string& key) const {
  static const JsonValue kNull;
  const JsonValue* found = Find(key);
  return found != nullptr ? *found : kNull;
}

JsonValue& JsonValue::Set(const std::string& key, JsonValue value) {
  if (!is_object()) {
    kind_ = Kind::kObject;
    members_.clear();
  }
  for (auto& [name, existing] : members_) {
    if (name == key) {
      existing = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return items_ == other.items_;
    case Kind::kObject:
      return members_ == other.members_;
  }
  return false;
}

namespace {

// Appends `text` to `out` as a JSON string literal, quotes included, in
// one pass: bytes that need no escape (UTF-8 included) are appended a
// run at a time.
void EscapeTo(const std::string& text, std::string& out) {
  out.reserve(out.size() + text.size() + 2);
  out += '"';
  size_t run = 0;
  for (size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    if (static_cast<unsigned char>(c) >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(text, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(c)));
        out += buf;
      }
    }
  }
  out.append(text, run, std::string::npos);
  out += '"';
}

}  // namespace

std::string JsonEscape(const std::string& text) {
  std::string out;
  EscapeTo(text, out);
  return out;
}

namespace {

// Shortest representation that round-trips: integers print without a
// fractional part, everything else with enough digits.
std::string FormatNumber(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(value));
    return buf;
  }
  if (!std::isfinite(value)) return "null";  // JSON has no Inf/NaN
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

void JsonValue::DumpTo(std::string& out) const {
  switch (kind_) {
    case Kind::kNull:
      out += "null";
      break;
    case Kind::kBool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::kNumber:
      out += FormatNumber(number_);
      break;
    case Kind::kString:
      EscapeTo(string_, out);
      break;
    case Kind::kArray: {
      out += '[';
      for (size_t i = 0; i < items_.size(); ++i) {
        if (i > 0) out += ',';
        items_[i].DumpTo(out);
      }
      out += ']';
      break;
    }
    case Kind::kObject: {
      out += '{';
      for (size_t i = 0; i < members_.size(); ++i) {
        if (i > 0) out += ',';
        EscapeTo(members_[i].first, out);
        out += ':';
        members_[i].second.DumpTo(out);
      }
      out += '}';
      break;
    }
  }
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(out);
  return out;
}

namespace {

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    SkipSpace();
    JsonValue value;
    KBREPAIR_RETURN_IF_ERROR(ParseValue(value, /*depth=*/0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON error at byte " +
                                   std::to_string(pos_) + ": " + message);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool ConsumeLiteral(const char* literal) {
    size_t len = 0;
    while (literal[len] != '\0') ++len;
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Status ParseValue(JsonValue& out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == 'n') {
      if (!ConsumeLiteral("null")) return Error("invalid literal");
      out = JsonValue::Null();
      return Status::Ok();
    }
    if (c == 't') {
      if (!ConsumeLiteral("true")) return Error("invalid literal");
      out = JsonValue::Bool(true);
      return Status::Ok();
    }
    if (c == 'f') {
      if (!ConsumeLiteral("false")) return Error("invalid literal");
      out = JsonValue::Bool(false);
      return Status::Ok();
    }
    if (c == '"') return ParseString(out);
    if (c == '[') return ParseArray(out, depth);
    if (c == '{') return ParseObject(out, depth);
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
    return Error("unexpected character");
  }

  Status ParseNumber(JsonValue& out) {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') {
      return Error("malformed number '" + token + "'");
    }
    out = JsonValue::Number(value);
    return Status::Ok();
  }

  Status ParseString(JsonValue& out) {
    std::string value;
    KBREPAIR_RETURN_IF_ERROR(ParseRawString(value));
    out = JsonValue::String(std::move(value));
    return Status::Ok();
  }

  Status ParseRawString(std::string& value) {
    ++pos_;  // opening quote
    while (true) {
      // Everything up to the next quote or backslash, in one append.
      size_t stop = pos_;
      while (stop < text_.size() && text_[stop] != '"' &&
             text_[stop] != '\\') {
        ++stop;
      }
      value.append(text_, pos_, stop - pos_);
      pos_ = stop;
      if (pos_ >= text_.size() || text_[pos_] == '"') break;
      ++pos_;  // backslash
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          value += '"';
          break;
        case '\\':
          value += '\\';
          break;
        case '/':
          value += '/';
          break;
        case 'b':
          value += '\b';
          break;
        case 'f':
          value += '\f';
          break;
        case 'n':
          value += '\n';
          break;
        case 'r':
          value += '\r';
          break;
        case 't':
          value += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Error("invalid \\u escape digit");
            }
          }
          // UTF-8 encode the code point (surrogate pairs unsupported;
          // the project's payloads are names and DLGP text).
          if (code < 0x80) {
            value += static_cast<char>(code);
          } else if (code < 0x800) {
            value += static_cast<char>(0xC0 | (code >> 6));
            value += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            value += static_cast<char>(0xE0 | (code >> 12));
            value += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            value += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          return Error("unknown escape character");
      }
    }
    if (pos_ >= text_.size()) return Error("unterminated string");
    ++pos_;  // closing quote
    return Status::Ok();
  }

  Status ParseArray(JsonValue& out, int depth) {
    ++pos_;  // '['
    out = JsonValue::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      JsonValue item;
      SkipSpace();
      KBREPAIR_RETURN_IF_ERROR(ParseValue(item, depth + 1));
      out.Append(std::move(item));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::Ok();
      }
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseObject(JsonValue& out, int depth) {
    ++pos_;  // '{'
    out = JsonValue::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::Ok();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key string");
      }
      std::string key;
      KBREPAIR_RETURN_IF_ERROR(ParseRawString(key));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':' after object key");
      }
      ++pos_;
      SkipSpace();
      JsonValue value;
      KBREPAIR_RETURN_IF_ERROR(ParseValue(value, depth + 1));
      out.Set(key, std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::Ok();
      }
      return Error("expected ',' or '}' in object");
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<JsonValue> JsonValue::Parse(const std::string& text) {
  return JsonParser(text).ParseDocument();
}

}  // namespace kbrepair
