#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <stdexcept>

namespace hgc::obs {

const JsonValue& JsonValue::at(const std::string& key) const {
  if (type != Type::kObject) throw std::runtime_error("expected an object");
  const auto it = object.find(key);
  if (it == object.end())
    throw std::runtime_error("missing key \"" + key + '"');
  return it->second;
}

std::uint64_t JsonValue::as_u64() const {
  if (type != Type::kNumber)
    throw std::runtime_error("json: expected a number");
  std::uint64_t value = 0;
  const auto result =
      std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (result.ec != std::errc{} || result.ptr != raw.data() + raw.size())
    throw std::runtime_error("json: not an exact uint64: " + raw);
  return value;
}

std::int64_t JsonValue::as_i64() const {
  if (type != Type::kNumber)
    throw std::runtime_error("json: expected a number");
  std::int64_t value = 0;
  const auto result =
      std::from_chars(raw.data(), raw.data() + raw.size(), value);
  if (result.ec != std::errc{} || result.ptr != raw.data() + raw.size())
    throw std::runtime_error("json: not an exact int64: " + raw);
  return value;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : s_(text) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != s_.size())
      throw std::runtime_error("json: trailing garbage at byte " +
                               std::to_string(pos_));
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size())
      throw std::runtime_error("json: unexpected end of input");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("json: expected '") + c +
                               "' at byte " + std::to_string(pos_));
    ++pos_;
  }
  JsonValue value() {
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': return string_value();
      case 't': return literal("true", bool_value());
      case 'f': return literal("false", bool_value());
      case 'n': return literal("null", JsonValue{});
      default: return number();
    }
  }
  static JsonValue bool_value() {
    JsonValue v;
    v.type = JsonValue::Type::kBool;
    return v;
  }
  JsonValue literal(const std::string& word, JsonValue v) {
    if (s_.compare(pos_, word.size(), word) != 0)
      throw std::runtime_error("json: bad literal at byte " +
                               std::to_string(pos_));
    pos_ += word.size();
    return v;
  }
  JsonValue object() {
    expect('{');
    JsonValue v;
    v.type = JsonValue::Type::kObject;
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      JsonValue key = string_value();
      expect(':');
      v.object[key.string] = value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }
  JsonValue array() {
    expect('[');
    JsonValue v;
    v.type = JsonValue::Type::kArray;
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }
  JsonValue string_value() {
    expect('"');
    JsonValue v;
    v.type = JsonValue::Type::kString;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) throw std::runtime_error("json: bad escape");
        char e = s_[pos_++];
        switch (e) {
          case 'n': v.string += '\n'; break;
          case 't': v.string += '\t'; break;
          case 'u': {
            if (pos_ + 4 > s_.size())
              throw std::runtime_error("json: bad \\u escape");
            unsigned code = 0;
            const auto result = std::from_chars(
                s_.data() + pos_, s_.data() + pos_ + 4, code, 16);
            if (result.ec != std::errc{} || result.ptr != s_.data() + pos_ + 4)
              throw std::runtime_error("json: bad \\u escape");
            pos_ += 4;
            // Our emitters only escape control bytes; anything else decodes
            // to '?' — callers never inspect escaped payloads.
            v.string += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default: v.string += e;
        }
      } else {
        v.string += c;
      }
    }
    expect('"');
    return v;
  }
  JsonValue number() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start)
      throw std::runtime_error("json: bad token at byte " +
                               std::to_string(pos_));
    JsonValue v;
    v.type = JsonValue::Type::kNumber;
    v.raw = s_.substr(start, pos_ - start);
    const auto result =
        std::from_chars(v.raw.data(), v.raw.data() + v.raw.size(), v.number);
    if (result.ec != std::errc{} || result.ptr != v.raw.data() + v.raw.size())
      throw std::runtime_error("json: bad number: " + v.raw);
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parse_json(const std::string& text) { return Parser(text).parse(); }

}  // namespace hgc::obs
