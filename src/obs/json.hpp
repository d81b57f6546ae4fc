// Minimal JSON reader for the observability layer.
//
// Promoted out of tests/test_obs.cpp once snapshots grew a read path: the
// same parser that proved trace files well-formed now ingests metrics
// snapshots for Snapshot::read_json, hgc_obs, and the recorder's JSONL.
// Scope is deliberately small — parse a complete document into a tree of
// values; no streaming, no writer (each emitter keeps its own, because the
// byte-stable output formats are contracts of their owners).
//
// Exactness: JSON numbers are kept both as a double and as the raw token
// text. 64-bit counters and splitmix64 reservoir states do not fit a
// double past 2^53, so integer reads (as_u64 / as_i64) reparse the raw
// text and round-trip all 64 bits.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hgc::obs {

struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;  ///< a bool's value is not kept: no reader wants it
  double number = 0.0;
  std::string raw;  ///< numbers only: the exact source token
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  /// Object member access; throws std::runtime_error when this is not an
  /// object or the key is missing (the message names the key).
  const JsonValue& at(const std::string& key) const;

  /// Exact 64-bit reads from the raw token (throws on non-numbers, signs
  /// that do not fit, or fractional tokens).
  std::uint64_t as_u64() const;
  std::int64_t as_i64() const;
};

/// Parse one complete JSON document; throws std::runtime_error with the
/// offending byte offset on malformed input.
JsonValue parse_json(const std::string& text);

}  // namespace hgc::obs
