// Minimal JSON reader for the serve request/response schemas.
//
// The obs::Json writer renders bench reports and responses; this is the
// missing other half: a strict recursive-descent parser that turns a
// `cryosoc-req-v1` / `cryosoc-resp-v1` document back into a value tree.
// It is deliberately small — objects keep insertion order (so
// parse -> re-render round-trips byte-identically against our own
// writer), numbers keep their raw token text (so exact uint64 counters
// and shortest-form doubles survive the trip), and malformed input
// throws core::FlowError{stage="json-parse"} with the byte offset.
// Arrays and objects nest at most kMaxJsonDepth deep, so a hostile line
// cannot exhaust the stack.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace cryo::serve {

// Deepest array/object nesting json_parse accepts. The request schema
// nests 4 levels and the response schema 8.
inline constexpr int kMaxJsonDepth = 64;

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  // Numbers keep both the parsed double and the raw token ("42",
  // "0.6999999"), so integer fields can reparse losslessly.
  double number = 0.0;
  std::string text;  // string value, or raw number token
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  // Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;

  // Checked accessors: throw core::FlowError{stage="json-parse"} on a
  // kind mismatch, naming `what` (the field being read). The integer ones
  // take whole-number text only ("512", not "512.7" or "5e2"): as_uint
  // any that fits 64 bits, as_int one inside [min, max].
  double as_number(std::string_view what) const;
  std::uint64_t as_uint(std::string_view what) const;
  std::int64_t as_int(std::string_view what, std::int64_t min,
                      std::int64_t max) const;
  bool as_bool(std::string_view what) const;
  const std::string& as_string(std::string_view what) const;
  // An array's items and an object's members, checked the same way.
  const std::vector<JsonValue>& as_array(std::string_view what) const;
  const std::vector<std::pair<std::string, JsonValue>>& as_object(
      std::string_view what) const;

  // Required-member lookup on an object; throws when missing.
  const JsonValue& at(std::string_view key, std::string_view what) const;
};

// Parses exactly one JSON document (trailing whitespace allowed, trailing
// garbage rejected). Throws core::FlowError{stage="json-parse"}.
JsonValue json_parse(std::string_view input);

}  // namespace cryo::serve
