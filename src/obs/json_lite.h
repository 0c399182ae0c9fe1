// A minimal JSON parser, sufficient for validating and re-reading the trace files the
// exporters (src/obs/export.h) write: objects, arrays, strings (with the escapes the
// exporters emit), numbers, booleans, null.
//
// Deliberately dependency-free — the CI trace-validation test and tools/ace_top must
// not pull a JSON library into the image. Not a general-purpose parser: surrogate
// pairs and \u escapes beyond ASCII are preserved verbatim rather than decoded.
//
// AppendJsonString is the writer side: every JSON string the repo emits (bench and
// checkpoint JSON, forked-child payloads, the live feed's meta records) goes through
// it, so all of them escape alike and ParseJson reads each back to the same bytes.

#ifndef SRC_OBS_JSON_LITE_H_
#define SRC_OBS_JSON_LITE_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace ace {

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;                            // kArray
  std::vector<std::pair<std::string, JsonValue>> members;  // kObject, insertion order

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  // First member with `key`, or nullptr.
  const JsonValue* Find(std::string_view key) const;
  // Member lookups with defaults, for tolerant readers.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, std::string fallback) const;
};

// Parse `text` as one JSON document (trailing whitespace allowed, nothing else).
// On failure returns false and sets `error` to a message with the byte offset and
// line/column of the violation. Hardened against hostile input: container nesting
// beyond 200 levels is rejected (not recursed into), so truncated, garbage, or
// adversarial bytes fed to the baseline and checkpoint loaders fail closed with a
// diagnostic instead of overflowing the stack.
bool ParseJson(std::string_view text, JsonValue* out, std::string* error);

// Append `s` to `*out` as a quoted JSON string: '"', '\\', newline, carriage return
// and tab escaped by name, every other byte below 0x20 as \u00XX, everything else
// (UTF-8 included) verbatim.
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace ace

#endif  // SRC_OBS_JSON_LITE_H_
