// A minimal JSON value, parser, and writer for the wire protocol
// (docs/protocol.md). The repo renders JSON in several places
// (ServiceStats::ToJson, the analyzer, bench dumps) but the socket
// front-end is the first component that must *read* untrusted JSON, so
// this is deliberately small and defensive: strict RFC 8259 subset,
// bounded nesting depth, no exceptions, Status-carrying parse errors
// with byte offsets.
//
// Numbers are stored as double; integral values round-trip without a
// decimal point for the magnitudes the protocol uses (sequence numbers,
// counts — well under 2^53).
#ifndef GEREL_SERVER_JSON_H_
#define GEREL_SERVER_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"

namespace gerel {
namespace server {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool b);
  static JsonValue Number(double d);
  static JsonValue Str(std::string s);
  static JsonValue Array();
  static JsonValue Object();

  // Parses exactly one JSON document; trailing non-whitespace is an
  // error. `max_depth` bounds array/object nesting.
  static Result<JsonValue> Parse(std::string_view text,
                                 size_t max_depth = 32);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  // Object members in insertion order (the writer and tests rely on a
  // stable order).
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  // Object lookup; returns nullptr when absent or not an object.
  const JsonValue* Get(std::string_view key) const;

  // Mutators (builder style).
  void Push(JsonValue v);                        // Array.
  void Set(std::string key, JsonValue v);        // Object.

  // Serializes the value on one line (no insignificant whitespace
  // beyond ", " / ": " separators, matching the repo's JSON style).
  std::string Dump() const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

// Escapes `s` for embedding in a JSON string literal (quotes excluded).
std::string JsonEscape(std::string_view s);

}  // namespace server
}  // namespace gerel

#endif  // GEREL_SERVER_JSON_H_
