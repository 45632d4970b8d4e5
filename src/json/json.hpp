// bbsim -- minimal JSON document model, parser and writer (RFC 8259 subset).
//
// No third-party JSON library is available in this environment, so this is
// a self-contained substrate used by the platform and workflow parsers.
// Design follows the STL container conventions (Core Guidelines C.100/C.101):
// Value is a regular, value-semantic type.
//
// Supported: null, true/false, finite numbers, strings with \uXXXX escapes
// (BMP only, surrogate pairs accepted), arrays, objects. Object key order is
// preserved for stable serialisation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace bbsim::json {

class Value;

using Array = std::vector<Value>;

/// An insertion-ordered string->Value map (order preserved on round-trip).
class Object {
 public:
  using Entry = std::pair<std::string, Value>;

  Object() = default;

  bool contains(const std::string& key) const;
  /// Returns the value for `key`; throws NotFoundError when absent.
  const Value& at(const std::string& key) const;
  /// Returns a pointer to the value for `key`, or nullptr when absent.
  const Value* find(const std::string& key) const;
  Value* find(const std::string& key);
  /// Inserts or overwrites.
  void set(const std::string& key, Value value);
  /// Access-or-create, like std::map::operator[].
  Value& operator[](const std::string& key);

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  auto begin() const { return entries_.begin(); }
  auto end() const { return entries_.end(); }
  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }

 private:
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

enum class Type { Null, Bool, Number, String, ArrayT, ObjectT };

/// A JSON value. Regular type: default-constructs to null, copyable,
/// movable, equality-comparable.
class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)
  Value(bool b) : type_(Type::Bool), bool_(b) {}  // NOLINT
  Value(double n) : type_(Type::Number), num_(n) {}  // NOLINT
  Value(int n) : Value(static_cast<double>(n)) {}  // NOLINT
  Value(std::int64_t n) : Value(static_cast<double>(n)) {}  // NOLINT
  Value(std::size_t n) : Value(static_cast<double>(n)) {}  // NOLINT
  Value(const char* s) : type_(Type::String), str_(s) {}  // NOLINT
  Value(std::string s) : type_(Type::String), str_(std::move(s)) {}  // NOLINT
  Value(Array a);   // NOLINT
  Value(Object o);  // NOLINT

  Value(const Value& other);
  Value(Value&& other) noexcept = default;
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept = default;
  ~Value() = default;

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::ArrayT; }
  bool is_object() const { return type_ == Type::ObjectT; }

  /// Checked accessors; throw ParseError on type mismatch so parsers can
  /// surface friendly messages for malformed inputs.
  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Convenience: object member access (throws unless object).
  const Value& at(const std::string& key) const { return as_object().at(key); }
  bool contains(const std::string& key) const {
    return is_object() && as_object().contains(key);
  }

  /// Lenient getters with defaults -- the workhorses of config parsing.
  double get_number(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  std::string get_string(const std::string& key, const std::string& fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  friend bool operator==(const Value& a, const Value& b);
  friend bool operator!=(const Value& a, const Value& b) { return !(a == b); }

  /// Serialise. `indent` < 0 yields compact output; >= 0 pretty-prints with
  /// that many spaces per level.
  std::string dump(int indent = -1) const;

 private:
  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  // unique_ptr keeps sizeof(Value) small and breaks the recursive layout.
  std::unique_ptr<Array> arr_;
  std::unique_ptr<Object> obj_;

  void dump_to(std::string& out, int indent, int depth) const;
};

/// Deepest array/object nesting parse() accepts.
inline constexpr std::size_t kMaxDepth = 512;

/// Parse a JSON document; throws util::ParseError with a line/column message
/// (also for nesting deeper than kMaxDepth).
Value parse(const std::string& text);

/// Parse the contents of a file; throws util::ParseError (also for I/O errors).
Value parse_file(const std::string& path);

/// Write `value` to a file (pretty-printed); throws util::Error on I/O errors.
void write_file(const std::string& path, const Value& value, int indent = 2);

}  // namespace bbsim::json
