#include "json/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace bbsim::json {

using util::NotFoundError;
using util::ParseError;

// ----------------------------------------------------------------- Object

bool Object::contains(const std::string& key) const { return index_.count(key) > 0; }

const Value& Object::at(const std::string& key) const {
  const auto it = index_.find(key);
  if (it == index_.end()) throw NotFoundError("JSON key '" + key + "'");
  return entries_[it->second].second;
}

const Value* Object::find(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second].second;
}

Value* Object::find(const std::string& key) {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second].second;
}

void Object::set(const std::string& key, Value value) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    entries_[it->second].second = std::move(value);
  } else {
    index_[key] = entries_.size();
    entries_.emplace_back(key, std::move(value));
  }
}

Value& Object::operator[](const std::string& key) {
  const auto it = index_.find(key);
  if (it != index_.end()) return entries_[it->second].second;
  index_[key] = entries_.size();
  entries_.emplace_back(key, Value());
  return entries_.back().second;
}

// ------------------------------------------------------------------ Value

Value::Value(Array a) : type_(Type::ArrayT), arr_(std::make_unique<Array>(std::move(a))) {}
Value::Value(Object o) : type_(Type::ObjectT), obj_(std::make_unique<Object>(std::move(o))) {}

Value::Value(const Value& other)
    : type_(other.type_), bool_(other.bool_), num_(other.num_), str_(other.str_) {
  if (other.arr_) arr_ = std::make_unique<Array>(*other.arr_);
  if (other.obj_) obj_ = std::make_unique<Object>(*other.obj_);
}

Value& Value::operator=(const Value& other) {
  if (this == &other) return *this;
  Value tmp(other);
  *this = std::move(tmp);
  return *this;
}

bool Value::as_bool() const {
  if (type_ != Type::Bool) throw ParseError("JSON value is not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::Number) throw ParseError("JSON value is not a number");
  return num_;
}

std::int64_t Value::as_int() const {
  const double n = as_number();
  if (std::fabs(n - std::round(n)) > 1e-9) throw ParseError("JSON number is not an integer");
  return static_cast<std::int64_t>(std::llround(n));
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) throw ParseError("JSON value is not a string");
  return str_;
}

const Array& Value::as_array() const {
  if (type_ != Type::ArrayT) throw ParseError("JSON value is not an array");
  return *arr_;
}

Array& Value::as_array() {
  if (type_ != Type::ArrayT) throw ParseError("JSON value is not an array");
  return *arr_;
}

const Object& Value::as_object() const {
  if (type_ != Type::ObjectT) throw ParseError("JSON value is not an object");
  return *obj_;
}

Object& Value::as_object() {
  if (type_ != Type::ObjectT) throw ParseError("JSON value is not an object");
  return *obj_;
}

double Value::get_number(const std::string& key, double fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

std::int64_t Value::get_int(const std::string& key, std::int64_t fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  return (v != nullptr && v->is_number()) ? v->as_int() : fallback;
}

std::string Value::get_string(const std::string& key, const std::string& fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

bool Value::get_bool(const std::string& key, bool fallback) const {
  if (!is_object()) return fallback;
  const Value* v = as_object().find(key);
  return (v != nullptr && v->is_bool()) ? v->as_bool() : fallback;
}

bool operator==(const Value& a, const Value& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Type::Null: return true;
    case Type::Bool: return a.bool_ == b.bool_;
    case Type::Number: return a.num_ == b.num_;
    case Type::String: return a.str_ == b.str_;
    case Type::ArrayT: return *a.arr_ == *b.arr_;
    case Type::ObjectT: {
      if (a.obj_->size() != b.obj_->size()) return false;
      auto ib = b.obj_->begin();
      for (auto ia = a.obj_->begin(); ia != a.obj_->end(); ++ia, ++ib) {
        if (ia->first != ib->first || !(ia->second == ib->second)) return false;
      }
      return true;
    }
  }
  return false;
}

// ----------------------------------------------------------------- writer

namespace {

void dump_string(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;  // UTF-8 bytes pass through verbatim.
        }
    }
  }
  out += '"';
}

void dump_number(std::string& out, double n) {
  if (!std::isfinite(n)) throw ParseError("cannot serialise non-finite number");
  if (n == std::round(n) && std::fabs(n) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(std::llround(n)));
    out += buf;
  } else {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", n);
    out += buf;
  }
}

void newline_indent(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::dump_to(std::string& out, int indent, int depth) const {
  switch (type_) {
    case Type::Null: out += "null"; return;
    case Type::Bool: out += bool_ ? "true" : "false"; return;
    case Type::Number: dump_number(out, num_); return;
    case Type::String: dump_string(out, str_); return;
    case Type::ArrayT: {
      if (arr_->empty()) { out += "[]"; return; }
      out += '[';
      for (std::size_t i = 0; i < arr_->size(); ++i) {
        if (i) out += indent < 0 ? "," : ",";
        newline_indent(out, indent, depth + 1);
        (*arr_)[i].dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += ']';
      return;
    }
    case Type::ObjectT: {
      if (obj_->empty()) { out += "{}"; return; }
      out += '{';
      bool first = true;
      for (const auto& [key, value] : *obj_) {
        if (!first) out += ",";
        first = false;
        newline_indent(out, indent, depth + 1);
        dump_string(out, key);
        out += indent < 0 ? ":" : ": ";
        value.dump_to(out, indent, depth + 1);
      }
      newline_indent(out, indent, depth);
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

// ----------------------------------------------------------------- parser

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    skip_ws();
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;  ///< containers open at pos_

  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') { ++line; col = 1; } else { ++col; }
    }
    throw ParseError("JSON at line " + std::to_string(line) + ", column " +
                     std::to_string(col) + ": " + msg);
  }

  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char take() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void expect(char c) {
    if (take() != c) { --pos_; fail(std::string("expected '") + c + "'"); }
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') { ++pos_; } else { break; }
    }
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) == 0) { pos_ += n; return true; }
    return false;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // One recursion level per open container: bounded, not a stack overflow.
        if (++depth_ > kMaxDepth) fail("nesting deeper than " + std::to_string(kMaxDepth));
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': return Value(parse_string());
      case 't': if (consume_literal("true")) return Value(true); fail("invalid literal");
      case 'f': if (consume_literal("false")) return Value(false); fail("invalid literal");
      case 'n': if (consume_literal("null")) return Value(nullptr); fail("invalid literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') { take(); return Value(std::move(obj)); }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected string key");
      std::string key = parse_string();
      if (obj.contains(key)) fail("duplicate object key '" + key + "'");
      skip_ws();
      expect(':');
      obj.set(key, parse_value());
      skip_ws();
      const char c = take();
      if (c == '}') return Value(std::move(obj));
      if (c != ',') { --pos_; fail("expected ',' or '}' in object"); }
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') { take(); return Value(std::move(arr)); }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = take();
      if (c == ']') return Value(std::move(arr));
      if (c != ',') { --pos_; fail("expected ',' or ']' in array"); }
    }
  }

  void append_utf8(std::string& out, unsigned cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  unsigned parse_hex4() {
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else { --pos_; fail("invalid \\u escape"); }
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = take();
      if (c == '"') return out;
      if (c == '\\') {
        const char e = take();
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            unsigned cp = parse_hex4();
            if (cp >= 0xD800 && cp <= 0xDBFF) {  // high surrogate
              if (take() != '\\' || take() != 'u') { --pos_; fail("unpaired surrogate"); }
              const unsigned lo = parse_hex4();
              if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
              cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            }
            append_utf8(out, cp);
            break;
          }
          default: --pos_; fail("invalid escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') take();
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid number");
    while (std::isdigit(static_cast<unsigned char>(peek()))) take();
    if (peek() == '.') {
      take();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid fraction");
      while (std::isdigit(static_cast<unsigned char>(peek()))) take();
    }
    if (peek() == 'e' || peek() == 'E') {
      take();
      if (peek() == '+' || peek() == '-') take();
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("invalid exponent");
      while (std::isdigit(static_cast<unsigned char>(peek()))) take();
    }
    double parsed = 0.0;
    try {
      parsed = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::out_of_range&) {
      fail("number out of range for double");
    }
    if (!std::isfinite(parsed)) fail("number out of range for double");
    return Value(parsed);
  }
};

}  // namespace

Value parse(const std::string& text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return parse(ss.str());
}

void write_file(const std::string& path, const Value& value, int indent) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw util::Error("cannot open file for writing: '" + path + "'");
  out << value.dump(indent) << '\n';
  if (!out) throw util::Error("write failed: '" + path + "'");
}

}  // namespace bbsim::json
