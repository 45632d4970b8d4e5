// bbsim -- small string helpers shared across subsystems.
#pragma once

#include <cstdarg>
#include <string>
#include <vector>

namespace bbsim::util {

/// Split `text` on `sep`, keeping empty fields.
std::vector<std::string> split(const std::string& text, char sep);

/// Remove leading/trailing ASCII whitespace.
std::string trim(const std::string& text);

/// Join the parts with `sep` between consecutive elements.
std::string join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `text` begins with `prefix`.
bool starts_with(const std::string& text, const std::string& prefix);

/// True if `text` ends with `suffix`.
bool ends_with(const std::string& text, const std::string& suffix);

/// Lower-case an ASCII string.
std::string to_lower(std::string text);

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
/// format() over an already started argument list.
std::string vformat(const char* fmt, va_list args) __attribute__((format(printf, 1, 0)));

}  // namespace bbsim::util
