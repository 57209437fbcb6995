#include "util/options.h"

#include <cerrno>
#include <cstdlib>
#include <string_view>

#include "util/assert.h"

namespace hyco {

namespace {

/// Names the whole flag value in an error about one of its list items.
std::string in_value(const std::string& item, const std::string& value) {
  return item == value ? std::string() : " (in \"" + value + "\")";
}

/// Parses one whole token of the flag `key` whose full value is `value`:
/// empty text, trailing junk and out-of-range values are errors.
std::int64_t parse_int(const std::string& key, const std::string& item,
                       const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const std::int64_t v = std::strtoll(item.c_str(), &end, 10);
  HYCO_CHECK_MSG(end != item.c_str() && *end == '\0' && errno != ERANGE,
                 "--" << key << ": \"" << item
                      << "\" is not an in-range integer"
                      << in_value(item, value));
  return v;
}

double parse_double(const std::string& key, const std::string& item,
                    const std::string& value) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(item.c_str(), &end);
  HYCO_CHECK_MSG(end != item.c_str() && *end == '\0' && errno != ERANGE,
                 "--" << key << ": \"" << item
                      << "\" is not an in-range number"
                      << in_value(item, value));
  return v;
}

std::vector<std::string> split_list(const std::string& key,
                                    const std::string& value) {
  std::vector<std::string> items;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = value.find(',', start);
    const std::string item = value.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    HYCO_CHECK_MSG(!item.empty(),
                   "--" << key << ": empty item in list \"" << value << '"');
    items.push_back(item);
    if (comma == std::string::npos) return items;
    start = comma + 1;
  }
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        kv_.emplace(std::string(arg.substr(2)), "true");
      } else {
        kv_.emplace(std::string(arg.substr(2, eq - 2)),
                    std::string(arg.substr(eq + 1)));
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

bool Options::has(const std::string& key) const { return kv_.count(key) > 0; }

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  const auto it = kv_.find(key);
  return it == kv_.end() ? fallback : it->second;
}

std::int64_t Options::get_int(const std::string& key,
                              std::int64_t fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_int(key, it->second, it->second);
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return parse_double(key, it->second, it->second);
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return it->second == "true" || it->second == "1" || it->second == "yes";
}

std::vector<std::int64_t> Options::get_int_list(
    const std::string& key, std::vector<std::int64_t> fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  std::vector<std::int64_t> out;
  for (const auto& item : split_list(key, it->second)) {
    out.push_back(parse_int(key, item, it->second));
  }
  return out;
}

std::vector<double> Options::get_double_list(
    const std::string& key, std::vector<double> fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  std::vector<double> out;
  for (const auto& item : split_list(key, it->second)) {
    out.push_back(parse_double(key, item, it->second));
  }
  return out;
}

std::vector<std::string> Options::get_string_list(
    const std::string& key, std::vector<std::string> fallback) const {
  const auto it = kv_.find(key);
  if (it == kv_.end()) return fallback;
  return split_list(key, it->second);
}

}  // namespace hyco
