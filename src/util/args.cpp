#include "util/args.hpp"

#include <sstream>
#include <stdexcept>

#include "util/error.hpp"

namespace hgc {

Args::Args(int argc, const char* const* argv) {
  std::vector<std::string> tokens;
  tokens.reserve(argc > 0 ? static_cast<std::size_t>(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) tokens.emplace_back(argv[i]);
  *this = Args(std::span<const std::string>(tokens));
}

Args::Args(std::span<const std::string> tokens) {
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::string token = tokens[i];
    HGC_REQUIRE(token.rfind("--", 0) == 0,
                "options must start with --, got: " + token);
    token.erase(0, 2);
    const auto eq = token.find('=');
    if (eq != std::string::npos) {
      values_[token.substr(0, eq)] = token.substr(eq + 1);
      lists_[token.substr(0, eq)].push_back(token.substr(eq + 1));
      bare_flags_.erase(token.substr(0, eq));
    } else if (i + 1 < tokens.size() &&
               tokens[i + 1].rfind("--", 0) != 0) {
      values_[token] = tokens[++i];
      lists_[token].push_back(tokens[i]);
      bare_flags_.erase(token);
    } else {
      // Bare flag: remember it as such so a value-typed read of this key
      // fails loudly instead of yielding the literal string "true".
      values_[token] = "true";
      bare_flags_.insert(token);
    }
  }
}

const std::string* Args::find_value(const std::string& key) const {
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return nullptr;
  if (bare_flags_.count(key) > 0)
    throw std::invalid_argument(
        "--" + key + " requires a value (it was given as a bare flag; was "
        "the value swallowed by the next option?)");
  return &it->second;
}

std::string Args::get(const std::string& key,
                      const std::string& fallback) const {
  const std::string* raw = find_value(key);
  return raw ? *raw : fallback;
}

std::int64_t Args::get_int(const std::string& key,
                           std::int64_t fallback) const {
  const std::string* raw = find_value(key);
  if (!raw) return fallback;
  try {
    std::size_t consumed = 0;
    const std::int64_t value = std::stoll(*raw, &consumed);
    if (consumed != raw->size())
      throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("not an integer: --" + key + "=" + *raw);
  }
}

double Args::get_double(const std::string& key, double fallback) const {
  const std::string* raw = find_value(key);
  if (!raw) return fallback;
  try {
    std::size_t consumed = 0;
    const double value = std::stod(*raw, &consumed);
    if (consumed != raw->size())
      throw std::invalid_argument("trailing characters");
    return value;
  } catch (const std::exception&) {
    throw std::invalid_argument("not a number: --" + key + "=" + *raw);
  }
}

bool Args::get_bool(const std::string& key, bool fallback) const {
  // Deliberately not find_value: a bare flag is the idiomatic way to say
  // true, so bools read the raw stored value.
  queried_.insert(key);
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  const std::string& raw = it->second;
  if (raw == "true" || raw == "1" || raw == "yes") return true;
  if (raw == "false" || raw == "0" || raw == "no") return false;
  throw std::invalid_argument("not a boolean: --" + key + "=" + raw);
}

std::vector<std::string> Args::get_list(const std::string& key) const {
  // find_value enforces the bare-flag rule and marks the key queried.
  if (find_value(key) == nullptr) return {};
  const auto it = lists_.find(key);
  return it == lists_.end() ? std::vector<std::string>{} : it->second;
}

void Args::check_unused() const {
  std::ostringstream unknown;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (queried_.count(key) == 0) unknown << " --" << key;
  }
  const std::string list = unknown.str();
  if (!list.empty())
    throw std::invalid_argument("unrecognized options:" + list);
}

}  // namespace hgc
