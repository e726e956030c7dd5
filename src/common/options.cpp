#include "common/options.hpp"

#include <cstdlib>

namespace dsud {

std::int64_t envOr(const char* name, std::int64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0') return fallback;
  return v;
}

double envOr(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw || *end != '\0') return fallback;
  return v;
}

std::string envOr(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  return raw;
}

ArgParser::ArgParser(int argc, const char* const* argv) {
  if (argc > 0) program_ = argv[0];
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.substr(0, 2) == "--") {
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        options_.emplace(std::string(arg), Flag{"true"});
      } else {
        options_.emplace(std::string(arg.substr(0, eq)),
                         Flag{std::string(arg.substr(eq + 1))});
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

const ArgParser::Flag* ArgParser::find(std::string_view key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return nullptr;
  it->second.read = true;
  return &it->second;
}

bool ArgParser::has(std::string_view key) const {
  return find(key) != nullptr;
}

std::string ArgParser::get(std::string_view key, std::string fallback) const {
  const Flag* flag = find(key);
  return flag == nullptr ? fallback : flag->value;
}

std::int64_t ArgParser::getInt(std::string_view key,
                               std::int64_t fallback) const {
  const Flag* flag = find(key);
  if (flag == nullptr) return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(flag->value.c_str(), &end, 10);
  if (end == flag->value.c_str() || *end != '\0') {
    badValues_.push_back("bad value --" + std::string(key) + "=" +
                         flag->value + ": expected an integer");
    return fallback;
  }
  return v;
}

double ArgParser::getDouble(std::string_view key, double fallback) const {
  const Flag* flag = find(key);
  if (flag == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(flag->value.c_str(), &end);
  if (end == flag->value.c_str() || *end != '\0') {
    badValues_.push_back("bad value --" + std::string(key) + "=" +
                         flag->value + ": expected a number");
    return fallback;
  }
  return v;
}

std::vector<std::string> ArgParser::unread() const {
  std::vector<std::string> keys;
  for (const auto& [key, flag] : options_) {
    if (!flag.read) keys.push_back(key);
  }
  return keys;
}

std::optional<std::string> ArgParser::problem() const {
  if (!badValues_.empty()) return badValues_.front();
  if (const auto keys = unread(); !keys.empty()) {
    return "unknown flag --" + keys.front();
  }
  return std::nullopt;
}

}  // namespace dsud
