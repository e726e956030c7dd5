// Tiny configuration helpers shared by benches and examples.
//
// Bench binaries must run with no arguments (`for b in build/bench/*; do $b;
// done`), so scale knobs come from the environment: DSUD_N, DSUD_REPEATS,
// DSUD_SEED, DSUD_SCALE=paper.  Examples additionally accept `--key=value`
// flags parsed by ArgParser.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dsud {

/// Environment lookup with typed fallback.  Returns `fallback` when the
/// variable is unset or unparsable.
std::int64_t envOr(const char* name, std::int64_t fallback);
double envOr(const char* name, double fallback);
std::string envOr(const char* name, const std::string& fallback);

/// Parses `--key=value` / `--flag` style arguments.  Unknown positional
/// arguments are collected in order.
///
/// Every getter (and `has`) marks its key as read, and getInt/getDouble
/// remember a value that does not parse (they still return the fallback).
/// A program reads all the flags it uses and then asks `problem()`, so a
/// misspelt or removed flag, or a malformed number, is reported instead of
/// silently ignored.
class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  bool has(std::string_view key) const;
  std::string get(std::string_view key, std::string fallback) const;
  std::int64_t getInt(std::string_view key, std::int64_t fallback) const;
  double getDouble(std::string_view key, double fallback) const;

  /// Flags given on the command line that nothing has read yet, in key
  /// order.
  std::vector<std::string> unread() const;

  /// The first problem with the flags read so far: a numeric value that did
  /// not parse ("bad value --n=12x: expected an integer"), else an unread
  /// flag ("unknown flag --slow-dir").  nullopt when there is none.
  std::optional<std::string> problem() const;

  const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }
  const std::string& program() const noexcept { return program_; }

 private:
  struct Flag {
    std::string value;
    mutable bool read = false;
  };

  const Flag* find(std::string_view key) const;

  std::string program_;
  std::map<std::string, Flag, std::less<>> options_;
  std::vector<std::string> positional_;
  mutable std::vector<std::string> badValues_;
};

}  // namespace dsud
