// Tiny command-line flag parser for the bench and example binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Keeps the bench binaries dependency-free while allowing parameter sweeps
// to be customised from the shell.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace summagen::util {

/// A user-facing command-line error: the flag name and what was wrong with
/// its value. Binaries catch this separately from internal errors and print
/// the message plus usage.
class CliError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parsed command-line flags with typed, defaulted accessors. Every
/// accessor (has included) records the flag name as read, so a binary
/// that has read all the flags it understands can refuse the rest with
/// reject_unread() instead of silently ignoring a misspelled flag.
class Cli {
 public:
  /// Parses argv; throws std::invalid_argument on malformed flags
  /// (non-flag positional arguments are collected separately).
  Cli(int argc, const char* const* argv);

  bool has(const std::string& name) const;

  std::string get(const std::string& name, const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  /// get_int with a lower bound: throws CliError naming the flag when the
  /// value is malformed or below `min_value`.
  std::int64_t get_int_min(const std::string& name, std::int64_t fallback,
                           std::int64_t min_value) const;
  double get_double(const std::string& name, double fallback) const;
  bool get_bool(const std::string& name, bool fallback) const;

  /// Comma-separated integer list, e.g. --sizes 1024,2048,4096.
  std::vector<std::int64_t> get_int_list(
      const std::string& name, const std::vector<std::int64_t>& fallback) const;

  /// Comma-separated double list, e.g. --speeds 1.0,2.0,0.9.
  std::vector<double> get_double_list(const std::string& name,
                                      const std::vector<double>& fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Throws CliError naming the first flag (in command-line order) that no
  /// accessor has read. Call it after every flag the binary accepts,
  /// conditional ones included, has been read.
  void reject_unread() const;

 private:
  const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  std::vector<std::string> order_;  // flag names, first occurrence order
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace summagen::util
