#include "src/util/cli.hpp"

#include <sstream>
#include <stdexcept>

namespace summagen::util {
namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) out.push_back(item);
  return out;
}

}  // namespace

Cli::Cli(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg.erase(0, 2);
    const auto eq = arg.find('=');
    const std::string name = eq != std::string::npos ? arg.substr(0, eq) : arg;
    if (!flags_.contains(name)) order_.push_back(name);
    if (eq != std::string::npos) {
      flags_[name] = arg.substr(eq + 1);
      continue;
    }
    // `--name value` when the next token is not itself a flag; otherwise a
    // boolean switch.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[name] = argv[++i];
    } else {
      flags_[name] = "true";
    }
  }
}

const std::string* Cli::find(const std::string& name) const {
  read_.insert(name);
  const auto it = flags_.find(name);
  return it == flags_.end() ? nullptr : &it->second;
}

void Cli::reject_unread() const {
  for (const std::string& name : order_) {
    if (!read_.contains(name)) {
      throw CliError("--" + name +
                     ": unknown flag (or one the other flags make unused)");
    }
  }
}

bool Cli::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string Cli::get(const std::string& name,
                     const std::string& fallback) const {
  const std::string* value = find(name);
  return value == nullptr ? fallback : *value;
}

std::int64_t Cli::get_int(const std::string& name,
                          std::int64_t fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return std::stoll(*value);
}

std::int64_t Cli::get_int_min(const std::string& name, std::int64_t fallback,
                              std::int64_t min_value) const {
  const std::string* text = find(name);
  if (text == nullptr) return fallback;
  std::int64_t value = 0;
  try {
    std::size_t used = 0;
    value = std::stoll(*text, &used);
    if (used != text->size()) {
      throw std::invalid_argument(*text);
    }
  } catch (const std::exception&) {
    throw CliError("--" + name + ": expected an integer, got '" + *text +
                   "'");
  }
  if (value < min_value) {
    throw CliError("--" + name + ": value must be >= " +
                   std::to_string(min_value) + ", got " +
                   std::to_string(value));
  }
  return value;
}

double Cli::get_double(const std::string& name, double fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return std::stod(*value);
}

bool Cli::get_bool(const std::string& name, bool fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  return *value == "true" || *value == "1" || *value == "yes";
}

std::vector<std::int64_t> Cli::get_int_list(
    const std::string& name, const std::vector<std::int64_t>& fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  std::vector<std::int64_t> out;
  for (const auto& tok : split_commas(*value)) out.push_back(std::stoll(tok));
  return out;
}

std::vector<double> Cli::get_double_list(
    const std::string& name, const std::vector<double>& fallback) const {
  const std::string* value = find(name);
  if (value == nullptr) return fallback;
  std::vector<double> out;
  for (const auto& tok : split_commas(*value)) out.push_back(std::stod(tok));
  return out;
}

}  // namespace summagen::util
