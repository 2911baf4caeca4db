#include "common/cli.hpp"

#include "common/codec.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace ecthub {

namespace {
bool looks_like_flag(const std::string& s) { return s.rfind("--", 0) == 0 && s.size() > 2; }
}  // namespace

CliFlags::CliFlags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!looks_like_flag(arg)) {
      positional_.push_back(std::move(arg));
      continue;
    }
    std::string body = arg.substr(2);
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      values_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // `--name value` unless the next token is another flag (boolean switch).
    if (i + 1 < argc && !looks_like_flag(argv[i + 1])) {
      values_[body] = argv[++i];
    } else {
      values_[body] = "true";
    }
  }
}

bool CliFlags::has(const std::string& name) const {
  consumed_.insert(name);
  return values_.count(name) > 0;
}

std::string CliFlags::get_string(const std::string& name, std::string def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? std::move(def) : it->second;
}

std::int64_t CliFlags::get_int(const std::string& name, std::int64_t def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::size_t parsed = 0;
  std::int64_t value = 0;
  try {
    value = std::stoll(it->second, &parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" + it->second +
                                "'");
  }
  // std::stoll("4abc") stops at the first non-digit and yields 4; the whole
  // value must be the number, so a mistyped flag value cannot half-parse.
  if (parsed != it->second.size()) {
    throw std::invalid_argument("flag --" + name + " expects an integer, got '" + it->second +
                                "' (trailing garbage)");
  }
  return value;
}

double CliFlags::get_double(const std::string& name, double def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  std::size_t parsed = 0;
  double value = 0.0;
  try {
    value = std::stod(it->second, &parsed);
  } catch (const std::exception&) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + it->second + "'");
  }
  if (parsed != it->second.size()) {
    throw std::invalid_argument("flag --" + name + " expects a number, got '" + it->second +
                                "' (trailing garbage)");
  }
  return value;
}

bool CliFlags::get_bool(const std::string& name, bool def) const {
  consumed_.insert(name);
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off") return false;
  throw std::invalid_argument("flag --" + name + " expects a boolean, got '" + v + "'");
}

std::vector<std::size_t> CliFlags::get_size_list(const std::string& name,
                                                 const std::string& def) const {
  const std::string text = get_string(name, def);
  const auto reject = [&] {
    return std::invalid_argument("flag --" + name +
                                 " expects a comma-separated list of non-negative integers, "
                                 "got '" + text + "'");
  };
  std::vector<std::size_t> out;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t end = std::min(text.find(',', begin), text.size());
    const std::string item = text.substr(begin, end - begin);
    if (item.empty() ||
        !std::all_of(item.begin(), item.end(), [](char c) { return c >= '0' && c <= '9'; })) {
      throw reject();
    }
    try {
      out.push_back(static_cast<std::size_t>(std::stoull(item)));
    } catch (const std::out_of_range&) {
      throw reject();
    }
    if (end == text.size()) return out;
    begin = end + 1;
  }
}

void CliFlags::check_unknown() const {
  std::string unknown;
  for (const auto& [name, value] : values_) {
    if (consumed_.count(name) > 0) continue;
    if (!unknown.empty()) unknown += ", ";
    unknown += "--" + name;
  }
  if (!unknown.empty()) {
    throw std::invalid_argument("unrecognized flag(s): " + unknown +
                                " (run with no flags to use defaults; see the binary's "
                                "header comment for the flags it reads)");
  }
  // Stray positionals are the same bug class: `stations=2500` (missing the
  // leading --) must not silently run defaults.  Binaries that take
  // positionals read positional() before this call, which waives the check.
  if (!positional_read_ && !positional_.empty()) {
    std::string stray;
    for (const std::string& p : positional_) {
      if (!stray.empty()) stray += ", ";
      stray += "'" + p + "'";
    }
    throw std::invalid_argument("unexpected positional argument(s): " + stray +
                                " (flags are --name value; did you drop the --?)");
  }
}

int run_cli(int argc, const char* const* argv, int (*body)(const CliFlags& flags)) {
  const char* program = argc > 0 ? argv[0] : "ecthub";
  try {
    const CliFlags flags(argc, argv);
    return body(flags);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
  } catch (const codec::Error& e) {
    std::fprintf(stderr, "%s: %s\n", program, e.what());
  }
  return 2;
}

}  // namespace ecthub
