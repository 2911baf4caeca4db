// Minimal command-line flag parser for the bench/example binaries.
//
// Supports `--name value` and `--name=value` forms plus boolean switches.
// Unknown flags raise an error so that typos in experiment scripts fail loud:
// every has()/get_*() call marks its flag as recognized, and check_unknown()
// — called by each binary once all flags have been read — throws listing any
// parsed flag nothing ever asked for (`--lockstep-treads 4` must not silently
// run defaults).  The numeric accessors are strict: the whole value must
// parse, so `--threads 4abc` fails instead of reading 4.  run_cli() turns
// those errors into exit status 2 with a one-line message.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace ecthub {

class CliFlags {
 public:
  /// Parses argv.  Throws std::invalid_argument on malformed input.
  CliFlags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;

  /// Typed accessors return the default when the flag is absent.  get_int and
  /// get_double require the full value to parse — trailing garbage ("4abc")
  /// throws std::invalid_argument instead of truncating.
  [[nodiscard]] std::string get_string(const std::string& name, std::string def) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t def) const;
  [[nodiscard]] double get_double(const std::string& name, double def) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool def = false) const;
  /// A comma-separated list of non-negative integers ("1,4,16"); `def` is
  /// the list text used when the flag is absent.  Every item must be all
  /// digits, so an empty item, a sign or trailing garbage ("1abc") throws
  /// std::invalid_argument, as does an empty list.
  [[nodiscard]] std::vector<std::size_t> get_size_list(const std::string& name,
                                                       const std::string& def) const;

  /// Throws std::invalid_argument listing every parsed --flag that no
  /// has()/get_*() call ever consumed, and any positional arguments when the
  /// binary never read positional() (`stations=2500` without the `--` must
  /// not silently run defaults).  Binaries call this once after their last
  /// flag read, so experiment-script typos fail loud instead of silently
  /// running defaults.
  void check_unknown() const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    positional_read_ = true;
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Flags a has()/get_*() call asked about — the parser's notion of "known".
  mutable std::set<std::string> consumed_;
  mutable bool positional_read_ = false;
};

/// The failure contract every CliFlags binary shares: parses argv and returns
/// `body(flags)`.  A std::invalid_argument (malformed, unknown or badly typed
/// flag, or a config value the library rejects) or a codec::Error (a file
/// that is not what it claims to be) escaping either prints one line
/// "<argv[0]>: <what>" on stderr and returns 2 instead of aborting.  Any
/// other exit status is body's own.
int run_cli(int argc, const char* const* argv, int (*body)(const CliFlags& flags));

}  // namespace ecthub
