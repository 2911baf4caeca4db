// codec: the one binary container every ecthub file format uses — shard
// artifacts (sim/shard_io) and DRL checkpoints (policy/drl_policy) — and the
// little-endian writers and bounded reader their payloads are built from
// (README "Binary formats").  Layout, every integer little-endian:
//
//   magic   4 bytes, one per format
//   u32     format version
//   u32     section count
//   count × { u32 section id, u64 payload size, payload }
//   u64     FNV-1a checksum over every preceding byte
//
// decode() checks magic → version → sizes → checksum → section sequence, so
// each corruption class maps to one error type below; payload readers then
// raise FormatError for nonsense inside a checksummed payload.
#pragma once

#include <cstdint>
#include <filesystem>
#include <initializer_list>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ecthub::codec {

/// Base of every codec failure (also raised directly for file-system
/// errors: unreadable path, failed write).
struct Error : std::runtime_error {
  using std::runtime_error::runtime_error;
};
/// The input ends before the bytes its own headers promise.
struct TruncatedError : Error {
  using Error::Error;
};
/// The input does not start with the format's magic — not this kind of file.
struct MagicError : Error {
  using Error::Error;
};
/// The input's format version is not the one this build writes.
struct VersionError : Error {
  using Error::Error;
};
/// The input is the right shape but its bytes fail the FNV-1a checksum.
struct ChecksumError : Error {
  using Error::Error;
};
/// The input is structurally inconsistent: trailing bytes, an unexpected
/// section sequence, or a payload whose contents contradict themselves.
struct FormatError : Error {
  using Error::Error;
};

/// One container format: the name used in error messages, its 4-byte
/// magic, the version this build reads and writes, and the ids of the
/// sections it carries, in order.
struct Format {
  std::string_view name;
  std::string_view magic;
  std::uint32_t version = 0;
  std::span<const std::uint32_t> section_ids;
};

/// Seals one payload per format.section_ids entry, in that order.
[[nodiscard]] std::string encode(const Format& format,
                                 std::initializer_list<std::string_view> payloads);

/// Checks `bytes` in the order above and returns the section payloads in
/// format.section_ids order, as views into `bytes`.
[[nodiscard]] std::vector<std::string_view> decode(const Format& format,
                                                   std::string_view bytes);

// ---- little-endian, byte-explicit writers --------------------------------

void put_u64(std::string& out, std::uint64_t v);
void put_f64(std::string& out, double v);  ///< the double's bit pattern
void put_string(std::string& out, std::string_view s);  ///< u64 length + bytes

/// Bounded payload reader: every read, and every length or count taken from
/// the input, is checked against the bytes left before anything is read or
/// allocated, so a forged length costs a FormatError, never an allocation
/// larger than the input.
class Reader {
 public:
  /// `what` names the payload in error messages ("shard plan").
  Reader(std::string_view bytes, std::string_view what) : bytes_(bytes), what_(what) {}

  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// An element count whose elements take at least `min_bytes` (>= 1) each: a
  /// count that cannot fit in the bytes left is a FormatError, so callers
  /// may size containers from it.
  [[nodiscard]] std::uint64_t count(std::size_t min_bytes);

  [[nodiscard]] std::size_t remaining() const noexcept { return bytes_.size() - pos_; }
  /// FormatError unless every byte was consumed.
  void expect_end() const;
  /// FormatError naming this payload.
  [[noreturn]] void fail(const std::string& message) const;

 private:
  void need(std::uint64_t n) const;

  std::string_view bytes_;
  std::string_view what_;
  std::size_t pos_ = 0;
};

// ---- whole files ----------------------------------------------------------

/// Writes `bytes` to `path` (truncating); throws Error on failure.
void write_file(const std::filesystem::path& path, std::string_view bytes);
/// Reads all of `path`; throws Error when it cannot be opened or read.
[[nodiscard]] std::string read_file(const std::filesystem::path& path);

}  // namespace ecthub::codec
