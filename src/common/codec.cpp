#include "common/codec.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <iterator>

namespace ecthub::codec {

namespace {

constexpr std::size_t kMagicBytes = 4;
constexpr std::size_t kHeaderBytes = kMagicBytes + 4 + 4;   // magic, version, count
constexpr std::size_t kSectionHeaderBytes = 4 + 8;          // id, payload size
constexpr std::size_t kTrailerBytes = 8;                    // FNV-1a checksum

[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

[[nodiscard]] std::uint64_t le_at(std::string_view bytes, std::size_t pos, unsigned width) {
  std::uint64_t v = 0;
  for (unsigned i = 0; i < width; ++i) {
    v |= std::uint64_t{static_cast<unsigned char>(bytes[pos + i])} << (8 * i);
  }
  return v;
}

void put_le(std::string& out, std::uint64_t v, unsigned width) {
  for (unsigned i = 0; i < width; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffu));
}

}  // namespace

void put_u64(std::string& out, std::uint64_t v) { put_le(out, v, 8); }

void put_f64(std::string& out, double v) { put_u64(out, std::bit_cast<std::uint64_t>(v)); }

void put_string(std::string& out, std::string_view s) {
  put_u64(out, s.size());
  out.append(s);
}

std::string encode(const Format& format, std::initializer_list<std::string_view> payloads) {
  if (format.magic.size() != kMagicBytes || payloads.size() != format.section_ids.size()) {
    throw std::logic_error("codec::encode: " + std::string(format.name) +
                           " needs a 4-byte magic and one payload per section");
  }
  std::string out(format.magic);
  put_le(out, format.version, 4);
  put_le(out, payloads.size(), 4);
  const std::uint32_t* id = format.section_ids.data();
  for (const std::string_view payload : payloads) {
    put_le(out, *id++, 4);
    put_u64(out, payload.size());
    out.append(payload);
  }
  put_u64(out, fnv1a(out));
  return out;
}

std::vector<std::string_view> decode(const Format& format, std::string_view bytes) {
  // Check order is the error contract: magic, then version, then the size
  // walk (truncation), then the checksum, and only then the structure.
  const std::string input = std::string(format.name) + " input ";
  if (bytes.size() < kMagicBytes) {
    throw TruncatedError(input + "shorter than the magic (" +
                         std::to_string(bytes.size()) + " bytes)");
  }
  if (bytes.substr(0, kMagicBytes) != format.magic) {
    throw MagicError(input + "does not start with the " +
                     std::string(format.magic) + " magic");
  }
  if (bytes.size() < kHeaderBytes) {
    throw TruncatedError(input + "ends inside the header");
  }
  const auto version = static_cast<std::uint32_t>(le_at(bytes, 4, 4));
  if (version != format.version) {
    throw VersionError(std::string(format.name) + " format version " +
                       std::to_string(version) + "; this build reads version " +
                       std::to_string(format.version));
  }
  const auto section_count = static_cast<std::uint32_t>(le_at(bytes, 8, 4));

  // Size walk: every section header and payload, plus the checksum trailer,
  // must fit — anything short is truncation.  No reserve from the count:
  // each section consumes real input bytes, so the walk bounds the vectors.
  std::vector<std::uint32_t> ids;
  std::vector<std::string_view> payloads;
  std::size_t cursor = kHeaderBytes;
  for (std::uint32_t s = 0; s < section_count; ++s) {
    if (bytes.size() - cursor < kSectionHeaderBytes + kTrailerBytes) {
      throw TruncatedError(input + "ends inside section header " +
                           std::to_string(s));
    }
    const auto id = static_cast<std::uint32_t>(le_at(bytes, cursor, 4));
    const std::uint64_t size = le_at(bytes, cursor + 4, 8);
    cursor += kSectionHeaderBytes;
    if (size > bytes.size() - cursor - kTrailerBytes) {
      throw TruncatedError(input + "ends inside section " + std::to_string(s) +
                           " payload (" + std::to_string(size) + " bytes promised)");
    }
    ids.push_back(id);
    payloads.push_back(bytes.substr(cursor, static_cast<std::size_t>(size)));
    cursor += static_cast<std::size_t>(size);
  }
  if (bytes.size() - cursor < kTrailerBytes) {
    throw TruncatedError(input + "ends inside the checksum trailer");
  }
  if (bytes.size() - cursor > kTrailerBytes) {
    throw FormatError(input + "has trailing bytes after the checksum");
  }
  if (le_at(bytes, cursor, 8) != fnv1a(bytes.substr(0, cursor))) {
    throw ChecksumError(std::string(format.name) + " checksum mismatch (corrupted payload)");
  }

  if (!std::ranges::equal(ids, format.section_ids)) {
    throw FormatError(input + "does not carry the section sequence of format "
                      "version " + std::to_string(format.version));
  }
  return payloads;
}

// ---- Reader ----------------------------------------------------------------

void Reader::fail(const std::string& message) const {
  throw FormatError(std::string(what_) + ": " + message);
}

void Reader::need(std::uint64_t n) const {
  if (remaining() < n) {
    fail("ends before its contents (" + std::to_string(n) + " bytes needed, " +
         std::to_string(remaining()) + " left)");
  }
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = le_at(bytes_, pos_, 8);
  pos_ += 8;
  return v;
}

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::string Reader::str() {
  const std::uint64_t len = u64();
  need(len);
  std::string s(bytes_.substr(pos_, static_cast<std::size_t>(len)));
  pos_ += static_cast<std::size_t>(len);
  return s;
}

std::uint64_t Reader::count(std::size_t min_bytes) {
  const std::uint64_t n = u64();
  if (n > remaining() / min_bytes) {
    fail("implausible count " + std::to_string(n) + " for " +
         std::to_string(remaining()) + " bytes left");
  }
  return n;
}

void Reader::expect_end() const {
  if (remaining() != 0) fail("trailing bytes after its contents");
}

// ---- whole files -----------------------------------------------------------

void write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw Error("cannot open '" + path.string() + "' for writing");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw Error("write to '" + path.string() + "' failed");
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open '" + path.string() + "'");
  std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw Error("read from '" + path.string() + "' failed");
  return bytes;
}

}  // namespace ecthub::codec
