#include "util/serialize.hpp"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cerrno>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>

#include "util/check.hpp"
#include "util/faultinject.hpp"

namespace bd::util {

// Every multi-byte field is copied to and from its little-endian wire form
// with memcpy; a big-endian port would need a byte-swap path here.
static_assert(std::endian::native == std::endian::little,
              "the checked-file encoding assumes a little-endian host");

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320:
/// t[0] is the classic bytewise table, t[k][b] the CRC of byte b followed
/// by k zero bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

}  // namespace

std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const std::byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; n -= 8, p += 8) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ static_cast<std::uint8_t>(*p)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// BinaryWriter
// ---------------------------------------------------------------------------

namespace {
/// A streaming writer buffers up to this many bytes before handing them to
/// its sink; runs at least this long (the particle arrays) bypass the
/// buffer and go to the sink from the caller's memory.
constexpr std::size_t kStreamChunk = 64 * 1024;
}  // namespace

BinaryWriter::BinaryWriter(Sink sink) : sink_(std::move(sink)) {
  buffer_.reserve(kStreamChunk);
}

void BinaryWriter::append(const void* data, std::size_t n) {
  const auto* bytes = static_cast<const std::byte*>(data);
  if (sink_ && n >= kStreamChunk) {
    flush();
    sink_(std::span<const std::byte>(bytes, n));
    streamed_ += n;
    return;
  }
  buffer_.insert(buffer_.end(), bytes, bytes + n);
  if (sink_ && buffer_.size() >= kStreamChunk) flush();
}

void BinaryWriter::flush() {
  if (buffer_.empty()) return;
  sink_(buffer_);
  streamed_ += buffer_.size();
  buffer_.clear();
}

void BinaryWriter::write_u8(std::uint8_t v) { append(&v, 1); }

void BinaryWriter::write_u32(std::uint32_t v) { append(&v, sizeof v); }

void BinaryWriter::write_u64(std::uint64_t v) { append(&v, sizeof v); }

void BinaryWriter::write_i64(std::int64_t v) {
  write_u64(static_cast<std::uint64_t>(v));
}

void BinaryWriter::write_f64(double v) { append(&v, sizeof v); }

void BinaryWriter::write_bool(bool v) { write_u8(v ? 1 : 0); }

void BinaryWriter::write_string(std::string_view s) {
  write_u64(s.size());
  append(s.data(), s.size());
}

void BinaryWriter::write_f64_span(std::span<const double> values) {
  write_u64(values.size());
  append(values.data(), values.size_bytes());
}

void BinaryWriter::write_bytes(std::span<const std::byte> bytes) {
  write_u64(bytes.size());
  append(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// BinaryReader
// ---------------------------------------------------------------------------

const std::byte* BinaryReader::take(std::size_t n) {
  BD_CHECK_MSG(remaining() >= n, "truncated payload: need "
                                     << n << " bytes, have " << remaining());
  const std::byte* p = payload_.data() + offset_;
  offset_ += n;
  return p;
}

std::uint8_t BinaryReader::read_u8() {
  return static_cast<std::uint8_t>(*take(1));
}

std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  std::memcpy(&v, take(sizeof v), sizeof v);
  return v;
}

std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  std::memcpy(&v, take(sizeof v), sizeof v);
  return v;
}

std::int64_t BinaryReader::read_i64() {
  return static_cast<std::int64_t>(read_u64());
}

double BinaryReader::read_f64() {
  double v = 0.0;
  std::memcpy(&v, take(sizeof v), sizeof v);
  return v;
}

bool BinaryReader::read_bool() { return read_u8() != 0; }

std::string BinaryReader::read_string() {
  const std::uint64_t n = read_u64();
  BD_CHECK_MSG(n <= remaining(), "truncated payload: string of " << n
                                     << " bytes, have " << remaining());
  const std::byte* p = take(static_cast<std::size_t>(n));
  return std::string(reinterpret_cast<const char*>(p),
                     static_cast<std::size_t>(n));
}

std::vector<double> BinaryReader::read_f64_vector() {
  const std::uint64_t n = read_u64();
  // Divide, never multiply: n * 8 wraps for a corrupt n >= 2^61.
  BD_CHECK_MSG(n <= remaining() / sizeof(double),
               "truncated payload: f64 array of " << n << " elements, have "
                                                  << remaining() << " bytes");
  std::vector<double> out(static_cast<std::size_t>(n));
  const std::size_t bytes = out.size() * sizeof(double);
  if (bytes > 0) std::memcpy(out.data(), take(bytes), bytes);
  return out;
}

void BinaryReader::read_f64_into(std::span<double> out) {
  const std::uint64_t n = read_u64();
  BD_CHECK_MSG(n == out.size(), "f64 array size mismatch: stored "
                                    << n << ", expected " << out.size());
  if (!out.empty()) {
    std::memcpy(out.data(), take(out.size_bytes()), out.size_bytes());
  }
}

std::span<const std::byte> BinaryReader::read_bytes() {
  const std::uint64_t n = read_u64();
  BD_CHECK_MSG(n <= remaining(), "truncated payload: byte block of " << n
                                     << " bytes, have " << remaining());
  const auto size = static_cast<std::size_t>(n);
  return {take(size), size};
}

// ---------------------------------------------------------------------------
// Checked files
// ---------------------------------------------------------------------------

namespace {

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f) std::fclose(f);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

constexpr std::size_t kHeaderSize = 20;  // magic + version + size + crc

/// Pieces of at most this many bytes are checksummed and then written (or
/// read and then checksummed) while they are still in cache.
constexpr std::size_t kCrcSlice = 256 * 1024;

}  // namespace

std::size_t write_checked_file(
    const std::string& path, std::uint32_t magic, std::uint32_t version,
    const std::function<void(BinaryWriter&)>& encode) {
  // Deterministic crash-mid-write fault: abandon the temp file before its
  // header is written and bail before the rename — the previous snapshot
  // must survive.
  const bool truncate_fault =
      faultinject::enabled() &&
      faultinject::fire(faultinject::FaultClass::kCheckpointTruncate, -1)
          .has_value();

  // The temp name must be unique per process *and* per writer: two sims
  // checkpointing into the same directory (or two processes sharing a
  // spool) must never write the same tmp file, or one rename publishes
  // the other's half-written bytes. The final rename stays atomic because
  // the tmp lives in the destination directory.
  static std::atomic<std::uint64_t> g_tmp_seq{0};
  const std::uint64_t seq =
      g_tmp_seq.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(seq);
  FileHandle f(std::fopen(tmp.c_str(), "wb"));
  BD_CHECK_MSG(f != nullptr, "cannot open " << tmp << " for writing");
  std::size_t payload_size = 0;
  try {
    const auto put = [&](std::span<const std::byte> bytes) {
      BD_CHECK_MSG(std::fwrite(bytes.data(), 1, bytes.size(), f.get()) ==
                       bytes.size(),
                   "short write to " << tmp);
    };
    put(std::array<std::byte, kHeaderSize>{});  // placeholder
    std::uint32_t crc = 0;
    BinaryWriter out([&](std::span<const std::byte> piece) {
      for (std::size_t at = 0; at < piece.size(); at += kCrcSlice) {
        const auto slice =
            piece.subspan(at, std::min(kCrcSlice, piece.size() - at));
        crc = crc32(slice, crc);
        put(slice);
      }
    });
    encode(out);
    out.flush();
    BD_CHECK_MSG(!truncate_fault, "fault injected: checkpoint write to "
                                      << path << " truncated mid-file");
    BD_CHECK_MSG(std::fseek(f.get(), 0, SEEK_SET) == 0,
                 "cannot seek in " << tmp);
    BinaryWriter header;
    header.write_u32(magic);
    header.write_u32(version);
    header.write_u64(out.size());
    header.write_u32(crc);
    put(header.payload());
    BD_CHECK_MSG(std::fflush(f.get()) == 0, "short write to " << tmp);
    payload_size = out.size();
  } catch (...) {
    f.reset();
    std::remove(tmp.c_str());
    throw;
  }
  f.reset();
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    BD_CHECK_MSG(false, "cannot rename " << tmp << " over " << path);
  }
  return payload_size;
}

std::size_t remove_dead_stage_files(const std::string& dir) {
  namespace fs = std::filesystem;
  constexpr std::size_t kSweepCap = 1024;
  std::error_code ec;
  std::size_t removed = 0;
  std::size_t scanned = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (++scanned > kSweepCap) break;
    const std::string name = entry.path().filename().string();
    const auto tag = name.find(".tmp.");
    if (tag == std::string::npos || !entry.is_regular_file(ec)) continue;
    // pid = digits between ".tmp." and the next '.' (or end of name).
    const char* end = name.data() + name.size();
    long pid = 0;
    const auto [rest, bad] = std::from_chars(name.data() + tag + 5, end, pid);
    if (bad != std::errc() || (rest != end && *rest != '.') || pid <= 0 ||
        pid == static_cast<long>(::getpid())) {
      continue;
    }
    errno = 0;
    if (::kill(static_cast<pid_t>(pid), 0) == 0 || errno != ESRCH) {
      continue;  // alive (or not ours to judge) — keep the stage file
    }
    fs::remove(entry.path(), ec);
    if (!ec) ++removed;
  }
  return removed;
}

std::vector<std::byte> read_checked_file(const std::string& path,
                                         std::uint32_t magic,
                                         std::uint32_t& version_out) {
  FileHandle f(std::fopen(path.c_str(), "rb"));
  BD_CHECK_MSG(f != nullptr, "cannot open checkpoint file: " << path);
  struct stat st {};
  BD_CHECK_MSG(::fstat(::fileno(f.get()), &st) == 0, "cannot stat " << path);
  const auto file_size = static_cast<std::uint64_t>(st.st_size);
  BD_CHECK_MSG(file_size >= kHeaderSize,
               path << ": too short to be a checkpoint (" << file_size
                    << " bytes)");
  std::array<std::byte, kHeaderSize> raw{};
  BD_CHECK_MSG(std::fread(raw.data(), 1, kHeaderSize, f.get()) == kHeaderSize,
               "read error on " << path);
  BinaryReader header(raw);
  const std::uint32_t stored_magic = header.read_u32();
  BD_CHECK_MSG(stored_magic == magic,
               path << ": bad magic 0x" << std::hex << stored_magic
                    << ", expected 0x" << magic);
  version_out = header.read_u32();
  const std::uint64_t payload_size = header.read_u64();
  const std::uint32_t stored_crc = header.read_u32();
  BD_CHECK_MSG(file_size - kHeaderSize == payload_size,
               path << ": truncated payload — header declares " << payload_size
                    << " bytes, file holds " << (file_size - kHeaderSize));

  std::vector<std::byte> payload(static_cast<std::size_t>(payload_size));
  std::uint32_t actual_crc = 0;
  for (std::size_t at = 0; at < payload.size(); at += kCrcSlice) {
    const std::size_t n = std::min(kCrcSlice, payload.size() - at);
    BD_CHECK_MSG(std::fread(payload.data() + at, 1, n, f.get()) == n,
                 path << ": read error or file shrank at payload byte " << at);
    actual_crc = crc32(std::span<const std::byte>(payload.data() + at, n),
                       actual_crc);
  }
  BD_CHECK_MSG(actual_crc == stored_crc,
               path << ": CRC mismatch — stored 0x" << std::hex << stored_crc
                    << ", computed 0x" << actual_crc);
  return payload;
}

// ---------------------------------------------------------------------------
// Append-only CRC-framed journal
// ---------------------------------------------------------------------------

void append_journal_record(const std::string& path,
                           std::span<const std::byte> payload) {
  BinaryWriter frame;
  frame.write_u32(kJournalMarker);
  frame.write_u32(static_cast<std::uint32_t>(payload.size()));
  frame.write_u32(crc32(payload));
  FileHandle f(std::fopen(path.c_str(), "ab"));
  BD_CHECK_MSG(f != nullptr, "cannot open journal " << path << " for append");
  const auto header = frame.payload();
  const bool ok =
      std::fwrite(header.data(), 1, header.size(), f.get()) == header.size() &&
      (payload.empty() ||
       std::fwrite(payload.data(), 1, payload.size(), f.get()) ==
           payload.size()) &&
      std::fflush(f.get()) == 0;
  BD_CHECK_MSG(ok, "short append to journal " << path);
}

JournalReadResult read_journal_records(const std::string& path) {
  JournalReadResult result;
  FileHandle f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) return result;  // no journal yet: zero records
  std::vector<std::byte> file;
  std::byte chunk[65536];
  std::size_t n = 0;
  while ((n = std::fread(chunk, 1, sizeof chunk, f.get())) > 0) {
    file.insert(file.end(), chunk, chunk + n);
  }
  BD_CHECK_MSG(std::ferror(f.get()) == 0, "read error on journal " << path);

  constexpr std::size_t kFrameHeader = 12;  // marker + size + crc
  std::size_t offset = 0;
  while (offset < file.size()) {
    // A frame that cannot fully fit in the remaining bytes is a torn tail
    // append — tolerated. Anything else inconsistent is corruption.
    if (file.size() - offset < kFrameHeader) {
      result.truncated_tail = true;
      break;
    }
    BinaryReader header(
        std::span<const std::byte>(file.data() + offset, kFrameHeader));
    const std::uint32_t marker = header.read_u32();
    BD_CHECK_MSG(marker == kJournalMarker,
                 path << ": bad journal frame marker 0x" << std::hex << marker
                      << " at byte offset " << std::dec << offset);
    const std::uint32_t size = header.read_u32();
    const std::uint32_t stored_crc = header.read_u32();
    if (file.size() - offset - kFrameHeader < size) {
      result.truncated_tail = true;
      break;
    }
    const std::span<const std::byte> payload(file.data() + offset +
                                                 kFrameHeader,
                                             size);
    const std::uint32_t actual_crc = crc32(payload);
    if (actual_crc != stored_crc) {
      // A torn write can flush a full-length frame with garbage bytes; a
      // CRC mismatch on the very last frame is that case. Mid-file, it is
      // corruption and must fail loudly.
      if (offset + kFrameHeader + size == file.size()) {
        result.truncated_tail = true;
        break;
      }
      BD_CHECK_MSG(false, path << ": journal frame CRC mismatch at byte offset "
                               << offset << " — stored 0x" << std::hex
                               << stored_crc << ", computed 0x" << actual_crc);
    }
    result.records.emplace_back(payload.begin(), payload.end());
    offset += kFrameHeader + size;
  }
  return result;
}

}  // namespace bd::util
