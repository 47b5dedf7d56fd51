#pragma once
/// \file serialize.hpp
/// Versioned, checksummed binary serialization for checkpoint/restart.
///
/// A checkpoint is a *checked file*:
///
///   [magic u32][version u32][payload_size u64][crc32 u32][payload bytes]
///
/// written atomically (temp file + rename) so a crash mid-write can never
/// corrupt the previous snapshot, and validated on read (magic, size and
/// CRC32 of the payload) so a truncated or bit-flipped file raises
/// bd::CheckError instead of resurrecting garbage state.
///
/// BinaryWriter/BinaryReader provide the typed little-endian payload
/// encoding. Every read is bounds-checked; running off the end of a
/// payload, or a length prefix larger than the bytes left, throws
/// bd::CheckError. Multi-byte values are stored little-endian and copied
/// with memcpy, so the build requires a little-endian host (checked at
/// compile time); the files themselves are portable.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace bd::util {

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG flavor) of `data`.
/// Chain blocks by feeding the previous result as `seed`.
std::uint32_t crc32(std::span<const std::byte> data, std::uint32_t seed = 0);

/// Append-only typed encoder for a checkpoint payload. A default writer
/// keeps every byte in memory (payload()). A streaming writer, which only
/// write_checked_file() makes, hands its bytes to a sink in pieces instead.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);
  void write_bool(bool v);
  /// Length-prefixed UTF-8 string.
  void write_string(std::string_view s);
  /// Length-prefixed array of doubles (bit-exact, NaN-safe).
  void write_f64_span(std::span<const double> values);
  /// Length-prefixed raw byte block (for nested / opaque payloads).
  void write_bytes(std::span<const std::byte> bytes);

  /// The encoded bytes of an in-memory writer.
  std::span<const std::byte> payload() const { return buffer_; }
  /// Bytes encoded so far.
  std::size_t size() const { return streamed_ + buffer_.size(); }

 private:
  friend std::size_t write_checked_file(
      const std::string&, std::uint32_t, std::uint32_t,
      const std::function<void(BinaryWriter&)>&);

  /// Receives the encoded bytes of a streaming writer, in order.
  using Sink = std::function<void(std::span<const std::byte>)>;

  explicit BinaryWriter(Sink sink);
  void append(const void* data, std::size_t n);
  /// Hand the buffered bytes to the sink (streaming writers only).
  void flush();

  std::vector<std::byte> buffer_;
  Sink sink_;
  std::size_t streamed_ = 0;
};

/// Bounds-checked typed decoder over a payload. Reads must mirror the
/// writes exactly; any overrun or length mismatch throws bd::CheckError.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::byte> payload)
      : payload_(payload) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int64_t read_i64();
  double read_f64();
  bool read_bool();
  std::string read_string();
  /// Read a length-prefixed f64 array into a fresh vector. The stored
  /// length is checked against the bytes left before anything is
  /// allocated.
  std::vector<double> read_f64_vector();
  /// Read a length-prefixed f64 array into `out`; the stored length must
  /// equal out.size() (in-place restore without reallocation).
  void read_f64_into(std::span<double> out);
  /// Read a length-prefixed raw byte block. The span points into the
  /// payload, so it stays valid as long as the payload does, and no
  /// bytes are copied.
  std::span<const std::byte> read_bytes();

  std::size_t remaining() const { return payload_.size() - offset_; }
  bool done() const { return remaining() == 0; }

 private:
  const std::byte* take(std::size_t n);

  std::span<const std::byte> payload_;
  std::size_t offset_ = 0;
};

/// Atomically write a checked file whose payload `encode` writes into the
/// streaming writer it is given. The bytes go to a unique
/// `path + ".tmp.<pid>.<seq>"` sibling: a 20-byte placeholder header
/// first, then the payload in pieces as it is encoded (CRC chained over
/// each piece), then the real header over the placeholder. Only once that
/// is flushed is the temp file renamed over `path`, so `path` always holds
/// either the previous snapshot or the complete new one — and concurrent
/// writers (two sims checkpointing into one directory, or two processes
/// sharing a spool) can never clobber each other's in-flight temp file.
/// Throws bd::CheckError on I/O failure, or whatever `encode` throws; the
/// previous file is then untouched and the temp file is removed. Returns
/// the payload size.
std::size_t write_checked_file(
    const std::string& path, std::uint32_t magic, std::uint32_t version,
    const std::function<void(BinaryWriter&)>& encode);

/// Remove the staging files write_checked_file() left in `dir` when its
/// process crashed mid-write: `<path>.tmp.<pid>.<seq>` whose pid is
/// verifiably dead (`kill(pid, 0)` fails with ESRCH). Bounded and
/// best-effort: it scans at most 1024 entries, and leaves unparseable
/// names and live or foreign pids alone. Returns the number removed.
std::size_t remove_dead_stage_files(const std::string& dir);

/// Read and validate a checked file: magic, declared payload size and
/// CRC32 must all match or bd::CheckError is thrown. The declared size is
/// checked against the file size before the one payload buffer is
/// allocated, and the payload is read straight into it. Returns the payload;
/// `version_out` receives the stored format version (callers dispatch on
/// it — see docs/ROBUSTNESS.md for the version policy).
std::vector<std::byte> read_checked_file(const std::string& path,
                                         std::uint32_t magic,
                                         std::uint32_t& version_out);

// ---------------------------------------------------------------------------
// Append-only CRC-framed journal (write-ahead log)
// ---------------------------------------------------------------------------
//
// A journal is a sequence of independently validated record frames:
//
//   [marker u32][payload_size u32][crc32 u32][payload bytes]
//
// appended (and flushed) one frame at a time, so a crash mid-append can
// only ever damage the *last* frame. Readers therefore tolerate a
// truncated or corrupt tail frame — the torn write a crash leaves behind
// — but treat any damaged frame *followed by more bytes* as real
// corruption and throw. The payload encoding is the caller's
// (BinaryWriter/BinaryReader); see docs/ROBUSTNESS.md for the fleet
// journal's record layout.

/// Frame marker "BDJL" (little-endian on disk).
inline constexpr std::uint32_t kJournalMarker = 0x4C4A4442u;

/// Append one framed record to the journal at `path` (created when
/// missing) and flush it. Throws bd::CheckError on I/O failure.
void append_journal_record(const std::string& path,
                           std::span<const std::byte> payload);

/// Every record payload recovered from a journal, in append order.
struct JournalReadResult {
  std::vector<std::vector<std::byte>> records;
  /// True when the file ended in a torn frame (crash mid-append). The
  /// complete prefix in `records` is still valid.
  bool truncated_tail = false;
};

/// Read and validate a journal. A missing file yields zero records; a
/// torn tail frame sets `truncated_tail`; a damaged frame with more data
/// after it throws bd::CheckError naming the byte offset.
JournalReadResult read_journal_records(const std::string& path);

}  // namespace bd::util
