/// Checkpoint/restart: serialization primitives, the checked-file
/// container (CRC, truncation, atomic rename), and full Simulation
/// save/restore including solver learned state.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "baselines/heuristic.hpp"
#include "baselines/two_phase.hpp"
#include "core/checkpoint.hpp"
#include "core/fleet.hpp"
#include "core/predictive.hpp"
#include "core/simulation.hpp"
#include "oracles/crc32_bytewise.hpp"
#include "quad/partition_set.hpp"
#include "simt/device.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"
#include "util/faultinject.hpp"
#include "util/serialize.hpp"

namespace bd {
namespace {

TEST(Serialize, WriterReaderRoundTrip) {
  util::BinaryWriter out;
  out.write_u8(7);
  out.write_u32(0xDEADBEEFu);
  out.write_u64(1ull << 60);
  out.write_i64(-42);
  out.write_f64(3.14159);
  out.write_bool(true);
  out.write_string("predictive-rp");
  const std::vector<double> values{1.0, -2.5, 1e300, 0.0};
  out.write_f64_span(values);

  util::BinaryReader in(out.payload());
  EXPECT_EQ(in.read_u8(), 7);
  EXPECT_EQ(in.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.read_u64(), 1ull << 60);
  EXPECT_EQ(in.read_i64(), -42);
  EXPECT_DOUBLE_EQ(in.read_f64(), 3.14159);
  EXPECT_TRUE(in.read_bool());
  EXPECT_EQ(in.read_string(), "predictive-rp");
  EXPECT_EQ(in.read_f64_vector(), values);
  EXPECT_TRUE(in.done());
}

TEST(Serialize, ReaderOverrunThrows) {
  util::BinaryWriter out;
  out.write_u32(1);
  util::BinaryReader in(out.payload());
  in.read_u32();
  EXPECT_THROW(in.read_u32(), bd::CheckError);
}

TEST(Serialize, ReadIntoRequiresExactLength) {
  util::BinaryWriter out;
  out.write_f64_span(std::vector<double>{1.0, 2.0, 3.0});
  util::BinaryReader in(out.payload());
  std::vector<double> wrong(4);
  EXPECT_THROW(in.read_f64_into(wrong), bd::CheckError);
}

TEST(Serialize, PartitionSetNestedRoundTrip) {
  // Wire format: u64 entry count, then one length-prefixed f64 span per
  // entry. An aliased row is written once per entry that binds it.
  const std::vector<double> a{0.0, 1.0, 2.0};
  const std::vector<double> empty;
  const std::vector<double> c{5.5};
  quad::PartitionSet set;
  set.reset(4);
  const std::size_t row_a = set.add_row(a);
  set.bind(0, row_a);
  set.bind(1, set.add_row(empty));
  set.bind(2, set.add_row(c));
  set.bind(3, row_a);
  util::BinaryWriter out;
  quad::write_partition_set_nested(out, set);

  util::BinaryWriter expected;
  expected.write_u64(4);
  for (const auto* row : {&a, &empty, &c, &a}) expected.write_f64_span(*row);
  ASSERT_TRUE(std::ranges::equal(out.payload(), expected.payload()));

  util::BinaryReader in(out.payload());
  quad::PartitionSet back;
  quad::read_partition_set_nested(in, back);
  EXPECT_TRUE(in.done());
  ASSERT_EQ(back.entries(), 4u);
  for (std::size_t e = 0; e < 4; ++e) {
    EXPECT_TRUE(std::ranges::equal(back.at(e), set.at(e))) << "entry " << e;
  }
}

TEST(Serialize, Crc32MatchesKnownVector) {
  // CRC-32("123456789") = 0xCBF43926 — the standard check value.
  const char* digits = "123456789";
  const auto bytes = std::as_bytes(std::span<const char>(digits, 9));
  EXPECT_EQ(util::crc32(bytes), 0xCBF43926u);
}

TEST(Serialize, Crc32MatchesBytewiseOracle) {
  // Every length 0-300 at every start offset 0-7 (so the 8-byte slices
  // meet every alignment and every tail length), seeded and chained.
  alignas(8) std::array<std::byte, 308> buffer{};
  for (std::size_t i = 0; i < buffer.size(); ++i) {
    buffer[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::span<const std::byte> data(buffer.data() + offset, len);
      ASSERT_EQ(util::crc32(data), util::oracle::crc32_bytewise(data))
          << "offset " << offset << " length " << len;
      ASSERT_EQ(util::crc32(data, 0xDEADBEEFu),
                util::oracle::crc32_bytewise(data, 0xDEADBEEFu))
          << "offset " << offset << " length " << len;
      const std::size_t cut = len / 3;
      const std::uint32_t head = util::crc32(data.first(cut));
      ASSERT_EQ(util::crc32(data.subspan(cut), head),
                util::oracle::crc32_bytewise(data))
          << "offset " << offset << " length " << len << " cut " << cut;
    }
  }
}

TEST(Serialize, F64VectorLengthOverflowThrowsCheckError) {
  // n * 8 wraps to 0 for n = 2^61: the length check must divide.
  util::BinaryWriter out;
  out.write_u64(1ull << 61);
  out.write_f64(1.0);
  util::BinaryReader in(out.payload());
  EXPECT_THROW(in.read_f64_vector(), bd::CheckError);
}

TEST(Serialize, PartitionSetCountOverflowThrowsCheckError) {
  // A corrupt entry count must be refused before anything is sized.
  util::BinaryWriter out;
  out.write_u64(1ull << 61);
  out.write_f64_span(std::vector<double>{1.0});
  util::BinaryReader in(out.payload());
  quad::PartitionSet set;
  EXPECT_THROW(quad::read_partition_set_nested(in, set), bd::CheckError);
}

TEST(Serialize, PredictiveFieldShapeOverflowThrowsCheckError) {
  // 2^33 points x 2^31 subregions wraps to an empty field; the solver
  // must refuse the shape, not restore an inconsistent field.
  util::BinaryWriter out;
  out.write_bool(false);  // no predictor
  out.write_u64(0);       // no previous partitions
  out.write_u64(1ull << 33);
  out.write_u64(1ull << 31);
  out.write_f64_span(std::vector<double>{});
  out.write_u64(0);
  out.write_f64(0.0);
  out.write_f64_span(std::vector<double>{});
  out.write_u64(0);
  util::BinaryReader in(out.payload());
  core::PredictiveSolver solver(simt::tesla_k40());
  EXPECT_THROW(solver.load_state(in), bd::CheckError);
}

class CheckedFileTest : public ::testing::Test {
 protected:
  std::string path_ = testing::unique_temp_path("checked_file.bin");
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
    util::faultinject::clear();
  }

  static void encode(util::BinaryWriter& out) {
    out.write_string("some payload");
    out.write_u64(123456);
  }

  std::vector<std::byte> payload() const {
    util::BinaryWriter out;
    encode(out);
    return {out.payload().begin(), out.payload().end()};
  }

  void expect_no_staging_files() const {
    const auto dir = std::filesystem::path(path_).parent_path();
    const auto stem = std::filesystem::path(path_).filename().string();
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(name.find(stem + ".tmp"), std::string::npos)
          << "stray staging file: " << name;
    }
  }
};

constexpr std::uint32_t kMagic = 0x54534554u;  // "TEST"

TEST_F(CheckedFileTest, RoundTrip) {
  util::write_checked_file(path_, kMagic, 3, encode);
  std::uint32_t version = 0;
  EXPECT_EQ(util::read_checked_file(path_, kMagic, version), payload());
  EXPECT_EQ(version, 3u);
}

TEST_F(CheckedFileTest, WrongMagicRejected) {
  util::write_checked_file(path_, kMagic, 1, encode);
  std::uint32_t version = 0;
  EXPECT_THROW(util::read_checked_file(path_, kMagic + 1, version),
               bd::CheckError);
}

TEST_F(CheckedFileTest, TruncationDetected) {
  util::write_checked_file(path_, kMagic, 1, encode);
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 5);
  std::uint32_t version = 0;
  EXPECT_THROW(util::read_checked_file(path_, kMagic, version),
               bd::CheckError);
}

TEST_F(CheckedFileTest, BitFlipDetectedByCrc) {
  util::write_checked_file(path_, kMagic, 1, encode);
  {
    std::fstream file(path_, std::ios::in | std::ios::out |
                                 std::ios::binary);
    file.seekp(-1, std::ios::end);  // flip a bit in the last payload byte
    const auto pos = file.tellp();
    file.seekg(pos);
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(pos);
    file.put(byte);
  }
  std::uint32_t version = 0;
  EXPECT_THROW(util::read_checked_file(path_, kMagic, version),
               bd::CheckError);
}

TEST_F(CheckedFileTest, TruncationFaultLeavesPreviousSnapshotIntact) {
  // First write succeeds; the injected mid-write crash on the second write
  // must throw *and* leave the original file fully readable (the atomic
  // tmp+rename contract).
  util::write_checked_file(path_, kMagic, 1, encode);

  util::faultinject::install("checkpoint_truncate");
  EXPECT_THROW(util::write_checked_file(
                   path_, kMagic, 1,
                   [](util::BinaryWriter& out) {
                     out.write_string("newer payload that must never land");
                   }),
               bd::CheckError);
  util::faultinject::clear();

  std::uint32_t version = 0;
  EXPECT_EQ(util::read_checked_file(path_, kMagic, version), payload());
  expect_no_staging_files();
}

TEST_F(CheckedFileTest, StreamedFileEqualsInMemoryEncoding) {
  // Spans large enough to bypass the streaming buffer, between small
  // fields: the file must be the header followed by exactly the bytes an
  // in-memory writer produces.
  std::vector<double> big(20000);
  std::vector<double> mid(9000);
  std::vector<std::byte> block(70000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0.5 * i - 3.0;
  for (std::size_t i = 0; i < mid.size(); ++i) mid[i] = 1.0 / (i + 1.0);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block[i] = static_cast<std::byte>(i * 7);
  }
  const auto encode_all = [&](util::BinaryWriter& out) {
    out.write_u32(17);
    out.write_f64_span(big);
    out.write_string("between");
    out.write_f64_span(mid);
    out.write_bytes(block);
    out.write_u8(1);
  };
  util::BinaryWriter memory;
  encode_all(memory);
  const std::span<const std::byte> expected = memory.payload();

  EXPECT_EQ(util::write_checked_file(path_, kMagic, 5, encode_all),
            expected.size());
  std::ifstream in(path_, std::ios::binary);
  const std::vector<char> file((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
  ASSERT_EQ(file.size(), 20 + expected.size());
  util::BinaryReader header(
      std::as_bytes(std::span<const char>(file.data(), 20)));
  EXPECT_EQ(header.read_u32(), kMagic);
  EXPECT_EQ(header.read_u32(), 5u);
  EXPECT_EQ(header.read_u64(), expected.size());
  EXPECT_EQ(header.read_u32(), util::oracle::crc32_bytewise(expected));
  EXPECT_EQ(std::memcmp(file.data() + 20, expected.data(), expected.size()),
            0);
  std::uint32_t version = 0;
  const std::vector<std::byte> payload =
      util::read_checked_file(path_, kMagic, version);
  EXPECT_TRUE(std::ranges::equal(payload, expected));
}

TEST_F(CheckedFileTest, EncoderThrowLeavesPreviousSnapshotIntact) {
  util::write_checked_file(path_, kMagic, 1, encode);
  const std::vector<double> big(50000, 2.0);
  EXPECT_THROW(util::write_checked_file(path_, kMagic, 1,
                                        [&](util::BinaryWriter& out) {
                                          out.write_f64_span(big);
                                          BD_CHECK_MSG(false, "encoder gave up");
                                        }),
               bd::CheckError);
  std::uint32_t version = 0;
  EXPECT_EQ(util::read_checked_file(path_, kMagic, version), payload());
  expect_no_staging_files();
}

TEST_F(CheckedFileTest, ConcurrentWritersToSamePathNeverCorrupt) {
  // Two threads hammering the SAME destination path: per-writer tmp names
  // (pid + sequence) keep the writes from clobbering each other's staging
  // file, and the atomic rename guarantees the destination is always one
  // writer's complete, CRC-valid snapshot — never a torn mix.
  const auto encode_tag = [](util::BinaryWriter& out, std::uint64_t tag) {
    out.write_string("writer payload");
    out.write_u64(tag);
  };
  const auto encode = [&](std::uint64_t tag) {
    util::BinaryWriter out;
    encode_tag(out, tag);
    return std::vector<std::byte>(out.payload().begin(),
                                  out.payload().end());
  };
  constexpr int kRounds = 25;
  auto writer = [&](std::uint64_t tag) {
    for (int k = 0; k < kRounds; ++k) {
      util::write_checked_file(
          path_, kMagic, 1,
          [&](util::BinaryWriter& out) { encode_tag(out, tag); });
    }
  };
  std::thread a(writer, 1);
  std::thread b(writer, 2);
  a.join();
  b.join();

  std::uint32_t version = 0;
  const std::vector<std::byte> final =
      util::read_checked_file(path_, kMagic, version);
  EXPECT_TRUE(final == encode(1) || final == encode(2));
  expect_no_staging_files();
}

// ---------------------------------------------------------------------------
// Append-only CRC-framed journal (write-ahead log)
// ---------------------------------------------------------------------------

/// Corruption matrix for the journal framing, mirroring the checked-file
/// matrix above: round trip, torn tail (tolerated), mid-file damage
/// (loud failure).
class JournalFrameTest : public ::testing::Test {
 protected:
  std::string path_ = testing::unique_temp_path("journal.wal");
  void TearDown() override { std::remove(path_.c_str()); }

  static std::vector<std::byte> record(std::uint64_t tag) {
    util::BinaryWriter out;
    out.write_string("journal record");
    out.write_u64(tag);
    return {out.payload().begin(), out.payload().end()};
  }

  void flip_byte_at(std::int64_t offset_from_start) {
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    file.seekg(offset_from_start);
    char byte = 0;
    file.get(byte);
    byte = static_cast<char>(byte ^ 0x01);
    file.seekp(offset_from_start);
    file.put(byte);
  }
};

TEST_F(JournalFrameTest, AppendReadRoundTrip) {
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  util::append_journal_record(path_, record(3));
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_FALSE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 3u);
  for (std::uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(result.records[i], record(i + 1));
  }
}

TEST_F(JournalFrameTest, MissingFileYieldsNoRecords) {
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.records.empty());
  EXPECT_FALSE(result.truncated_tail);
}

TEST_F(JournalFrameTest, TruncatedTailHeaderTolerated) {
  // Crash after writing only part of the last frame *header*: the intact
  // prefix records survive and the tail is flagged, not fatal.
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  const auto full = std::filesystem::file_size(path_);
  const auto last = record(2).size() + 12;  // frame header is 12 bytes
  std::filesystem::resize_file(path_, full - last + 5);
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], record(1));
}

TEST_F(JournalFrameTest, TruncatedTailPayloadTolerated) {
  // Crash mid-payload of the last frame.
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  const auto full = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full - 3);
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0], record(1));
}

TEST_F(JournalFrameTest, GarbageTailFrameTolerated) {
  // A torn write can land a full-length frame of garbage bytes: the CRC
  // catches it, and because it is the *last* frame it is tolerated.
  util::append_journal_record(path_, record(1));
  util::append_journal_record(path_, record(2));
  const auto full = std::filesystem::file_size(path_);
  flip_byte_at(static_cast<std::int64_t>(full) - 1);
  const util::JournalReadResult result = util::read_journal_records(path_);
  EXPECT_TRUE(result.truncated_tail);
  ASSERT_EQ(result.records.size(), 1u);
}

TEST_F(JournalFrameTest, MidFileCorruptionThrows) {
  // The same bit flip in a frame *followed by more records* is real
  // corruption, not a torn append — it must fail loudly.
  util::append_journal_record(path_, record(1));
  const auto first = std::filesystem::file_size(path_);
  util::append_journal_record(path_, record(2));
  flip_byte_at(static_cast<std::int64_t>(first) - 1);
  EXPECT_THROW(util::read_journal_records(path_), bd::CheckError);
}

TEST_F(JournalFrameTest, BadMarkerThrows) {
  util::append_journal_record(path_, record(1));
  flip_byte_at(0);
  EXPECT_THROW(util::read_journal_records(path_), bd::CheckError);
}

TEST_F(JournalFrameTest, EmptyPayloadRecordRoundTrips) {
  util::append_journal_record(path_, {});
  util::append_journal_record(path_, record(9));
  const util::JournalReadResult result = util::read_journal_records(path_);
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_TRUE(result.records[0].empty());
  EXPECT_EQ(result.records[1], record(9));
}

// ---------------------------------------------------------------------------
// Full-simulation checkpointing
// ---------------------------------------------------------------------------

core::SimConfig sim_config() {
  core::SimConfig config;
  config.particles = 5000;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;  // exercise the push so phase space evolves
  return config;
}

std::unique_ptr<core::Simulation> make_sim(bool with_fallbacks = true) {
  auto sim = std::make_unique<core::Simulation>(
      sim_config(),
      std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
  if (with_fallbacks) {
    sim->add_fallback_solver(
        std::make_unique<baselines::HeuristicSolver>(simt::tesla_k40()));
    sim->add_fallback_solver(
        std::make_unique<baselines::TwoPhaseSolver>(simt::tesla_k40()));
  }
  return sim;
}

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path_ = testing::unique_temp_path("checkpoint.ckpt");
  void TearDown() override {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
};

TEST_F(CheckpointTest, FreshObjectRestoreMatchesContinuedRun) {
  // Run A: 2 + 2 steps straight through. Run B: restore a fresh simulation
  // from A's step-2 snapshot, then 2 steps. Physics outputs must agree
  // bit-for-bit (metrics are address-sensitive and are checked in
  // test_determinism with an in-place restore).
  auto a = make_sim();
  a->initialize();
  a->run(2);
  core::save_checkpoint(*a, path_);
  const auto a_stats = a->run(2);

  auto b = make_sim();
  core::restore_checkpoint(*b, path_);
  EXPECT_EQ(b->current_step(), 2);
  const auto b_stats = b->run(2);

  ASSERT_EQ(a_stats.size(), b_stats.size());
  for (std::size_t k = 0; k < a_stats.size(); ++k) {
    const auto av = a_stats[k].longitudinal.values.data();
    const auto bv = b_stats[k].longitudinal.values.data();
    ASSERT_EQ(av.size(), bv.size());
    for (std::size_t i = 0; i < av.size(); ++i) {
      ASSERT_EQ(av[i], bv[i]) << "step " << k << " node " << i;
    }
    EXPECT_EQ(a_stats[k].longitudinal.fallback_items,
              b_stats[k].longitudinal.fallback_items);
    EXPECT_EQ(a_stats[k].longitudinal.kernel_intervals,
              b_stats[k].longitudinal.kernel_intervals);
  }
  // Particle phase space identical after the resumed steps.
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(a->particles().s()[i], b->particles().s()[i]);
    ASSERT_EQ(a->particles().ps()[i], b->particles().ps()[i]);
  }
}

TEST_F(CheckpointTest, RestoreRejectsConfigMismatch) {
  auto a = make_sim();
  a->initialize();
  a->run(1);
  core::save_checkpoint(*a, path_);

  core::SimConfig other = sim_config();
  other.tolerance = 1e-4;
  core::Simulation b(other,
                     std::make_unique<core::PredictiveSolver>(
                         simt::tesla_k40()));
  EXPECT_THROW(core::restore_checkpoint(b, path_), bd::CheckError);
}

TEST_F(CheckpointTest, RestoreRejectsSolverLineupMismatch) {
  auto a = make_sim(/*with_fallbacks=*/true);
  a->initialize();
  a->run(1);
  core::save_checkpoint(*a, path_);

  auto b = make_sim(/*with_fallbacks=*/false);
  EXPECT_THROW(core::restore_checkpoint(*b, path_), bd::CheckError);

  core::Simulation c(sim_config(), std::make_unique<baselines::TwoPhaseSolver>(
                                       simt::tesla_k40()));
  EXPECT_THROW(core::restore_checkpoint(c, path_), bd::CheckError);
}

TEST_F(CheckpointTest, RestoreRejectsMissingFile) {
  auto sim = make_sim();
  const std::string missing = testing::unique_temp_path("no_such.ckpt");
  EXPECT_THROW(core::restore_checkpoint(*sim, missing), bd::CheckError);
}

TEST_F(CheckpointTest, ConcurrentSimsCheckpointIntoSameDirectory) {
  // Two simulations saving side by side into one directory (the fleet
  // spool shape): before tmp names carried a per-process/per-write suffix
  // both writers staged to "<path>.tmp" and could rename each other's
  // half-written file into place. Each checkpoint must restore to its own
  // simulation afterwards.
  const std::string path_a = testing::unique_temp_path("a.ckpt");
  const std::string path_b = testing::unique_temp_path("b.ckpt");

  auto sim_a = make_sim();
  auto sim_b = make_sim();
  sim_a->initialize();
  sim_b->initialize();
  sim_a->run(2);
  sim_b->run(3);

  constexpr int kRounds = 10;
  std::thread ta([&] {
    for (int k = 0; k < kRounds; ++k) core::save_checkpoint(*sim_a, path_a);
  });
  std::thread tb([&] {
    for (int k = 0; k < kRounds; ++k) core::save_checkpoint(*sim_b, path_b);
  });
  ta.join();
  tb.join();

  auto restored_a = make_sim();
  auto restored_b = make_sim();
  core::restore_checkpoint(*restored_a, path_a);
  core::restore_checkpoint(*restored_b, path_b);
  EXPECT_EQ(restored_a->current_step(), 2);
  EXPECT_EQ(restored_b->current_step(), 3);
  for (std::size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(restored_a->particles().s()[i], sim_a->particles().s()[i]);
    ASSERT_EQ(restored_b->particles().s()[i], sim_b->particles().s()[i]);
  }
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_F(CheckpointTest, PeriodicOverwriteKeepsLatestSnapshot) {
  auto sim = make_sim();
  sim->initialize();
  for (int k = 0; k < 3; ++k) {
    sim->run(1);
    core::save_checkpoint(*sim, path_);  // overwrite in place each step
  }
  auto restored = make_sim();
  core::restore_checkpoint(*restored, path_);
  EXPECT_EQ(restored->current_step(), 3);
}

// ---------------------------------------------------------------------------
// Golden bytes: the on-disk format, pinned
// ---------------------------------------------------------------------------
//
// Hash and length of a checkpoint and of a fleet journal from small fixed
// runs. Physics is bitwise deterministic at any thread count and under
// scalar or SIMD dispatch, so these files are too; any change to the
// encoding, the framing or the CRC shows here. The pinned values were
// computed before the streaming checked-file writer landed and must not be
// edited to follow a format change: bump the format version instead.

/// FNV-1a 64 of a whole file, independent of util::crc32.
std::pair<std::uint64_t, std::size_t> fnv1a_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                std::istreambuf_iterator<char>());
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return {h, bytes.size()};
}

core::SimConfig golden_config(std::size_t particles, std::uint64_t seed) {
  core::SimConfig config;
  config.particles = particles;
  config.nx = 16;
  config.ny = 16;
  config.tolerance = 1e-5;
  config.rigid = false;
  config.seed = seed;
  return config;
}

TEST(SerializeGolden, CheckpointFileBytes) {
  const std::string path = testing::unique_temp_path("golden.ckpt");
  core::Simulation sim(golden_config(4000, 20170801),
                       std::make_unique<core::PredictiveSolver>(
                           simt::tesla_k40()));
  sim.initialize();
  sim.run(2);
  core::save_checkpoint(sim, path);
  const auto [hash, size] = fnv1a_file(path);
  std::remove(path.c_str());
  EXPECT_EQ(size, 226645u);
  EXPECT_EQ(hash, 0x61c26f7579b8a741ull) << std::hex << hash;
}

TEST(SerializeGolden, FleetJournalBytes) {
  // Jobs run one after the other so the journal's record order does not
  // depend on how the pool interleaves them.
  namespace fs = std::filesystem;
  const std::string dir = testing::unique_temp_path("golden_spool");
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    core::FleetOptions options;
    options.spool_dir = dir;
    options.quantum_steps = 1;
    options.checkpoint_every_quanta = 1;
    core::SimulationFleet fleet(options);
    for (std::uint64_t j = 0; j < 2; ++j) {
      core::FleetJobSpec spec;
      spec.name = "golden" + std::to_string(j);
      spec.factory = [j] {
        return std::make_unique<core::Simulation>(
            golden_config(2000, 11 + j),
            std::make_unique<core::PredictiveSolver>(simt::tesla_k40()));
      };
      spec.target_steps = 2;
      spec.fault_spec = "none";
      const auto id = fleet.submit(std::move(spec));
      ASSERT_EQ(fleet.wait(id).state, core::FleetJobState::kDone);
    }
  }
  const auto [hash, size] = fnv1a_file(dir + "/fleet.journal");
  fs::remove_all(dir);
  EXPECT_EQ(size, 345u);
  EXPECT_EQ(hash, 0x11b3a3f6e8a3a860ull) << std::hex << hash;
}

}  // namespace
}  // namespace bd
