/// Tests for access-pattern persistence.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/pattern_io.hpp"
#include "test_helpers.hpp"
#include "util/check.hpp"

namespace bd::core {
namespace {

class PatternIoTest : public ::testing::Test {
 protected:
  std::string path_ = testing::unique_temp_path("patterns.csv");
  void TearDown() override { std::remove(path_.c_str()); }
};

TEST_F(PatternIoTest, RoundTrip) {
  PatternField field(5, 3);
  for (std::size_t p = 0; p < 5; ++p) {
    auto row = field.at(p);
    for (std::size_t j = 0; j < 3; ++j) {
      row[j] = static_cast<double>(p) + 0.25 * static_cast<double>(j);
    }
  }
  save_pattern_field(field, path_);
  const PatternField loaded = load_pattern_field(path_);
  ASSERT_EQ(loaded.points(), 5u);
  ASSERT_EQ(loaded.subregions(), 3u);
  for (std::size_t p = 0; p < 5; ++p) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_DOUBLE_EQ(loaded.at(p)[j], field.at(p)[j]);
    }
  }
}

TEST_F(PatternIoTest, EmptyFieldRoundTrips) {
  save_pattern_field(PatternField(0, 4), path_);
  const PatternField loaded = load_pattern_field(path_);
  EXPECT_EQ(loaded.points(), 0u);
  EXPECT_EQ(loaded.subregions(), 4u);
}

TEST_F(PatternIoTest, MissingFileThrows) {
  EXPECT_THROW(load_pattern_field("/nonexistent/patterns.csv"),
               bd::CheckError);
}

TEST_F(PatternIoTest, MalformedRowThrows) {
  {
    std::ofstream out(path_);
    out << "point,n0,n1\n0,1.0\n";  // short row
  }
  EXPECT_THROW(load_pattern_field(path_), bd::CheckError);
}

TEST_F(PatternIoTest, NonNumericCellThrowsWithContext) {
  {
    std::ofstream out(path_);
    out << "point,n0,n1\n0,1.0,2.0\n1,oops,2.0\n";
  }
  try {
    load_pattern_field(path_);
    FAIL() << "expected rejection of non-numeric cell";
  } catch (const bd::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("row 1"), std::string::npos) << what;
    EXPECT_NE(what.find("column 1"), std::string::npos) << what;
    EXPECT_NE(what.find("oops"), std::string::npos) << what;
  }
}

TEST_F(PatternIoTest, TrailingGarbageInCellThrows) {
  {
    std::ofstream out(path_);
    out << "point,n0\n0,1.5x\n";  // std::stod would accept this silently
  }
  EXPECT_THROW(load_pattern_field(path_), bd::CheckError);
}

TEST_F(PatternIoTest, NanCountThrows) {
  {
    std::ofstream out(path_);
    out << "point,n0,n1\n0,nan,2.0\n";
  }
  EXPECT_THROW(load_pattern_field(path_), bd::CheckError);
}

TEST_F(PatternIoTest, NegativeCountThrows) {
  {
    std::ofstream out(path_);
    out << "point,n0,n1\n0,1.0,-3.0\n";
  }
  EXPECT_THROW(load_pattern_field(path_), bd::CheckError);
}

TEST_F(PatternIoTest, TruncatedMidRowThrows) {
  {
    std::ofstream out(path_);
    out << "point,n0,n1\n0,1.0,2.0\n1,4.0";  // file cut mid-row
  }
  EXPECT_THROW(load_pattern_field(path_), bd::CheckError);
}

TEST_F(PatternIoTest, EmptyFileThrows) {
  { std::ofstream out(path_); }
  EXPECT_THROW(load_pattern_field(path_), bd::CheckError);
}

}  // namespace
}  // namespace bd::core
