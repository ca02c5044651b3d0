// Unit tests for the foundation library (src/common).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/array3d.hpp"
#include "common/assert.hpp"
#include "common/cli.hpp"
#include "common/mapped_allocator.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

namespace fvf {
namespace {

// --- Extents3 / Array3 ------------------------------------------------------

TEST(Extents3Test, LinearIndexIsXInnermost) {
  const Extents3 ext{4, 3, 2};
  EXPECT_EQ(ext.linear(0, 0, 0), 0);
  EXPECT_EQ(ext.linear(1, 0, 0), 1);
  EXPECT_EQ(ext.linear(0, 1, 0), 4);
  EXPECT_EQ(ext.linear(0, 0, 1), 12);
  EXPECT_EQ(ext.linear(3, 2, 1), 23);
}

TEST(Extents3Test, CellCount) {
  EXPECT_EQ((Extents3{4, 3, 2}).cell_count(), 24);
  EXPECT_EQ((Extents3{1, 1, 1}).cell_count(), 1);
  EXPECT_EQ((Extents3{750, 994, 246}).cell_count(), 183'393'000);
}

TEST(Extents3Test, CoordRoundTrip) {
  const Extents3 ext{5, 7, 3};
  for (i64 i = 0; i < ext.cell_count(); ++i) {
    const Coord3 c = ext.coord(i);
    EXPECT_EQ(ext.linear(c.x, c.y, c.z), i);
  }
}

TEST(Extents3Test, Contains) {
  const Extents3 ext{2, 2, 2};
  EXPECT_TRUE(ext.contains(0, 0, 0));
  EXPECT_TRUE(ext.contains(1, 1, 1));
  EXPECT_FALSE(ext.contains(-1, 0, 0));
  EXPECT_FALSE(ext.contains(2, 0, 0));
  EXPECT_FALSE(ext.contains(0, 2, 0));
  EXPECT_FALSE(ext.contains(0, 0, 2));
}

TEST(Array3Test, ValueInitialized) {
  Array3<f32> a(3, 3, 3);
  for (i64 i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], 0.0f);
  }
}

TEST(Array3Test, FillAndIndex) {
  Array3<i32> a(Extents3{2, 3, 4}, 7);
  EXPECT_EQ(a(1, 2, 3), 7);
  a(1, 2, 3) = 42;
  EXPECT_EQ(a(1, 2, 3), 42);
  EXPECT_EQ(a[a.extents().linear(1, 2, 3)], 42);
}

TEST(Array3Test, SpanSharesStorage) {
  Array3<f64> a(2, 2, 2);
  Span3<f64> s = a.span();
  s(1, 1, 1) = 3.5;
  EXPECT_EQ(a(1, 1, 1), 3.5);
}

// --- RunningStats -----------------------------------------------------------

TEST(RunningStatsTest, MeanAndStddev) {
  RunningStats stats;
  for (const f64 v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    stats.add(v);
  }
  EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
  EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(stats.min(), 2.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), 8u);
}

TEST(RunningStatsTest, SingleSampleHasZeroVariance) {
  RunningStats stats;
  stats.add(3.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  RunningStats a, b, all;
  Xoshiro256 rng(11);
  for (int i = 0; i < 100; ++i) {
    const f64 v = rng.uniform(-5.0, 5.0);
    (i < 40 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
  EXPECT_EQ(a.count(), all.count());
}

TEST(RunningStatsTest, MergeEmptyIntoNonemptyIsIdentity) {
  RunningStats stats;
  for (const f64 v : {1.0, 4.0, 9.0}) {
    stats.add(v);
  }
  const RunningStats empty;
  stats.merge(empty);
  EXPECT_DOUBLE_EQ(stats.mean(), 14.0 / 3.0);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 9.0);
  EXPECT_EQ(stats.count(), 3u);
}

TEST(RunningStatsTest, MergeNonemptyIntoEmptyCopies) {
  RunningStats src;
  for (const f64 v : {2.0, 6.0}) {
    src.add(v);
  }
  RunningStats stats;
  stats.merge(src);
  EXPECT_DOUBLE_EQ(stats.mean(), src.mean());
  EXPECT_DOUBLE_EQ(stats.variance(), src.variance());
  EXPECT_EQ(stats.min(), src.min());
  EXPECT_EQ(stats.max(), src.max());
  EXPECT_EQ(stats.count(), src.count());
}

TEST(RunningStatsTest, MergeSplitEqualsWholeAtEverySplitPoint) {
  std::vector<f64> values;
  Xoshiro256 rng(7);
  for (int i = 0; i < 25; ++i) {
    values.push_back(rng.uniform(-100.0, 100.0));
  }
  RunningStats whole;
  for (const f64 v : values) {
    whole.add(v);
  }
  // Includes the degenerate splits 0|25 and 25|0.
  for (usize split = 0; split <= values.size(); ++split) {
    RunningStats left, right;
    for (usize i = 0; i < values.size(); ++i) {
      (i < split ? left : right).add(values[i]);
    }
    left.merge(right);
    EXPECT_NEAR(left.mean(), whole.mean(), 1e-10) << "split " << split;
    EXPECT_NEAR(left.variance(), whole.variance(), 1e-8) << "split " << split;
    EXPECT_EQ(left.min(), whole.min()) << "split " << split;
    EXPECT_EQ(left.max(), whole.max()) << "split " << split;
    EXPECT_EQ(left.count(), whole.count()) << "split " << split;
  }
}

TEST(StatsTest, Percentile) {
  std::vector<f64> v{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 2.0);
}

TEST(StatsTest, PercentileEdges) {
  // A single sample is every percentile.
  const std::vector<f64> one{42.0};
  EXPECT_DOUBLE_EQ(percentile(one, 0.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 50.0), 42.0);
  EXPECT_DOUBLE_EQ(percentile(one, 100.0), 42.0);
  // p = 0 / p = 100 hit the extremes exactly, regardless of input order.
  const std::vector<f64> v{9.0, -3.0, 5.0, 1.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), -3.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 9.0);
}

TEST(StatsTest, CompareArraysFindsWorstElement) {
  std::vector<f32> a{1.0f, 2.0f, 3.0f};
  std::vector<f32> b{1.0f, 2.5f, 3.0f};
  const ArrayDiff diff = compare_arrays(std::span<const f32>(a),
                                        std::span<const f32>(b));
  EXPECT_FLOAT_EQ(static_cast<f32>(diff.max_abs), 0.5f);
  EXPECT_EQ(diff.argmax_abs, 1);
}

// --- RNG --------------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.next() == b.next());
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const f64 v = rng.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, NormalHasReasonableMoments) {
  Xoshiro256 rng(99);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(rng.normal());
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, NormalIsBoxMullerOfItsTwoUniforms) {
  Xoshiro256 whole(17);
  Xoshiro256 parts(17);
  for (int i = 0; i < 1000; ++i) {
    const f64 u1 = parts.normal_uniform();
    ASSERT_GT(u1, 0.0);
    ASSERT_EQ(whole.normal(), Xoshiro256::box_muller(u1, parts.uniform()));
  }
  EXPECT_EQ(whole.next(), parts.next());
}

// --- CLI --------------------------------------------------------------------

TEST(CliTest, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--nx", "32", "--verbose", "--ny=16", "pos"};
  CliParser cli(6, argv);
  EXPECT_EQ(cli.get_int("nx", 0), 32);
  EXPECT_EQ(cli.get_int("ny", 0), 16);
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_TRUE(cli.get_bool("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "pos");
}

TEST(CliTest, Fallbacks) {
  const char* argv[] = {"prog"};
  CliParser cli(1, argv);
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_DOUBLE_EQ(cli.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cli.get_string("missing", "x"), "x");
  EXPECT_FALSE(cli.get_bool("missing", false));
}

TEST(CliTest, ExplicitBooleanValues) {
  const char* argv[] = {"prog", "--a=true", "--b=false", "--c=1", "--d=off"};
  CliParser cli(5, argv);
  EXPECT_TRUE(cli.get_bool("a", false));
  EXPECT_FALSE(cli.get_bool("b", true));
  EXPECT_TRUE(cli.get_bool("c", false));
  EXPECT_FALSE(cli.get_bool("d", true));
}

TEST(CliTest, NonNumericIntegerValueThrows) {
  const char* argv[] = {"prog", "--threads=abc"};
  CliParser cli(2, argv);
  // Must be a catchable invalid_argument (raw std::stoll would escape as
  // an uncaught exception and abort), and must name the option.
  try {
    (void)cli.get_int("threads", 1);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()),
              "option --threads has non-numeric value 'abc'");
  }
}

TEST(CliTest, TrailingGarbageIsRejectedNotTruncated) {
  const char* argv[] = {"prog", "--iterations=12abc", "--fault-rate=0.1x"};
  CliParser cli(3, argv);
  EXPECT_THROW((void)cli.get_int("iterations", 1), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("fault-rate", 0.0),
               std::invalid_argument);
}

TEST(CliTest, ValidNumericFormsParse) {
  const char* argv[] = {"prog", "--a=-7", "--b=1e-3", "--c=2.5", "--d=+3"};
  CliParser cli(5, argv);
  EXPECT_EQ(cli.get_int("a", 0), -7);
  EXPECT_DOUBLE_EQ(cli.get_double("b", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(cli.get_double("c", 0.0), 2.5);
  EXPECT_EQ(cli.get_int("d", 0), 3);
}

TEST(CliTest, OutOfRangeValuesThrow) {
  const char* argv[] = {"prog", "--big=99999999999999999999999999",
                        "--huge=1e999"};
  CliParser cli(3, argv);
  EXPECT_THROW((void)cli.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("huge", 0.0), std::invalid_argument);
}

// --- TextTable / formatting -------------------------------------------------

TEST(TableTest, RendersAllCells) {
  TextTable t({"a", "b"});
  t.add_row({"1", "2"});
  t.add_row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("333"), std::string::npos);
  EXPECT_NE(out.find(" a "), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(TableTest, CsvEscapesCommas) {
  TextTable t({"x"}, {Align::Left});
  t.add_row({"a,b"});
  EXPECT_NE(t.render_csv().find("\"a,b\""), std::string::npos);
}

TEST(TableTest, RowArityIsEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(FormatTest, Seconds) { EXPECT_EQ(format_seconds(0.08234), "0.0823"); }

TEST(FormatTest, CountWithSeparators) {
  EXPECT_EQ(format_count(0), "0");
  EXPECT_EQ(format_count(999), "999");
  EXPECT_EQ(format_count(1000), "1,000");
  EXPECT_EQ(format_count(183393000), "183,393,000");
  EXPECT_EQ(format_count(-1234567), "-1,234,567");
}

TEST(FormatTest, Speedup) { EXPECT_EQ(format_speedup(204.04), "204.0x"); }

TEST(FormatTest, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(48 * 1024), "48.0 KiB");
}

// --- Contracts --------------------------------------------------------------

TEST(ContractTest, RequireThrowsWithMessage) {
  try {
    FVF_REQUIRE_MSG(1 == 2, "math is broken: " << 42);
    FAIL() << "should have thrown";
  } catch (const ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("math is broken: 42"),
              std::string::npos);
  }
}

// --- MappedAllocator --------------------------------------------------------

TEST(MappedAllocatorTest, VectorStorageIsPageAlignedAndUsable) {
  std::vector<u64, MappedAllocator<u64>> words;
  words.reserve(100'000);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.data()) % 4096, 0u);
  words.resize(100'000);
  for (usize i = 0; i < words.size(); ++i) {
    ASSERT_EQ(words[i], 0u);
    words[i] = i * i;
  }
  // Growing moves the elements into a fresh mapping.
  words.resize(300'000, 7);
  EXPECT_EQ(words[99'999], u64{99'999} * 99'999);
  EXPECT_EQ(words.back(), 7u);
}

}  // namespace
}  // namespace fvf
