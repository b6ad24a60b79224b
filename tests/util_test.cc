#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"
#include "util/time.h"

namespace {

using moputil::BucketHistogram;
using moputil::Rng;
using moputil::Samples;

TEST(Status, OkByDefault) {
  moputil::Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(Status, ErrorCarriesCodeAndMessage) {
  auto s = moputil::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), moputil::StatusCode::kInvalidArgument);
  EXPECT_NE(s.ToString().find("bad thing"), std::string::npos);
}

TEST(Result, HoldsValue) {
  moputil::Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(Result, HoldsError) {
  moputil::Result<int> r(moputil::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), moputil::StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU32() == b.NextU32()) {
      ++same;
    }
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, ForkIndependent) {
  Rng a(55);
  Rng child = a.Fork();
  uint64_t parent_next = a.NextU64();
  Rng b(55);
  (void)b.Fork();
  EXPECT_EQ(parent_next, b.NextU64());  // forking leaves the parent stream intact
  (void)child.NextU64();
}

TEST(Rng, UniformIntBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(9);
  EXPECT_EQ(r.UniformInt(5, 5), 5);
}

TEST(Rng, BernoulliExtremes) {
  Rng r(10);
  EXPECT_FALSE(r.Bernoulli(0.0));
  EXPECT_TRUE(r.Bernoulli(1.0));
}

TEST(Rng, LogNormalMedianApproximatesMedian) {
  Rng r(77);
  Samples s;
  for (int i = 0; i < 20000; ++i) {
    s.Add(r.LogNormalMedian(100.0, 0.5));
  }
  EXPECT_NEAR(s.Median(), 100.0, 4.0);
}

TEST(Rng, ExponentialMean) {
  Rng r(78);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += r.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.25);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  Rng r(79);
  std::vector<double> w{0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 10000; ++i) {
    ++counts[r.WeightedIndex(w)];
  }
  EXPECT_EQ(counts[0], 0);
  EXPECT_GT(counts[2], counts[1]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(DelayModels, FixedAndUniform) {
  Rng r(80);
  moputil::FixedDelay f(moputil::Millis(5));
  EXPECT_EQ(f.Sample(r), moputil::Millis(5));
  moputil::UniformDelay u(moputil::Millis(1), moputil::Millis(2));
  for (int i = 0; i < 100; ++i) {
    auto v = u.Sample(r);
    EXPECT_GE(v, moputil::Millis(1));
    EXPECT_LE(v, moputil::Millis(2));
  }
}

TEST(DelayModels, LogNormalClamps) {
  Rng r(81);
  moputil::LogNormalDelay d(moputil::Millis(10), 2.0, moputil::Millis(5), moputil::Millis(20));
  for (int i = 0; i < 1000; ++i) {
    auto v = d.Sample(r);
    EXPECT_GE(v, moputil::Millis(5));
    EXPECT_LE(v, moputil::Millis(20));
  }
}

TEST(DelayModels, MixtureSelectsComponents) {
  Rng r(82);
  moputil::MixtureDelay m({{0.5, std::make_shared<moputil::FixedDelay>(moputil::Millis(1))},
                           {0.5, std::make_shared<moputil::FixedDelay>(moputil::Millis(9))}});
  int low = 0, high = 0;
  for (int i = 0; i < 2000; ++i) {
    auto v = m.Sample(r);
    (v == moputil::Millis(1) ? low : high)++;
  }
  EXPECT_GT(low, 800);
  EXPECT_GT(high, 800);
}

TEST(LogQuantile, GuaranteedRelativeError) {
  moputil::LogQuantile sketch(0.02);
  Samples exact;
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    double v = rng.LogNormalMedian(60.0, 0.8);
    sketch.Add(v);
    exact.Add(v);
  }
  for (double pct : {10.0, 50.0, 90.0, 95.0, 99.0}) {
    double want = exact.Percentile(pct);
    EXPECT_NEAR(sketch.Quantile(pct), want, 0.021 * want) << "p" << pct;
  }
}

// Regression for the property the collector relies on: upload batches arrive
// clustered by device (non-exchangeable order); the counting sketch must be
// unaffected by ordering.
TEST(LogQuantile, OrderInsensitiveOnClusteredStreams) {
  moputil::LogQuantile sketch(0.02);
  Samples exact;
  Rng rng(7);
  // Eight "devices" with strongly different network conditions, arriving as
  // whole blocks.
  for (int d = 0; d < 8; ++d) {
    double scale = 0.5 + 0.35 * d;
    for (int i = 0; i < 600; ++i) {
      double v = rng.Bernoulli(0.5) ? rng.LogNormalMedian(20.0 * scale, 0.3)
                                    : rng.LogNormalMedian(230.0 * scale, 0.35);
      sketch.Add(v);
      exact.Add(v);
    }
  }
  double want = exact.Percentile(95);
  EXPECT_NEAR(sketch.Quantile(95), want, 0.021 * want);
}

TEST(LogQuantile, HandlesZeroAndTinyValues) {
  moputil::LogQuantile sketch(0.02);
  sketch.Add(0.0);
  sketch.Add(-5.0);
  sketch.Add(100.0);
  EXPECT_EQ(sketch.count(), 3u);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0), 0.0);
  EXPECT_NEAR(sketch.Quantile(100), 100.0, 2.1);
}

// Extreme values must saturate, not widen the bucket vector without bound.
TEST(LogQuantile, ClampsHostileRangeToBoundedBuckets) {
  moputil::LogQuantile sketch(0.02);
  sketch.Add(1e-300);
  sketch.Add(1e300);
  sketch.Add(50.0);
  EXPECT_LE(sketch.bucket_count(), 900u);
  EXPECT_NEAR(sketch.Quantile(50), 50.0, 1.1);
}

// The legal index range is IndexOf() over the input clamps: a sketch fed the
// clamps and everything beyond them lands exactly on its ends.
TEST(LogQuantile, LegalIndexRangeCoversTheClampsAndRefusesBadGeometry) {
  auto range = moputil::LogQuantile::LegalIndexRange(0.02, 4096);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(range->lo, -248);
  EXPECT_EQ(range->hi, 518);
  EXPECT_EQ(range->span(), 767u);
  moputil::LogQuantile sketch(0.02);
  for (double x : {moputil::kLogQuantileMin * 1.0000001, 1e-3, 1.0, moputil::kLogQuantileMax,
                   1e300}) {
    sketch.Add(x);
  }
  auto st = sketch.state();
  EXPECT_EQ(st.lo_index, range->lo);
  EXPECT_EQ(st.lo_index + static_cast<int32_t>(st.counts.size()) - 1, range->hi);

  EXPECT_FALSE(moputil::LogQuantile::LegalIndexRange(0.02, 766).has_value());
  EXPECT_FALSE(moputil::LogQuantile::LegalIndexRange(1e-3, 8192).has_value());
  for (double bad : {0.0, -0.5, 1.0, std::nan(""), 1e-300}) {
    EXPECT_FALSE(moputil::LogQuantile::LegalIndexRange(bad, 8192).has_value()) << bad;
  }
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_NEAR(s.Median(), 50.5, 1e-9);
  EXPECT_NEAR(s.Percentile(0), 1.0, 1e-9);
  EXPECT_NEAR(s.Percentile(100), 100.0, 1e-9);
  EXPECT_NEAR(s.Percentile(90), 90.1, 1e-9);
}

TEST(Samples, CdfAt) {
  Samples s;
  for (int i = 1; i <= 10; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.CdfAt(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.CdfAt(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.CdfAt(10.0), 1.0);
  EXPECT_DOUBLE_EQ(s.FractionAbove(8.0), 0.2);
}

TEST(Samples, CdfCurveMonotonic) {
  Samples s;
  moputil::Rng r(5);
  for (int i = 0; i < 500; ++i) {
    s.Add(r.Uniform(0, 100));
  }
  auto curve = s.CdfCurve(20);
  ASSERT_EQ(curve.size(), 20u);
  for (size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].first, curve[i - 1].first);
    EXPECT_GT(curve[i].second, curve[i - 1].second);
  }
}

TEST(BucketHistogram, Table1Buckets) {
  BucketHistogram h({1, 2, 5, 10});
  h.Add(0.5);   // 0~1
  h.Add(1.0);   // 1~2 (right-open at the lower edge)
  h.Add(1.5);   // 1~2
  h.Add(4.0);   // 2~5
  h.Add(25.0);  // >10
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(2), 1u);
  EXPECT_EQ(h.count(3), 0u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.BucketLabel(0, "ms"), "0~1ms");
  EXPECT_EQ(h.BucketLabel(4, "ms"), ">10ms");
}

TEST(Strings, SplitAndTrim) {
  auto parts = moputil::Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(moputil::Trim("  x y \t"), "x y");
}

TEST(Strings, ParseHexU64) {
  uint64_t v = 0;
  EXPECT_TRUE(moputil::ParseHexU64("0A", &v));
  EXPECT_EQ(v, 10u);
  EXPECT_TRUE(moputil::ParseHexU64("ffFF", &v));
  EXPECT_EQ(v, 0xffffu);
  EXPECT_FALSE(moputil::ParseHexU64("xyz", &v));
  EXPECT_FALSE(moputil::ParseHexU64("", &v));
  EXPECT_FALSE(moputil::ParseHexU64("12345678901234567", &v));  // 17 digits
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(moputil::WithCommas(0), "0");
  EXPECT_EQ(moputil::WithCommas(999), "999");
  EXPECT_EQ(moputil::WithCommas(5252758), "5,252,758");
  EXPECT_EQ(moputil::WithCommas(-1234567), "-1,234,567");
}

TEST(Strings, StrFormat) {
  EXPECT_EQ(moputil::StrFormat("%d-%s", 5, "x"), "5-x");
}

TEST(Table, RendersAligned) {
  moputil::Table t({"name", "value"});
  t.AddRow({"a", "1"});
  t.AddSeparator();
  t.AddRow({"bb", "22"});
  std::string out = t.Render();
  EXPECT_NE(out.find("| name | value |"), std::string::npos);
  EXPECT_NE(out.find("| a    |     1 |"), std::string::npos);
}

TEST(Time, Conversions) {
  EXPECT_EQ(moputil::Millis(1.5), 1500000);
  EXPECT_DOUBLE_EQ(moputil::ToMillis(moputil::Seconds(2)), 2000.0);
  EXPECT_DOUBLE_EQ(moputil::ToSeconds(moputil::kMinute), 60.0);
}

}  // namespace
