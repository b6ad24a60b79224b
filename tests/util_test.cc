#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

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

// ---- LogQuantile::MergeFrom is state-exact ----

// `n` values around `median`; a `zero_share` of them fall at or below the
// input clamp and count as zero_or_less.
std::vector<double> MergeStream(Rng& rng, size_t n, double median, double sigma,
                                double zero_share) {
  std::vector<double> xs;
  for (size_t i = 0; i < n; ++i) {
    xs.push_back(rng.Bernoulli(zero_share) ? 0.0 : rng.LogNormalMedian(median, sigma));
  }
  return xs;
}

moputil::LogQuantile Fed(std::initializer_list<const std::vector<double>*> streams) {
  moputil::LogQuantile q(0.02);
  for (const auto* xs : streams) {
    for (double x : *xs) {
      q.Add(x);
    }
  }
  return q;
}

// Inclusive [first, last] index of a state's non-zero buckets; lo > hi when
// it has none.
moputil::LogQuantile::IndexRange Occupied(const moputil::LogQuantile::State& st) {
  moputil::LogQuantile::IndexRange r{1, 0};
  for (size_t i = 0; i < st.counts.size(); ++i) {
    if (st.counts[i] != 0) {
      const int32_t idx = st.lo_index + static_cast<int32_t>(i);
      if (r.lo > r.hi) {
        r.lo = idx;
      }
      r.hi = idx;
    }
  }
  return r;
}

void ExpectSameState(const moputil::LogQuantile& got, const moputil::LogQuantile& want,
                     const std::string& what) {
  auto g = got.state();
  auto w = want.state();
  EXPECT_EQ(g.total, w.total) << what;
  EXPECT_EQ(g.zero_or_less, w.zero_or_less) << what;
  EXPECT_EQ(g.lo_index, w.lo_index) << what;
  EXPECT_EQ(g.counts, w.counts) << what;
}

enum class Placement { kBelow, kAbove, kOverlapping, kInside };

// A source stream placed relative to a target stream; the generated spans
// are checked to sit where the case says before the merge is judged.
TEST(LogQuantile, MergeIsStateExactForEveryPlacement) {
  const std::pair<Placement, const char*> cases[] = {{Placement::kBelow, "below"},
                                                     {Placement::kAbove, "above"},
                                                     {Placement::kOverlapping, "overlapping"},
                                                     {Placement::kInside, "inside"}};
  for (const auto& [placement, name] : cases) {
    for (uint64_t seed = 1; seed <= 25; ++seed) {
      Rng rng(seed);
      auto target = MergeStream(rng, 300, 50.0, placement == Placement::kInside ? 1.0 : 0.4,
                                0.05);
      double median = placement == Placement::kBelow         ? 0.3
                      : placement == Placement::kAbove       ? 9000.0
                      : placement == Placement::kOverlapping ? 110.0
                                                             : 50.0;
      auto source = MergeStream(rng, 200, median, placement == Placement::kInside ? 0.1 : 0.4,
                                0.05);
      auto t = Fed({&target}).state();
      auto s = Fed({&source}).state();
      auto tr = Occupied(t);
      auto sr = Occupied(s);
      std::string what = std::string(name) + " seed " + std::to_string(seed);
      switch (placement) {
        case Placement::kBelow:
          ASSERT_LT(sr.hi, tr.lo) << what;
          break;
        case Placement::kAbove:
          ASSERT_GT(sr.lo, tr.hi) << what;
          break;
        case Placement::kOverlapping:
          ASSERT_TRUE(sr.lo > tr.lo && sr.lo <= tr.hi && sr.hi > tr.hi) << what;
          break;
        case Placement::kInside:
          ASSERT_TRUE(sr.lo > tr.lo && sr.hi < tr.hi) << what;
          break;
      }
      moputil::LogQuantile a = Fed({&target});
      a.MergeFrom(Fed({&source}));
      ExpectSameState(a, Fed({&target, &source}), what);
      moputil::LogQuantile b = Fed({&source});
      b.MergeFrom(Fed({&target}));
      ExpectSameState(b, Fed({&target, &source}), what + " (reversed)");
    }
  }
}

TEST(LogQuantile, MergeIsStateExactForEmptyAndZeroOnlySketches) {
  Rng rng(3);
  const std::vector<double> none;
  auto stream = MergeStream(rng, 200, 40.0, 0.5, 0.05);
  auto zeros = MergeStream(rng, 40, 40.0, 0.5, 1.0);

  moputil::LogQuantile both_empty = Fed({});
  both_empty.MergeFrom(Fed({}));
  ExpectSameState(both_empty, Fed({}), "empty into empty");

  moputil::LogQuantile into_empty = Fed({});
  into_empty.MergeFrom(Fed({&stream}));
  ExpectSameState(into_empty, Fed({&stream}), "stream into empty");

  moputil::LogQuantile empty_source = Fed({&stream});
  empty_source.MergeFrom(Fed({}));
  ExpectSameState(empty_source, Fed({&stream}), "empty into stream");

  moputil::LogQuantile zero_source = Fed({&stream});
  zero_source.MergeFrom(Fed({&zeros}));
  ExpectSameState(zero_source, Fed({&stream, &zeros}), "zero-only into stream");
  EXPECT_EQ(zero_source.state().zero_or_less, Fed({&stream}).state().zero_or_less + 40);

  moputil::LogQuantile zero_into_empty = Fed({});
  zero_into_empty.MergeFrom(Fed({&zeros}));
  ExpectSameState(zero_into_empty, Fed({&zeros}), "zero-only into empty");
  EXPECT_EQ(zero_into_empty.bucket_count(), 0u);
}

// Snapshot decoding Restore()s whatever span a file carries, zero buckets at
// the ends included. Merging such a source widens the target only to the
// source's occupied span.
TEST(LogQuantile, MergeOfAZeroPaddedRestoredSourceWidensOnlyToItsOccupiedSpan) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    auto target = MergeStream(rng, 300, 50.0, 0.6, 0.05);
    auto source = MergeStream(rng, 100, 70.0, 0.3, 0.05);
    auto padded = Fed({&source}).state();
    const size_t pad_lo = 100 + seed;
    const size_t pad_hi = 120 + seed;
    padded.lo_index -= static_cast<int32_t>(pad_lo);
    padded.counts.insert(padded.counts.begin(), pad_lo, 0);
    padded.counts.insert(padded.counts.end(), pad_hi, 0);
    moputil::LogQuantile restored(0.02);
    restored.Restore(padded);
    ASSERT_LT(padded.lo_index, Occupied(Fed({&target}).state()).lo);
    ASSERT_GT(padded.lo_index + static_cast<int32_t>(padded.counts.size()) - 1,
              Occupied(Fed({&target}).state()).hi);

    std::string what = "seed " + std::to_string(seed);
    moputil::LogQuantile a = Fed({&target});
    a.MergeFrom(restored);
    ExpectSameState(a, Fed({&target, &source}), what);
    moputil::LogQuantile into_empty(0.02);
    into_empty.MergeFrom(restored);
    ExpectSameState(into_empty, Fed({&source}), what + " into empty");
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
