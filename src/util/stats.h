// Summary statistics used throughout the benches and the crowd analysis: a
// mergeable log-bucket quantile sketch, percentile/median over samples, CDF
// evaluation, and fixed-bucket histograms (the paper's Table 1 delay
// buckets).
#ifndef MOPEYE_UTIL_STATS_H_
#define MOPEYE_UTIL_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace moputil {

// LogQuantile input clamps, shared with the telemetry histograms so both
// sketch the exact same bucket geometry: values at or below the min collapse
// into the zero bucket (sub-50ns RTTs carry no information at 2% relative
// resolution); values above the max saturate into the top bucket. The clamp
// bounds the dense bucket span (~800 buckets across 14 decades at 2%) no
// matter what the stream carries.
inline constexpr double kLogQuantileMin = 5e-5;
inline constexpr double kLogQuantileMax = 1e9;

// Order-insensitive streaming quantile sketch: logarithmic buckets with
// relative width `rel_err` (DDSketch-flavored), so any quantile of any
// positive-valued stream is answered within rel_err *regardless of arrival
// order*. This matters for crowd ingestion: records arrive in per-device
// batches, a clustered (non-exchangeable) stream, and counting buckets
// cannot be biased by ordering. Memory is one u32 per bucket in the
// occupied span — bounded by the dynamic range (~350 buckets for
// 0.05 ms..60 s at 2%), not the count; inputs are clamped to [5e-5, 1e9] so
// a hostile stream cannot widen the span past ~800 buckets.
class LogQuantile {
 public:
  // Bucket state for persistence and merging. rel_err is not part of the
  // state; Restore()/MergeFrom() require the same bucket geometry the
  // instance was constructed with.
  struct State {
    uint64_t total = 0;
    uint64_t zero_or_less = 0;
    int32_t lo_index = 0;
    std::vector<uint32_t> counts;
  };

  // Closed range of bucket indexes a sketch can occupy: IndexOf() of the
  // two input clamps.
  struct IndexRange {
    int32_t lo = 0;
    int32_t hi = 0;

    bool Contains(int64_t index) const { return index >= lo && index <= hi; }
    size_t span() const { return static_cast<size_t>(hi - lo) + 1; }
  };

  explicit LogQuantile(double rel_err = 0.02);

  // The index range of a sketch with this `rel_err`, or nullopt when rel_err
  // is outside (0, 1) or its range spans more than `max_span` buckets
  // (max_span < INT32_MAX).
  // Decoders bound every bucket index that arrives from outside the program
  // by it, so no restored or merged sketch can be made to allocate past the
  // span its clamps allow.
  static std::optional<IndexRange> LegalIndexRange(double rel_err, size_t max_span);

  void Add(double x);
  // Bucket-wise addition: log-bucket sketches merge losslessly — the merged
  // state equals that of one sketch fed both streams, in any order. The
  // target widens once, to the union of its own span and the source's
  // occupied span (first to last non-zero bucket), and then adds in one flat
  // loop; zero buckets at the ends of a Restore()d source never widen it.
  // Both sketches must share the same rel_err (asserted via bucket
  // geometry).
  void MergeFrom(const LogQuantile& o);
  State state() const { return {total_, zero_or_less_, lo_index_, counts_}; }
  void Restore(State s);

  // The state's fields read in place (state() copies the buckets).
  uint64_t zero_or_less() const { return zero_or_less_; }
  int32_t lo_index() const { return lo_index_; }
  std::span<const uint32_t> buckets() const { return counts_; }

  size_t count() const { return static_cast<size_t>(total_); }
  // Quantile estimate for `percentile` in [0, 100]. Requires count() > 0.
  double Quantile(double percentile) const;
  double Median() const { return Quantile(50.0); }
  size_t bucket_count() const { return counts_.size(); }

 private:
  int IndexOf(double x) const;
  // Grows the dense span so `idx` is addressable; returns its slot.
  uint32_t& BucketAt(int idx);
  // Bucket-midpoint value of the sample at 0-based `rank`.
  double ValueAtRank(uint64_t rank) const;

  double inv_log_gamma_;
  double log_gamma_;
  uint64_t total_ = 0;
  uint64_t zero_or_less_ = 0;  // x <= kMinValue collapses into one bucket
  int lo_index_ = 0;           // index of counts_[0]
  std::vector<uint32_t> counts_;
};

// A bag of samples with percentile queries. Sorting is done lazily and cached.
class Samples {
 public:
  void Add(double x);
  void Reserve(size_t n) { values_.reserve(n); }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  // Percentile in [0, 100] with linear interpolation. Requires !empty().
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  double Min() const;
  double Max() const;
  double Mean() const;

  // Fraction of samples <= x (empirical CDF).
  double CdfAt(double x) const;
  // Fraction of samples strictly above x.
  double FractionAbove(double x) const { return 1.0 - CdfAt(x); }

  // Evenly spaced CDF points for plotting: pairs of (value, cumulative frac).
  std::vector<std::pair<double, double>> CdfCurve(size_t points = 50) const;

  const std::vector<double>& values() const { return values_; }

 private:
  void EnsureSorted() const;

  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

// Counts samples into caller-defined right-open buckets, e.g. Table 1's
// {0-1ms, 1-2ms, 2-5ms, 5-10ms, >10ms}. `edges` are the interior boundaries.
class BucketHistogram {
 public:
  // edges must be strictly increasing; buckets are
  // [-inf,e0), [e0,e1), ..., [e_{n-1}, +inf).
  explicit BucketHistogram(std::vector<double> edges);

  void Add(double x);
  size_t total() const { return total_; }
  size_t bucket_count() const { return counts_.size(); }
  size_t count(size_t bucket) const { return counts_[bucket]; }
  // Label like "0~1", "1~2", ">10" given a unit suffix.
  std::string BucketLabel(size_t bucket, const std::string& unit) const;

 private:
  std::vector<double> edges_;
  std::vector<size_t> counts_;
  size_t total_ = 0;
};

// Renders an ASCII CDF plot (for the figure benches). `curves` is a list of
// (label, samples). Values are plotted on [0, x_max] with `width` columns.
std::string AsciiCdfPlot(const std::vector<std::pair<std::string, const Samples*>>& curves,
                         double x_max, size_t width = 64, size_t height = 16,
                         const std::string& x_label = "ms");

}  // namespace moputil

#endif  // MOPEYE_UTIL_STATS_H_
