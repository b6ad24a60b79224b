#include "util/stats.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <sstream>
#include <utility>

namespace moputil {

LogQuantile::LogQuantile(double rel_err) {
  assert(rel_err > 0.0 && rel_err < 1.0);
  double gamma = (1.0 + rel_err) / (1.0 - rel_err);
  log_gamma_ = std::log(gamma);
  inv_log_gamma_ = 1.0 / log_gamma_;
}

std::optional<LogQuantile::IndexRange> LogQuantile::LegalIndexRange(double rel_err,
                                                                     size_t max_span) {
  if (!(rel_err > 0.0 && rel_err < 1.0)) {
    return std::nullopt;
  }
  LogQuantile q(rel_err);
  // Span in floating point first: on a geometry far finer than any cap,
  // IndexOf() would overflow int (at gamma == 1 its scale is infinite).
  if ((std::log(kLogQuantileMax) - std::log(kLogQuantileMin)) * q.inv_log_gamma_ >=
      static_cast<double>(max_span)) {
    return std::nullopt;
  }
  IndexRange range{q.IndexOf(kLogQuantileMin), q.IndexOf(kLogQuantileMax)};
  if (range.span() > max_span) {
    return std::nullopt;
  }
  return range;
}

int LogQuantile::IndexOf(double x) const {
  return static_cast<int>(std::floor(std::log(x) * inv_log_gamma_));
}

uint32_t& LogQuantile::BucketAt(int idx) {
  if (counts_.empty()) {
    lo_index_ = idx;
    counts_.push_back(0);
  } else if (idx < lo_index_) {
    counts_.insert(counts_.begin(), static_cast<size_t>(lo_index_ - idx), 0);
    lo_index_ = idx;
  } else if (idx >= lo_index_ + static_cast<int>(counts_.size())) {
    counts_.resize(static_cast<size_t>(idx - lo_index_) + 1, 0);
  }
  return counts_[static_cast<size_t>(idx - lo_index_)];
}

void LogQuantile::Add(double x) {
  ++total_;
  if (!(x > kLogQuantileMin)) {  // NaN lands here too
    ++zero_or_less_;
    return;
  }
  ++BucketAt(IndexOf(std::min(x, kLogQuantileMax)));
}

void LogQuantile::MergeFrom(const LogQuantile& o) {
  assert(log_gamma_ == o.log_gamma_ && "merging sketches with different rel_err");
  total_ += o.total_;
  zero_or_less_ += o.zero_or_less_;
  // Only the source's occupied span (first to last non-zero bucket) widens
  // this sketch: a Restore()d source may carry zero buckets at either end.
  size_t first = 0;
  size_t last = o.counts_.size();
  while (first < last && o.counts_[first] == 0) {
    ++first;
  }
  while (last > first && o.counts_[last - 1] == 0) {
    --last;
  }
  if (first == last) {
    return;
  }
  const int src_lo = o.lo_index_ + static_cast<int>(first);
  const int src_end = o.lo_index_ + static_cast<int>(last);
  if (counts_.empty()) {
    lo_index_ = src_lo;  // an empty span sits anywhere: put it at the source's
  }
  // Widen once to the union of both spans, then add bucket-wise.
  const int lo = std::min(lo_index_, src_lo);
  const int end = std::max(lo_index_ + static_cast<int>(counts_.size()), src_end);
  counts_.reserve(static_cast<size_t>(end - lo));
  counts_.insert(counts_.begin(), static_cast<size_t>(lo_index_ - lo), 0);
  counts_.resize(static_cast<size_t>(end - lo), 0);
  lo_index_ = lo;
  uint32_t* dst = counts_.data() + (src_lo - lo_index_);
  const uint32_t* src = o.counts_.data() + first;
  for (size_t i = 0; i < last - first; ++i) {
    dst[i] += src[i];
  }
}

void LogQuantile::Restore(State s) {
  total_ = s.total;
  zero_or_less_ = s.zero_or_less;
  lo_index_ = s.lo_index;
  counts_ = std::move(s.counts);
}

double LogQuantile::ValueAtRank(uint64_t rank) const {
  if (rank < zero_or_less_) {
    return 0.0;
  }
  uint64_t seen = zero_or_less_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > rank) {
      // Geometric midpoint of bucket (gamma^i, gamma^(i+1)].
      return std::exp((static_cast<double>(lo_index_ + static_cast<int>(i)) + 0.5) *
                      log_gamma_);
    }
  }
  return std::exp((static_cast<double>(lo_index_ + static_cast<int>(counts_.size()) - 1) + 0.5) *
                  log_gamma_);
}

double LogQuantile::Quantile(double percentile) const {
  assert(total_ > 0);
  assert(percentile >= 0.0 && percentile <= 100.0);
  // Interpolate between adjacent order statistics, matching
  // Samples::Percentile's convention — in sparse tails neighboring order
  // statistics can sit far apart, so rank truncation alone would dominate
  // the bucket error.
  double rank = percentile / 100.0 * static_cast<double>(total_ - 1);
  uint64_t lo_rank = static_cast<uint64_t>(rank);
  double frac = rank - static_cast<double>(lo_rank);
  double lo = ValueAtRank(lo_rank);
  if (frac <= 0.0 || lo_rank + 1 >= total_) {
    return lo;
  }
  return lo * (1.0 - frac) + ValueAtRank(lo_rank + 1) * frac;
}

void Samples::Add(double x) {
  values_.push_back(x);
  sorted_ = false;
}

void Samples::EnsureSorted() const {
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
}

double Samples::Percentile(double p) const {
  assert(!values_.empty());
  assert(p >= 0.0 && p <= 100.0);
  EnsureSorted();
  if (values_.size() == 1) {
    return values_[0];
  }
  double rank = p / 100.0 * static_cast<double>(values_.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, values_.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return values_[lo] * (1.0 - frac) + values_[hi] * frac;
}

double Samples::Min() const {
  assert(!values_.empty());
  EnsureSorted();
  return values_.front();
}

double Samples::Max() const {
  assert(!values_.empty());
  EnsureSorted();
  return values_.back();
}

double Samples::Mean() const {
  if (values_.empty()) {
    return 0.0;
  }
  return std::accumulate(values_.begin(), values_.end(), 0.0) /
         static_cast<double>(values_.size());
}

double Samples::CdfAt(double x) const {
  if (values_.empty()) {
    return 0.0;
  }
  EnsureSorted();
  auto it = std::upper_bound(values_.begin(), values_.end(), x);
  return static_cast<double>(it - values_.begin()) / static_cast<double>(values_.size());
}

std::vector<std::pair<double, double>> Samples::CdfCurve(size_t points) const {
  std::vector<std::pair<double, double>> curve;
  if (values_.empty() || points == 0) {
    return curve;
  }
  EnsureSorted();
  curve.reserve(points);
  for (size_t i = 0; i < points; ++i) {
    double frac = static_cast<double>(i + 1) / static_cast<double>(points);
    size_t idx = static_cast<size_t>(frac * static_cast<double>(values_.size() - 1));
    curve.emplace_back(values_[idx], frac);
  }
  return curve;
}

BucketHistogram::BucketHistogram(std::vector<double> edges) : edges_(std::move(edges)) {
  assert(std::is_sorted(edges_.begin(), edges_.end()));
  counts_.assign(edges_.size() + 1, 0);
}

void BucketHistogram::Add(double x) {
  size_t bucket = static_cast<size_t>(
      std::upper_bound(edges_.begin(), edges_.end(), x) - edges_.begin());
  // upper_bound gives the first edge > x: values below e0 land in bucket 0.
  // We want right-open buckets [e_i, e_{i+1}), so a value equal to an edge
  // belongs to the bucket that starts at that edge; upper_bound already does
  // that for distinct values, and exact-edge values go up, which matches.
  ++counts_[bucket];
  ++total_;
}

std::string BucketHistogram::BucketLabel(size_t bucket, const std::string& unit) const {
  std::ostringstream os;
  auto fmt = [](double v) {
    char buf[32];
    if (v == static_cast<int64_t>(v)) {
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
    } else {
      std::snprintf(buf, sizeof(buf), "%g", v);
    }
    return std::string(buf);
  };
  if (bucket == 0) {
    os << "0~" << fmt(edges_.front()) << unit;
  } else if (bucket == edges_.size()) {
    os << ">" << fmt(edges_.back()) << unit;
  } else {
    os << fmt(edges_[bucket - 1]) << "~" << fmt(edges_[bucket]) << unit;
  }
  return os.str();
}

std::string AsciiCdfPlot(const std::vector<std::pair<std::string, const Samples*>>& curves,
                         double x_max, size_t width, size_t height,
                         const std::string& x_label) {
  std::ostringstream os;
  static const char kMarks[] = {'*', '+', 'o', 'x', '#', '@'};
  // Grid of height rows (1.0 at top) by width cols (0 .. x_max).
  std::vector<std::string> grid(height, std::string(width, ' '));
  for (size_t c = 0; c < curves.size(); ++c) {
    const Samples* s = curves[c].second;
    if (s == nullptr || s->empty()) {
      continue;
    }
    char mark = kMarks[c % sizeof(kMarks)];
    for (size_t col = 0; col < width; ++col) {
      double x = x_max * static_cast<double>(col + 1) / static_cast<double>(width);
      double y = s->CdfAt(x);
      size_t row = height - 1 -
                   std::min(height - 1, static_cast<size_t>(y * static_cast<double>(height - 1) + 0.5));
      grid[row][col] = mark;
    }
  }
  for (size_t r = 0; r < height; ++r) {
    double y = static_cast<double>(height - 1 - r) / static_cast<double>(height - 1);
    char label[16];
    std::snprintf(label, sizeof(label), "%4.2f |", y);
    os << label << grid[r] << "\n";
  }
  os << "      " << std::string(width, '-') << "\n";
  char footer[64];
  std::snprintf(footer, sizeof(footer), "      0%*s%.0f %s\n", static_cast<int>(width - 2), "",
                x_max, x_label.c_str());
  os << footer;
  for (size_t c = 0; c < curves.size(); ++c) {
    os << "      [" << kMarks[c % sizeof(kMarks)] << "] " << curves[c].first << "\n";
  }
  return os.str();
}

}  // namespace moputil
