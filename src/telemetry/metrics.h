// moptel: the self-measurement plane. MopEye's pitch is measurement, so the
// reproduction instruments itself the same way it instruments apps: named
// counters, gauges, and log-bucket latency histograms, sharded per worker
// lane exactly like Engine::Counters so the relay hot path increments a plain
// uint64_t — no atomics, no locks, no steady-state allocation — and readers
// merge on demand. Rendered as Prometheus-style text exposition (scraped over
// mopnet by the engine and the collectors) or JSON (dumped by the benches).
#ifndef MOPEYE_TELEMETRY_METRICS_H_
#define MOPEYE_TELEMETRY_METRICS_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.h"

namespace moptel {

// One cache line per lane so lanes promoted to real threads (the TSan lane
// runs them concurrently in tests) never false-share a counter word.
struct alignas(64) LaneCell {
  uint64_t v = 0;
};

// Monotonic counter, one cell per lane. Writers touch only their own lane's
// cell; Value() merges by summing, which is exact because each cell is
// single-writer.
class Counter {
 public:
  explicit Counter(size_t lanes) : cells_(lanes) {}

  void Inc(size_t lane) { ++cells_[lane].v; }
  void Add(size_t lane, uint64_t n) { cells_[lane].v += n; }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const LaneCell& c : cells_) sum += c.v;
    return sum;
  }
  uint64_t LaneValue(size_t lane) const { return cells_[lane].v; }
  size_t lanes() const { return cells_.size(); }

 private:
  std::vector<LaneCell> cells_;
};

// How per-lane gauge cells fold into the exported global. kSum for additive
// quantities (queue depths, live clients); kMax for high-water marks, where
// summing per-lane peaks is only an upper bound (the engine's old
// clients_high_water bug, ISSUE 7 satellite).
enum class GaugeMerge { kSum, kMax };

class Gauge {
 public:
  Gauge(size_t lanes, GaugeMerge merge) : merge_(merge), cells_(lanes) {}

  void Set(size_t lane, uint64_t v) { cells_[lane].v = v; }
  void SetMax(size_t lane, uint64_t v) {
    if (v > cells_[lane].v) cells_[lane].v = v;
  }

  uint64_t Value() const {
    uint64_t out = 0;
    for (const LaneCell& c : cells_) {
      out = merge_ == GaugeMerge::kSum ? out + c.v : (c.v > out ? c.v : out);
    }
    return out;
  }
  uint64_t LaneValue(size_t lane) const { return cells_[lane].v; }
  GaugeMerge merge() const { return merge_; }
  size_t lanes() const { return cells_.size(); }

 private:
  GaugeMerge merge_;
  std::vector<LaneCell> cells_;
};

// Latency histogram with moputil::LogQuantile's exact bucket geometry, but
// with the span preallocated across the full clamp range
// [kLogQuantileMin, kLogQuantileMax] so Observe() never grows a vector.
// Merged() restores the summed buckets into a LogQuantile, so quantile
// answers are bit-identical to feeding every sample through one sketch.
//
// Observe() avoids libm's log() on the hot path with a cell table built at
// construction: the sample's exponent and top mantissa bits index a cell
// that pre-resolves the bucket, with the cell's bucket boundary shrunk
// inward by a relative margin orders of magnitude wider than the worst-case
// log/multiply rounding error. Any sample the cell accepts provably gets the
// same bucket IndexOf() would compute; samples inside the ~1e-9 boundary
// sliver (and anything outside the table's range: NaN, negatives, the zero
// bucket, the clamp) fall back to the exact slow path. Steady state is one
// add, a shift, and two compares per sample.
class Histogram {
 public:
  Histogram(size_t lanes, double rel_err = 0.02);

  void Observe(size_t lane, double x) {
    Shard& s = shards_[lane];
    s.sum += x;
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));  // NaN/negative/zero index out of range
    uint64_t cell = (bits >> cell_shift_) - cell_base_;
    if (cell < num_cells_) {
      const Cell& c = cells_[cell];
      if (x <= c.hi0) {
        if (x >= c.lo0) {
          ++s.counts[c.slot0];
          return;
        }
      } else if (x >= c.lo1) {
        ++s.counts[c.slot0 + 1];
        return;
      }
    }
    ObserveSlow(&s, x);
  }

  moputil::LogQuantile Merged() const;
  uint64_t Count() const;
  double Sum() const;
  uint64_t LaneCount(size_t lane) const;
  // Per-lane quantile (percentile in [0,100]); requires LaneCount(lane) > 0.
  double LaneQuantile(size_t lane, double percentile) const;
  size_t lanes() const { return shards_.size(); }
  size_t bucket_span() const { return static_cast<size_t>(hi_index_ - lo_index_) + 1; }
  double rel_err() const { return rel_err_; }
  // Identity of the immutable cell table. Same-geometry histograms (equal
  // rel_err) share one table through a process-wide cache instead of each
  // rebuilding ~2k cells; telemetry_test asserts the pointer equality.
  const void* cell_table_id() const { return table_.get(); }

 private:
  // Per-lane shard; padded out so concurrent real-thread writers (TSan test)
  // never share a line through the vector metadata of a neighbor.
  // The observation total is not stored: it is zero_or_less plus the sum of
  // counts, computed at read time, so the hot path pays one fewer
  // read-modify-write per sample.
  struct alignas(64) Shard {
    uint64_t zero_or_less = 0;
    double sum = 0;
    std::vector<uint32_t> counts;  // fixed span, preallocated
  };

  // One entry per (exponent, top mantissa bits) cell. Cells are narrower
  // than a bucket, so a cell overlaps at most two buckets: x <= hi0 and
  // x >= lo0 proves bucket slot0; x >= lo1 proves slot0 + 1; the margin
  // sliver in between goes to the slow path. Single-bucket cells set
  // hi0 = +inf (the cell index already bounds x from above).
  struct Cell {
    double lo0 = 0;
    double hi0 = 0;
    double lo1 = 0;
    uint32_t slot0 = 0;
    uint32_t pad = 0;
  };

  // The cell table is immutable after construction and a pure function of
  // rel_err (the rest of the geometry derives from it plus the global clamp
  // range), so same-geometry histograms share one table via a process-wide
  // cache. cells empty = no fast path (rel_err too tight for a useful split).
  struct Table {
    uint32_t cell_shift = 63;
    uint64_t cell_base = 0;
    std::vector<Cell> cells;
  };

  // Must stay the exact expression moputil::LogQuantile uses so bucket
  // boundaries are bit-identical.
  int IndexOf(double x) const {
    return static_cast<int>(std::floor(std::log(x) * inv_log_gamma_));
  }
  void ObserveSlow(Shard* s, double x);
  static std::shared_ptr<const Table> AcquireTable(double rel_err,
                                                   double log_gamma,
                                                   int lo_index, int hi_index,
                                                   double max_clamp);
  static void BuildTable(Table* table, double log_gamma, int lo_index,
                         int hi_index, double max_clamp);
  moputil::LogQuantile LaneSketch(size_t lane) const;

  double rel_err_;
  double inv_log_gamma_;
  double log_gamma_;
  double max_clamp_;
  int lo_index_;
  int hi_index_;
  std::shared_ptr<const Table> table_;
  // Hot-path copies of the table fields: one indirection fewer per Observe.
  uint32_t cell_shift_ = 63;  // no-table default: every sample goes slow path
  uint64_t cell_base_ = 0;
  const Cell* cells_ = nullptr;
  size_t num_cells_ = 0;
  std::vector<Shard> shards_;
};

// A point-in-time reading of one registry metric, in a form a wire codec can
// ship: counters and gauges as merged scalars, histograms as their exact
// sparse log-bucket state (absolute bucket index + count), so a remote
// aggregator can rebuild a bit-identical moputil::LogQuantile via Restore()
// and rollups across devices stay lossless (bucket addition, no resketching).
struct MetricSample {
  enum class Kind : uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

  std::string name;
  Kind kind = Kind::kCounter;
  GaugeMerge merge = GaugeMerge::kSum;  // gauges only
  uint64_t value = 0;                   // counter total / merged gauge value
  // Histograms only: geometry + merged sparse buckets.
  double rel_err = 0;
  double sum = 0;
  uint64_t zero_or_less = 0;
  std::vector<std::pair<int32_t, uint64_t>> buckets;  // (abs index, count>0)

  // Total observation count (histograms).
  uint64_t Count() const {
    uint64_t n = zero_or_less;
    for (const auto& b : buckets) n += b.second;
    return n;
  }
};

// A named metric registry. Metrics are either *owned* (Counter/Gauge/
// Histogram allocated here; hot paths hold the raw pointer, which stays
// stable for the registry's lifetime) or *external* (a read callback over
// state that already exists — BufPool::Stats, TunDevice counters — polled at
// render time so legacy stats surface without rewriting their owners).
class Registry {
 public:
  explicit Registry(size_t lanes);
  ~Registry();  // out-of-line: Entry is incomplete here
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter* AddCounter(std::string name, std::string help);
  Gauge* AddGauge(std::string name, std::string help, GaugeMerge merge = GaugeMerge::kSum);
  Histogram* AddHistogram(std::string name, std::string help, double rel_err = 0.02);

  // External reads. The lane-sharded variant renders one line per lane plus
  // the summed total, mirroring owned counters.
  void AddExternalCounter(std::string name, std::string help, std::function<uint64_t()> read);
  void AddExternalLaneCounter(std::string name, std::string help,
                              std::function<uint64_t(size_t lane)> read);
  void AddExternalGauge(std::string name, std::string help, std::function<uint64_t()> read);

  // Merged value lookups by name (owned and external alike). Used by the
  // scrape exactness assertions; returns false if no such metric.
  bool CounterValue(std::string_view name, uint64_t* out) const;
  bool GaugeValue(std::string_view name, uint64_t* out) const;
  const Histogram* FindHistogram(std::string_view name) const;

  // Snapshot every metric whose name passes `filter` (null = all) into
  // MetricSamples, in registration order. External counters/gauges read
  // their callbacks; external lane counters sample as plain counters.
  // The Uploader uses this with an allowlist to piggyback device health
  // on upload batches.
  std::vector<MetricSample> Sample(
      const std::function<bool(std::string_view)>& filter = nullptr) const;

  // Prometheus-style text exposition: "# HELP"/"# TYPE" per metric, the
  // merged value unlabeled, and {lane="N"} series when lanes > 1. Histograms
  // render as summaries (quantile 0.5/0.95/0.99 + _sum + _count).
  std::string RenderText() const;
  // One JSON object keyed by metric name (for the benches).
  std::string RenderJson() const;

  size_t lanes() const { return lanes_; }

 private:
  struct Entry;
  size_t lanes_;
  std::vector<std::unique_ptr<Entry>> entries_;
};

}  // namespace moptel

#endif  // MOPEYE_TELEMETRY_METRICS_H_
