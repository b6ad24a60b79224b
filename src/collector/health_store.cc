#include "collector/health_store.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace mopcollect {

namespace {

// Wrap-aware "a is fresher than b" for u32 frame seqs (uploaders start at a
// random seq, so absolute comparison would be wrong across the wrap).
bool SeqNewer(uint32_t a, uint32_t b) { return static_cast<int32_t>(a - b) > 0; }

// The shape rule Fold and MergeFrom share: a metric arriving with another
// kind, a gauge with another merge rule, or a histogram with another bucket
// geometry (when both rel_errs are known) conflicts with the stored one.
bool ShapeConflicts(const HealthStore::Metric& m, uint8_t kind, uint8_t merge, double rel_err) {
  return m.kind != kind || (m.kind == 1 && m.merge != merge) ||
         (m.kind == 2 && rel_err > 0 && m.rel_err > 0 && m.rel_err != rel_err);
}

void AppendU64(std::string* out, uint64_t v) { out->append(std::to_string(v)); }

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out->append(buf);
}

// Rebuilds the exact log-bucket sketch from a crowd histogram metric.
// Per-bucket counts are clamped at u32 (the sketch's cell width); a fleet
// would need >4B observations in one bucket to see the clamp. The dense span
// is bounded because the wire and snapshot decoders admit only indexes in
// the geometry's LogQuantile::LegalIndexRange.
moputil::LogQuantile RebuildSketch(const HealthStore::Metric& m) {
  moputil::LogQuantile::State st;
  st.zero_or_less = m.zero_or_less;
  if (!m.buckets.empty()) {
    int32_t lo = m.buckets.begin()->first;
    int32_t hi = m.buckets.rbegin()->first;
    st.lo_index = lo;
    st.counts.assign(static_cast<size_t>(hi - lo) + 1, 0);
    for (const auto& [idx, count] : m.buckets) {
      st.counts[static_cast<size_t>(idx - lo)] = static_cast<uint32_t>(
          std::min<uint64_t>(count, std::numeric_limits<uint32_t>::max()));
    }
  }
  st.total = st.zero_or_less;
  for (uint32_t c : st.counts) st.total += c;
  moputil::LogQuantile out(m.rel_err > 0 ? m.rel_err : 0.02);
  out.Restore(std::move(st));
  return out;
}

}  // namespace

std::string CrowdMetricName(std::string_view device_metric) {
  constexpr std::string_view kPrefix = "mopeye_";
  std::string out = "mopeye_crowd_";
  if (device_metric.substr(0, kPrefix.size()) == kPrefix) {
    device_metric.remove_prefix(kPrefix.size());
  }
  out.append(device_metric);
  return out;
}

uint64_t HealthStore::Metric::GaugeValue() const {
  uint64_t out = 0;
  for (const auto& [device, cell] : gauges) {
    out = merge == 1 ? std::max(out, cell.value) : out + cell.value;
  }
  return out;
}

uint64_t HealthStore::Metric::HistCount() const {
  uint64_t n = zero_or_less;
  for (const auto& [idx, count] : buckets) n += count;
  return n;
}

void HealthStore::Fold(const WireTelemetry& t) {
  ++folds_;
  for (const WireHealthEntry& e : t.health) {
    FoldEntry(t.device_id, t.seq, e);
  }
}

void HealthStore::FoldEntry(uint32_t device_id, uint32_t seq, const WireHealthEntry& e) {
  devices_.insert(device_id);
  auto it = metrics_.find(e.name);
  if (it == metrics_.end()) {
    Metric m;
    m.kind = e.kind;
    m.merge = e.merge;
    m.rel_err = e.rel_err;
    it = metrics_.emplace(e.name, std::move(m)).first;
  }
  Metric& m = it->second;
  if (ShapeConflicts(m, e.kind, e.merge, e.rel_err)) {
    // A device disagreeing with the crowd on a metric's shape must not
    // corrupt the rollup; drop the entry and count the conflict.
    ++conflicts_;
    return;
  }
  switch (m.kind) {
    case 0:
      m.counter += e.value;
      break;
    case 1: {
      auto g = m.gauges.find(device_id);
      if (g == m.gauges.end()) {
        m.gauges.emplace(device_id, GaugeCell{seq, e.value});
      } else if (SeqNewer(seq, g->second.seq)) {
        g->second = GaugeCell{seq, e.value};
      }
      break;
    }
    case 2:
      if (m.rel_err == 0) m.rel_err = e.rel_err;
      m.sum += e.sum;
      m.zero_or_less += e.zero_or_less;
      for (const auto& [idx, count] : e.buckets) {
        m.buckets[idx] += count;
      }
      break;
    default:
      ++conflicts_;
      break;
  }
}

void HealthStore::MergeFrom(const HealthStore& o) {
  for (const auto& [name, om] : o.metrics_) {
    auto it = metrics_.find(name);
    if (it == metrics_.end()) {
      metrics_.emplace(name, om);
      continue;
    }
    Metric& m = it->second;
    if (ShapeConflicts(m, om.kind, om.merge, om.rel_err)) {
      ++conflicts_;
      continue;
    }
    switch (m.kind) {
      case 0:
        m.counter += om.counter;
        break;
      case 1:
        for (const auto& [device, cell] : om.gauges) {
          auto g = m.gauges.find(device);
          if (g == m.gauges.end()) {
            m.gauges.emplace(device, cell);
          } else if (SeqNewer(cell.seq, g->second.seq)) {
            g->second = cell;
          }
        }
        break;
      case 2:
        if (m.rel_err == 0) m.rel_err = om.rel_err;
        m.sum += om.sum;
        m.zero_or_less += om.zero_or_less;
        for (const auto& [idx, count] : om.buckets) {
          m.buckets[idx] += count;
        }
        break;
      default:
        break;
    }
  }
  devices_.insert(o.devices_.begin(), o.devices_.end());
  folds_ += o.folds_;
  conflicts_ += o.conflicts_;
}

const HealthStore::Metric* HealthStore::Find(std::string_view name) const {
  auto it = metrics_.find(name);
  return it == metrics_.end() ? nullptr : &it->second;
}

bool HealthStore::CounterValue(std::string_view name, uint64_t* out) const {
  const Metric* m = Find(name);
  if (m == nullptr || m->kind != 0) return false;
  *out = m->counter;
  return true;
}

bool HealthStore::GaugeValue(std::string_view name, uint64_t* out) const {
  const Metric* m = Find(name);
  if (m == nullptr || m->kind != 1) return false;
  *out = m->GaugeValue();
  return true;
}

bool HealthStore::HistQuantile(std::string_view name, double percentile, double* out) const {
  const Metric* m = Find(name);
  if (m == nullptr || m->kind != 2 || m->HistCount() == 0) return false;
  *out = RebuildSketch(*m).Quantile(percentile);
  return true;
}

void HealthStore::RestoreMetric(const std::string& name, Metric m) {
  metrics_.insert_or_assign(name, std::move(m));
}

std::string HealthStore::RenderText() const {
  std::string out;
  out += "# HELP mopeye_crowd_devices devices that contributed health telemetry\n";
  out += "# TYPE mopeye_crowd_devices gauge\nmopeye_crowd_devices ";
  AppendU64(&out, devices_.size());
  out += "\n# HELP mopeye_crowd_health_metrics distinct crowd health metrics\n";
  out += "# TYPE mopeye_crowd_health_metrics gauge\nmopeye_crowd_health_metrics ";
  AppendU64(&out, metric_count());
  out += "\n# HELP mopeye_crowd_health_folds telemetry frames folded\n";
  out += "# TYPE mopeye_crowd_health_folds counter\nmopeye_crowd_health_folds ";
  AppendU64(&out, folds_);
  out += "\n# HELP mopeye_crowd_health_conflicts health entries dropped on shape mismatch\n";
  out += "# TYPE mopeye_crowd_health_conflicts counter\nmopeye_crowd_health_conflicts ";
  AppendU64(&out, conflicts_);
  out += "\n";
  for (const auto& [name, m] : metrics_) {
    std::string crowd = CrowdMetricName(name);
    out += "# HELP " + crowd + " crowd rollup of device metric " + name + "\n";
    switch (m.kind) {
      case 0:
        out += "# TYPE " + crowd + " counter\n" + crowd + " ";
        AppendU64(&out, m.counter);
        out += "\n";
        break;
      case 1:
        out += "# TYPE " + crowd + " gauge\n" + crowd + " ";
        AppendU64(&out, m.GaugeValue());
        out += "\n" + crowd + "_devices ";
        AppendU64(&out, m.gauges.size());
        out += "\n";
        break;
      case 2: {
        out += "# TYPE " + crowd + " summary\n";
        uint64_t count = m.HistCount();
        if (count > 0) {
          moputil::LogQuantile sketch = RebuildSketch(m);
          for (double q : {0.5, 0.95, 0.99}) {
            out += crowd + "{quantile=\"";
            AppendDouble(&out, q);
            out += "\"} ";
            AppendDouble(&out, sketch.Quantile(q * 100.0));
            out += "\n";
          }
        }
        out += crowd + "_sum ";
        AppendDouble(&out, m.sum);
        out += "\n" + crowd + "_count ";
        AppendU64(&out, count);
        out += "\n";
        break;
      }
      default:
        break;
    }
  }
  return out;
}

}  // namespace mopcollect
