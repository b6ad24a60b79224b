// Shared plumbing of the perfbench runner: run options, CPU clocks, order
// statistics, the in-memory span tracer, and the per-run result that main.cc
// prints as one JSON line.
//
// The runner drives the system only through its public APIs and measures
// each layer from outside: it times calls into a layer's public functions and
// reads the layer's public counters. Everything runs on the calling thread;
// the engine's lanes are virtual-time actors on one EventLoop.
#ifndef MOPEYE_PERFBENCH_RUNNER_BENCH_H_
#define MOPEYE_PERFBENCH_RUNNER_BENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace perfbench {

// String concatenation by append (GCC 12 raises -Wrestrict false positives
// on `"literal" + std::string` chains at -O3).
template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::string out;
  auto add = [&out](const auto& p) {
    if constexpr (std::is_arithmetic_v<std::decay_t<decltype(p)>>) {
      out.append(std::to_string(p));
    } else {
      out.append(p);
    }
  };
  (add(parts), ...);
  return out;
}

enum class Size { kFull, kTiny };

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  // kTiny shrinks every phase to a fraction of a second (self-test).
  Size size = Size::kFull;
  std::string trace_out;  // span file written at exit when tracing
};

// CPU seconds consumed by this process (all threads; the runner has one).
double CpuSeconds();
// Peak resident set of this process so far, MiB.
double PeakRssMiB();

double Median(std::vector<double> v);
// Linear-interpolated percentile, p in [0, 100]. 0 for an empty input.
double Percentile(std::vector<double> v, double p);

// In-memory span recorder. Disabled tracers cost one branch per span. Spans
// carry a name, start, end (monotonic-clock ns since the tracer was made),
// their parent span, and a group id shared by every span of one slice or
// batch.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  void set_enabled(bool on) { enabled_ = on; }
  // Returns the new span's id (0 when disabled).
  uint64_t Begin(const char* name, uint64_t parent, uint64_t group);
  void End(uint64_t id);
  // Writes every span plus a per-name summary (count, total, self time =
  // duration minus the part covered by child spans) as JSON.
  bool Write(const std::string& path) const;
  size_t span_count() const { return spans_.size(); }

 private:
  struct Span {
    const char* name;
    uint64_t parent;
    uint64_t group;
    int64_t start_ns;
    int64_t end_ns;
  };
  int64_t NowNs() const;

  bool enabled_;
  double origin_;
  std::vector<Span> spans_;
};

// RAII span; `parent` / `group` as in Tracer::Begin.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, const char* name, uint64_t parent = 0, uint64_t group = 0)
      : tracer_(tracer), id_(tracer.Begin(name, parent, group)) {}
  ~SpanScope() { tracer_.End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  uint64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  uint64_t id_;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report
  std::map<std::string, double> metrics;

  void Fail(const std::string& why);
  void Set(const std::string& name, double value) { metrics[name] = value; }
};

// One chunk of a timed pass: a fixed span of virtual time (relay) or a fixed
// slice of the delivery schedule (crowd), timed on the CPU clock, plus the
// CPU time of every step (RunUntil slice / IngestPayload call) inside it.
struct Chunk {
  double work = 0;
  double cpu_s = 0;
  std::vector<double> steps_us;
};

// A timed phase is a fixed number of passes over the same fixed list of
// chunks: every pass starts from an identically built state, so chunk i, and
// step j inside it, do the same work in every pass, on every run of a seed
// and on every commit that leaves the modelled behaviour alone. The host is
// shared and identical chunks swing by up to half their CPU time as
// neighbours come and go, so the table keeps, per chunk and per step, the
// least CPU any pass spent on it: the cost of the list on a quiet host.
class BestPerChunk {
 public:
  // Adds one pass. Fails `r` when the pass's chunk count or the work of any
  // chunk differs from the first pass (the workload lost determinism).
  void Add(std::vector<Chunk> pass, Result& r);
  double work() const;
  double cpu_s() const;
  // work_per_cpu_s (work over the chunks' summed least CPU), step_p50_us /
  // step_p99_us (over the steps' least CPU), plus bench.* sample counts.
  void Report(Result& r) const;

 private:
  std::vector<Chunk> best_;
  std::vector<double> pass_rates_;
  size_t passes_ = 0;
};

// Number of timed passes for a `--seconds` budget, given the nominal length
// of one pass: a fixed function of the budget, so every commit times the
// same list. At least 3 (2 for the tiny self-test size).
int PassCount(const Options& opts, double nominal_pass_s);

// ---- Workloads (one translation unit each) ----
Result RunRelayBulk(const Options& opts, Tracer& tracer);
Result RunRelayShortFlows(const Options& opts, Tracer& tracer);
Result RunCrowdIngest(const Options& opts, Tracer& tracer);

// ---- Unit costs (traced runs) ----
// Shape of the traffic a workload produced, for shaping unit-cost inputs.
struct TrafficShape {
  double mean_packet_bytes = 1500;  // tun datagram, headers included
  double heap_depth = 64;           // mean pending sim events between slices
};
// Times each layer's public functions on inputs of `shape` and records
// <layer>.<fn>_ns style metrics in `result`.
void MeasureUnitCosts(const TrafficShape& shape, uint64_t seed, Result& result);
// Collector encode / decode / fold cost per record, on batches drawn by the
// crowd_ingest generator.
void MeasureCollectorUnitCosts(uint64_t seed, Result& result);

}  // namespace perfbench

#endif  // MOPEYE_PERFBENCH_RUNNER_BENCH_H_
