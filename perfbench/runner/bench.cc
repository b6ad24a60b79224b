#include "perfbench/runner/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  origin_ = std::chrono::duration<double>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
  if (enabled_) {
    spans_.reserve(1 << 16);
  }
}

int64_t Tracer::NowNs() const {
  double now = std::chrono::duration<double>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
  return static_cast<int64_t>((now - origin_) * 1e9);
}

uint64_t Tracer::Begin(const char* name, uint64_t parent, uint64_t group) {
  if (!enabled_) {
    return 0;
  }
  spans_.push_back(Span{name, parent, group, NowNs(), -1});
  return spans_.size();  // ids are 1-based indices
}

void Tracer::End(uint64_t id) {
  if (id == 0 || id > spans_.size()) {
    return;
  }
  spans_[id - 1].end_ns = NowNs();
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  // Children of one parent never overlap (single thread, nested scopes), so
  // a parent's self time is its duration minus the sum of its children's.
  std::vector<int64_t> child_ns(spans_.size() + 1, 0);
  for (const Span& s : spans_) {
    if (s.parent != 0 && s.end_ns >= 0) {
      child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Summary {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::map<std::string, Summary> summary;
  std::fprintf(f, "{\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    int64_t end = s.end_ns >= 0 ? s.end_ns : s.start_ns;
    std::fprintf(f, "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%llu,\"group\":%llu,"
                    "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", i + 1, s.name, static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.group), static_cast<long long>(s.start_ns),
                 static_cast<long long>(end));
    Summary& sum = summary[s.name];
    ++sum.count;
    sum.total_ns += end - s.start_ns;
    sum.self_ns += end - s.start_ns - child_ns[i + 1];
  }
  std::fprintf(f, "\n],\"summary\":{");
  bool first = true;
  for (const auto& [name, sum] : summary) {
    std::fprintf(f, "%s\n\"%s\":{\"count\":%llu,\"total_ns\":%lld,\"self_ns\":%lld}",
                 first ? "" : ",", name.c_str(), static_cast<unsigned long long>(sum.count),
                 static_cast<long long>(sum.total_ns), static_cast<long long>(sum.self_ns));
    first = false;
  }
  std::fprintf(f, "\n}}\n");
  return std::fclose(f) == 0;
}

void BestPerChunk::Add(std::vector<Chunk> pass, Result& r) {
  double work = 0, cpu = 0;
  for (const Chunk& c : pass) {
    work += c.work;
    cpu += c.cpu_s;
  }
  pass_rates_.push_back(cpu > 0 ? work / cpu : 0);
  if (passes_++ == 0) {
    best_ = std::move(pass);
    return;
  }
  if (pass.size() != best_.size()) {
    r.Fail(Cat("pass ", passes_, " timed ", pass.size(), " chunks, the first ", best_.size()));
    return;
  }
  for (size_t i = 0; i < pass.size(); ++i) {
    Chunk& best = best_[i];
    if (pass[i].work != best.work || pass[i].steps_us.size() != best.steps_us.size()) {
      r.Fail(Cat("chunk ", i, " of pass ", passes_, " did different work than in the first pass"));
      continue;
    }
    best.cpu_s = std::min(best.cpu_s, pass[i].cpu_s);
    for (size_t j = 0; j < best.steps_us.size(); ++j) {
      best.steps_us[j] = std::min(best.steps_us[j], pass[i].steps_us[j]);
    }
  }
}

double BestPerChunk::work() const {
  double sum = 0;
  for (const Chunk& c : best_) {
    sum += c.work;
  }
  return sum;
}

double BestPerChunk::cpu_s() const {
  double sum = 0;
  for (const Chunk& c : best_) {
    sum += c.cpu_s;
  }
  return sum;
}

void BestPerChunk::Report(Result& r) const {
  if (best_.empty() || !(cpu_s() > 0)) {
    r.Fail("no chunk was timed");
    return;
  }
  std::vector<double> steps;
  for (const Chunk& c : best_) {
    steps.insert(steps.end(), c.steps_us.begin(), c.steps_us.end());
  }
  r.Set("work_per_cpu_s", work() / cpu_s());
  r.Set("step_p50_us", Percentile(steps, 50));
  r.Set("step_p99_us", Percentile(steps, 99));
  r.Set("bench.passes", static_cast<double>(passes_));
  r.Set("bench.chunks", static_cast<double>(best_.size()));
  r.Set("bench.steps", static_cast<double>(steps.size()));
  r.Set("bench.median_pass_work_per_cpu_s", Median(pass_rates_));
}

int PassCount(const Options& opts, double nominal_pass_s) {
  if (opts.size == Size::kTiny) {
    return 2;
  }
  return std::max(3, static_cast<int>(std::lround(opts.seconds / nominal_pass_s)));
}

void Result::Fail(const std::string& why) {
  ++failed;
  if (failures.size() < 20) {
    failures.push_back(why);
  }
}

}  // namespace perfbench
