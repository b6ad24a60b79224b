// perfbench_runner: runs one benchmark workload and prints one JSON line
// with its metrics, its failures and the environment it ran in.
//
//   perfbench_runner --workload <relay_bulk|relay_short_flows|crowd_ingest>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    [--size tiny] [--trace-out <file>]
//
// perfbench/run.py builds this binary and turns its line into the
// benchmark's result. Exit status: 0 when every oracle held, 1 when a check
// failed, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "netpkt/checksum.h"
#include "perfbench/runner/bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Cat;

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Compiler() {
#if defined(__clang__)
  return Cat("clang ", __clang_version__);
#elif defined(__GNUC__)
  return Cat("gcc ", __VERSION__);
#else
  return "unknown";
#endif
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <relay_bulk|relay_short_flows|crowd_ingest> --seed <n> "
               "--seconds <s> --trace <0|1> [--size tiny] [--trace-out <file>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--size") {
      opts.size = value == "tiny" ? perfbench::Size::kTiny : perfbench::Size::kFull;
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !(opts.seconds > 0)) {
    return Usage(argv[0]);
  }

  perfbench::Tracer tracer(opts.trace);
  perfbench::Result r;
  if (opts.workload == "relay_bulk") {
    r = perfbench::RunRelayBulk(opts, tracer);
  } else if (opts.workload == "relay_short_flows") {
    r = perfbench::RunRelayShortFlows(opts, tracer);
  } else if (opts.workload == "crowd_ingest") {
    r = perfbench::RunCrowdIngest(opts, tracer);
  } else {
    return Usage(argv[0]);
  }

  if (opts.trace && !opts.trace_out.empty()) {
    if (!tracer.Write(opts.trace_out)) {
      r.Fail(Cat("could not write the span file ", opts.trace_out));
    }
    r.Set("bench.spans", static_cast<double>(tracer.span_count()));
  }

  std::string out = Cat("{\"workload\":", JsonString(opts.workload));
  out += Cat(",\"seed\":", opts.seed);
  out += Cat(",\"attempted\":", r.attempted);
  out += Cat(",\"failed\":", r.failed);
  out += ",\"failures\":[";
  for (size_t i = 0; i < r.failures.size(); ++i) {
    out += Cat(i ? "," : "", JsonString(r.failures[i]));
  }
  out += Cat("],\"env\":{\"build_type\":", JsonString(PERFBENCH_BUILD_TYPE));
  out += Cat(",\"compiler\":", JsonString(Compiler()));
  out += Cat(",\"nproc\":", sysconf(_SC_NPROCESSORS_ONLN));
  out += Cat(",\"cpu_model\":", JsonString(CpuModel()));
  out += Cat(",\"checksum_impl\":",
             JsonString(moppkt::ChecksumImplName(moppkt::ActiveChecksumImpl())));
  out += "},\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    out += Cat(first ? "" : ",", JsonString(name), ":", buf);
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return r.failed == 0 && r.attempted > 0 ? 0 : 1;
}
