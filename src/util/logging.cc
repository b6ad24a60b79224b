#include "util/logging.h"

#include <atomic>
#include <cstdio>

#include "util/thread_annotations.h"

namespace moputil {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarning};

// Fatal hook / sim clock / test sink. Plain pointers behind the sink mutex
// conventions: the clock pointer is installed by the (single) thread that
// drives the EventLoop and read by any logging thread — worker lanes are
// virtual actors on that same thread, so in-sim reads are unsynchronized by
// construction; real-thread tests install no clock.
std::atomic<void (*)()> g_fatal_hook{nullptr};
std::atomic<const int64_t*> g_clock_ns{nullptr};
std::atomic<void (*)(const char*, void*)> g_test_sink{nullptr};
std::atomic<void*> g_test_sink_arg{nullptr};
thread_local const char* g_lane_token = nullptr;

// Serializes the final sink write so lines logged from concurrent threads
// never interleave mid-line (Logging.ConcurrentWritersDeliverWholeLines).
// Function-local static: safe to log during static init/teardown of other
// objects.
Mutex& SinkMutex() {
  static Mutex mu;
  return mu;
}

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
    case LogLevel::kFatal:
      return "F";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

void SetFatalLogHook(void (*hook)()) {
  g_fatal_hook.store(hook, std::memory_order_release);
}

void SetLogClock(const int64_t* now_ns) {
  g_clock_ns.store(now_ns, std::memory_order_release);
}

const int64_t* GetLogClock() { return g_clock_ns.load(std::memory_order_acquire); }

void SetLogLaneToken(const char* token) { g_lane_token = token; }
const char* GetLogLaneToken() { return g_lane_token; }

void SetLogSinkForTest(void (*sink)(const char*, void*), void* arg) {
  g_test_sink_arg.store(arg, std::memory_order_release);
  g_test_sink.store(sink, std::memory_order_release);
}

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line) : level_(level) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  stream_ << "[" << LevelName(level);
  // Optional monotonic sim-time and lane-token segments. Only rendered while
  // installed, so processes that never start an EventLoop (and lines emitted
  // outside Run()) keep the original "[L file:line] " format byte-for-byte.
  if (const int64_t* clock = g_clock_ns.load(std::memory_order_acquire)) {
    char t[32];
    std::snprintf(t, sizeof(t), " t=%.9fs", static_cast<double>(*clock) * 1e-9);
    stream_ << t;
  }
  if (g_lane_token != nullptr) {
    stream_ << " " << g_lane_token;
  }
  stream_ << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::string msg = stream_.str();
  {
    MutexLock lock(SinkMutex());
    if (auto* sink = g_test_sink.load(std::memory_order_acquire)) {
      sink(msg.c_str(), g_test_sink_arg.load(std::memory_order_acquire));
    } else {
      std::fprintf(stderr, "%s\n", msg.c_str());
      std::fflush(stderr);
    }
  }
  if (level_ == LogLevel::kFatal) {
    if (auto* hook = g_fatal_hook.load(std::memory_order_acquire)) {
      hook();
    }
    std::abort();
  }
}

}  // namespace internal
}  // namespace moputil
