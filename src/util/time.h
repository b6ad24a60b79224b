// Time primitives shared by the whole project.
//
// All simulated time is carried as integer nanoseconds (SimTime / SimDuration)
// so that event ordering is exact and runs are reproducible across platforms.
#ifndef MOPEYE_UTIL_TIME_H_
#define MOPEYE_UTIL_TIME_H_

#include <cstdint>

namespace moputil {

// Nanoseconds since the start of a simulation.
using SimTime = int64_t;
// Nanosecond interval.
using SimDuration = int64_t;

constexpr SimDuration kNanosecond = 1;
constexpr SimDuration kMicrosecond = 1000 * kNanosecond;
constexpr SimDuration kMillisecond = 1000 * kMicrosecond;
constexpr SimDuration kSecond = 1000 * kMillisecond;
constexpr SimDuration kMinute = 60 * kSecond;
constexpr SimDuration kHour = 60 * kMinute;

constexpr double ToMillis(SimDuration d) { return static_cast<double>(d) / kMillisecond; }
constexpr double ToSeconds(SimDuration d) { return static_cast<double>(d) / kSecond; }

constexpr SimDuration Millis(double ms) {
  return static_cast<SimDuration>(ms * static_cast<double>(kMillisecond));
}
constexpr SimDuration Micros(double us) {
  return static_cast<SimDuration>(us * static_cast<double>(kMicrosecond));
}
constexpr SimDuration Seconds(double s) {
  return static_cast<SimDuration>(s * static_cast<double>(kSecond));
}

}  // namespace moputil

#endif  // MOPEYE_UTIL_TIME_H_
