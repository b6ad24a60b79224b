// Shared integer mixing.
#ifndef MOPEYE_UTIL_HASH_H_
#define MOPEYE_UTIL_HASH_H_

#include <cstdint>

namespace moputil {

// splitmix64 finalizer: a full-avalanche 64-bit mixer. Used wherever nearby
// inputs (sequential device ids, trace ids, same-subnet address pairs) must
// spread uniformly — flow hashing, trace sampling, and fleet routing all
// share this one definition so they cannot drift apart. (Named
// Mix64 to keep it distinct from rng.h's stateful SplitMix64 generator
// step, which advances its state argument.)
constexpr uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace moputil

#endif  // MOPEYE_UTIL_HASH_H_
