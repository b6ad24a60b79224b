// moplint fixture: the annotated wrapper is the sanctioned way to lock; no
// findings expected, including the explicitly suppressed raw mutex.
#include "util/thread_annotations.h"

struct Queue {
  moputil::Mutex mu;
  int depth MOP_GUARDED_BY(mu) = 0;
  void Bump() {
    moputil::MutexLock lock(mu);
    ++depth;
  }
};

// Interop with an external API that demands the std type, with a recorded
// waiver:
// moplint-allow: raw-mutex
using ExternalLock = std::mutex;
