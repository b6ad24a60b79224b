// Cross-tier record tracing: a compact trace context stamped on each
// measurement record at creation (device hash, lane, per-lane sequence,
// birth time), carried through uploader batch -> wire -> collector fold ->
// durability, with per-hop span timings recorded into a bounded per-collector
// TraceStore. Sampling is deterministic and hash-based (Mix64 of the trace
// id), so the device and every collector independently agree on which
// records are traced without coordination.
//
// "Where did this record spend its latency" is answerable from any
// collector's forensics endpoint without a debugger: each sampled record
// shows created -> batched -> received -> folded -> durable timestamps.
#ifndef MOPEYE_TELEMETRY_TRACE_H_
#define MOPEYE_TELEMETRY_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/hash.h"

namespace moptel {

// Stamped into a Measurement at creation. 18 bytes of provenance; born_ns
// < 0 means "not stamped" (tracing off), which keeps the default-constructed
// Measurement byte-identical in every CSV/wire surface that predates tracing.
struct TraceContext {
  uint32_t device_hash = 0;  // stable per-device hash (not the raw id)
  uint16_t lane = 0;         // worker lane that created the record
  uint32_t seq = 0;          // per-lane creation sequence
  int64_t born_ns = -1;      // creation time (sim ns); < 0 = unstamped

  bool valid() const { return born_ns >= 0; }

  // Globally-unique-enough trace id: full-avalanche mix of the identity
  // triple. Deterministic, so device and collectors derive the same id (and
  // hence the same sampling decision) from the wire fields alone.
  uint64_t id() const {
    return moputil::Mix64((static_cast<uint64_t>(device_hash) << 32) ^
                          (static_cast<uint64_t>(lane) << 26) ^ seq);
  }
};

// Deterministic hash-based sampling: a record is traced iff its mixed id
// falls in a 1/period slice. period == 0 disables tracing entirely;
// period == 1 traces everything.
inline bool TraceSampled(uint64_t trace_id, uint32_t period) {
  if (period == 0) return false;
  return trace_id % period == 0;
}

// Lifecycle hops a record passes through, device to durability. Values are
// wire-stable (encoded as u8 in the telemetry frame).
enum class TraceHop : uint8_t {
  kCreated = 0,   // measurement constructed on a worker lane
  kBatched = 1,   // drained into an upload batch by the Uploader
  kSent = 2,      // upload frame written to the collector connection
  kReceived = 3,  // telemetry frame decoded by the collector
  kFolded = 4,    // the batch's records folded into the collector store
  kDurable = 5,   // covered by a persisted snapshot (durable ack sent)
};

const char* TraceHopName(TraceHop hop);

struct TraceSpan {
  TraceHop hop = TraceHop::kCreated;
  int64_t time_ns = 0;
};

// Bounded store of sampled traces. AddSpan creates the trace on first sight,
// evicting the oldest trace once at capacity, and appends hops in arrival
// order. Single-threaded (collector event-loop owned); sized for forensics,
// not archival.
class TraceStore {
 public:
  explicit TraceStore(size_t capacity = 256);

  struct Trace {
    uint64_t id = 0;
    uint32_t device_hash = 0;
    uint16_t lane = 0;
    std::vector<TraceSpan> spans;
  };

  void AddSpan(uint64_t id, uint32_t device_hash, uint16_t lane, TraceHop hop,
               int64_t time_ns);

  // Appends a hop only if the trace is still retained; returns whether it
  // was. Late lifecycle stamps (fold, durability) use this: re-creating an
  // evicted trace would make a span-only zombie AND evict a live trace —
  // a long durability backlog could otherwise churn the whole store into
  // zombies.
  bool AppendSpan(uint64_t id, TraceHop hop, int64_t time_ns);

  const Trace* Find(uint64_t id) const;
  // Oldest-first snapshot of the retained traces.
  std::vector<Trace> Traces() const;
  size_t size() const { return traces_.size(); }
  size_t capacity() const { return capacity_; }
  uint64_t evicted() const { return evicted_; }

  // JSON array of traces, oldest first; spans in arrival order with hop
  // names. Served by the collector forensics endpoint.
  std::string RenderJson() const;

 private:
  size_t capacity_;
  uint64_t evicted_ = 0;
  std::deque<uint64_t> order_;  // insertion order, front = oldest
  std::unordered_map<uint64_t, Trace> traces_;
};

}  // namespace moptel

#endif  // MOPEYE_TELEMETRY_TRACE_H_
