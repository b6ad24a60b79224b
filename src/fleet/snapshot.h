// Collector snapshot persistence.
//
// A snapshot is everything a collector must not lose across a restart: the
// aggregate store (per-key sums and log buckets), the global interners its
// keys index into, the ingest counters, the (device_id, batch_seq)
// duplicate-delivery windows, and the crowd-health store. The
// dedup windows are what make restart recovery fold-exact under
// at-least-once upload: a batch whose ack was lost in the crash is re-sent by
// the device, and the restored dedup window recognizes it instead of
// double-counting.
//
// File format (little-endian, built from the wire.* codec primitives):
//
//   u16 magic "MS"  u8 version  u32 payload_len  payload  u32 crc32(payload)
//
//   payload := app/isp/country string tables        (wire string-table codec)
//              7 x u64 ingest counters
//              u32 device_count, then per device:
//                u32 device_id, u32 seq_count, seq_count x u32 (oldest first)
//              u32 shard_count (written as 1; on load, 0 or past 65,536 is
//                corrupt and any other value is ignored: the store has no
//                shards, and older encoders wrote their shard count here),
//              u64 samples_folded,
//              u32 entry_count, then per entry (sorted by packed key):
//                u64 key, f64 sum,
//                log    { u64 total, u64 zero_or_less, i32 lo_index,
//                         u32 n, n x u32 buckets }
//              telemetry dedup windows (same shape as the batch windows)
//              4 x u64 telemetry counters
//              crowd health: u32 metric_count, then per metric (name-sorted):
//                u16 name_len, name, u8 kind, u8 merge,
//                kind 0: u64 counter
//                kind 1: u32 n, n x { u32 device, u32 seq, u64 value }
//                kind 2: f64 rel_err, f64 sum, u64 zero_or_less,
//                        u32 n, n x { i32 bucket_index, u64 count }
//              u32 device_count, device_count x u32 (sorted)
//              u64 health_folds, u64 health_conflicts
//
// Versions 1 to 3 still load. In place of the sum, each of their entries
// carries moments { u64 count, f64 mean, m2, min, max }: the decoder checks
// the count against the log total, restores the sum as mean x count, and
// drops m2, min and max. Versions 1 and 2 also carry a u8 merged flag after
// shard_count and after each entry key, and two P² sketches per entry
// between the moments and log (2 x { u64 count, 15 x f64 markers }); the
// decoder checks each flag is 0 or 1 and skips the markers. A version-1
// payload ends after the entries: it has no telemetry or health sections.
//
// Entries are the store's fine (app, isp, country, net_type, kind) keys.
// Encoders of versions 1 to 3 also wrote per-app and per-ISP rollup entries
// beside them, marked by wildcard key components (constants in
// snapshot.cc), and counted the rollups' folds in samples_folded. The
// decoder checks those entries like any other, then drops them and subtracts
// their counts from samples_folded, so an old file loads into the state a
// fresh ingest of its records builds. A version-4 file holding such a key is
// corrupt.
//
// Loading is strictly bounds-checked: bad magic/version/CRC, any truncation,
// table or bucket counts beyond their caps, bucket indexes outside the span
// a sketch's input clamps allow, entry keys no record could carry (an id
// past its string table, a kind or net type outside the wire's enums), an
// entry sum no fold could produce (negative or not finite), or internal
// inconsistencies (log buckets vs log total, moment count vs log total,
// rollup counts beyond samples_folded) yield an error Status and no partial
// state. Writes go to `<path>.tmp` and rename into place, so a crash during
// a write leaves the previous snapshot intact.
#ifndef MOPEYE_FLEET_SNAPSHOT_H_
#define MOPEYE_FLEET_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "collector/server.h"
#include "sim/event_loop.h"
#include "util/status.h"
#include "util/time.h"

namespace mopfleet {

constexpr uint16_t kSnapshotMagic = 0x534d;  // "MS"
// The version EncodeSnapshot writes. DecodeSnapshot reads it and versions 1
// to 3 (see the format above).
constexpr uint8_t kSnapshotVersion = 4;
// A collector's aggregate state is O(keys), a few MiB at crowd scale; a
// length prefix beyond this is a corrupt or hostile file.
constexpr size_t kMaxSnapshotPayload = 256u * 1024 * 1024;
// LogQuantile's input clamp bounds its span to ~800 buckets; anything past
// this is not a sketch this codebase produced.
constexpr size_t kMaxLogBuckets = 4096;

// CRC-32 (IEEE, reflected; "123456789" -> 0xCBF43926) over `data`. Sliced
// by 8: eight 256-entry tables built on first use fold 8 bytes per step,
// and a byte-wise loop takes the tail, so input of any length and alignment
// gives the byte-at-a-time value. It runs once per encode and once per
// decode over the whole payload.
uint32_t Crc32(std::span<const uint8_t> data);

// ---- In-memory codec ----

// Serializes a collector state into the framed snapshot byte layout above.
// Canonical: entries and dedup devices are emitted in sorted order, so equal
// states produce equal bytes.
std::vector<uint8_t> EncodeSnapshot(const mopcollect::CollectorState& state);

// Decodes a complete snapshot file image. All-or-nothing.
moputil::Result<mopcollect::CollectorState> DecodeSnapshot(std::span<const uint8_t> bytes);

// ---- File IO ----

// Atomic write: encodes, writes `<path>.tmp`, renames onto `path`.
moputil::Status WriteSnapshotFile(const std::string& path,
                                  const mopcollect::CollectorState& state);
moputil::Result<mopcollect::CollectorState> ReadSnapshotFile(const std::string& path);

// ---- Periodic snapshot policy ----
//
// Owns the collector's snapshot cadence: every `interval` it exports the
// collector state, writes the snapshot file atomically, and then calls
// CollectorServer::NotifyDurable() so acks withheld under durable_acks flush
// — the write *is* the durability point. `loop` and `server` must outlive
// the snapshotter.
class Snapshotter {
 public:
  struct Counters {
    uint64_t snapshots_written = 0;
    uint64_t write_failures = 0;
    size_t last_bytes = 0;
  };

  Snapshotter(mopsim::EventLoop* loop, mopcollect::CollectorServer* server,
              std::string path, moputil::SimDuration interval);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  // Starts the periodic cadence. Idempotent.
  void Start();
  // Stops it (a simulated crash simply stops snapshotting; the file on disk
  // stays at the last completed write).
  void Stop();

  // One immediate snapshot + durability notification.
  moputil::Status SnapshotNow();

  const std::string& path() const { return path_; }
  const Counters& counters() const { return counters_; }

 private:
  void Schedule();

  mopsim::EventLoop* loop_;
  mopcollect::CollectorServer* server_;
  std::string path_;
  moputil::SimDuration interval_;
  mopsim::TimerId timer_ = mopsim::kInvalidTimer;
  bool running_ = false;
  Counters counters_;
};

}  // namespace mopfleet

#endif  // MOPEYE_FLEET_SNAPSHOT_H_
