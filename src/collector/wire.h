// Wire format of the crowdsourcing upload channel (device -> collector).
//
// A compact, versioned binary batch format: each TCP upload is a stream of
// length-prefixed frames. A batch frame interns every app/ISP/country/domain
// string once into per-batch string tables and then carries fixed 20-byte
// records mirroring mopcrowd::CrowdRecord, so a 200-record batch costs ~21
// bytes/record on the wire instead of re-sending five strings per record.
// Decoding is strictly bounds-checked and rejects malformed input (truncated
// frames, bad magic/version, out-of-range table indices) with a clean
// moputil::Status — the collector faces the open network.
#ifndef MOPEYE_COLLECTOR_WIRE_H_
#define MOPEYE_COLLECTOR_WIRE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/measurement.h"
#include "util/status.h"

namespace mopcollect {

// Frame payload limit: a batch of kMaxRecordsPerBatch records with full
// string tables fits comfortably; anything larger is a protocol violation.
constexpr size_t kMaxFramePayload = 4u * 1024 * 1024;
constexpr uint16_t kWireMagic = 0x4d42;  // "MB"
constexpr uint8_t kWireVersion = 1;
// Per-batch table sizes are u16-indexed; 0xffff is the "no entry" sentinel
// (mirrors mopcrowd::kNoApp / kNoIsp).
constexpr uint16_t kNoIndex = 0xffff;
constexpr uint32_t kNoDomain = 0xffffffff;
constexpr size_t kMaxTableEntries = 0xfffe;
constexpr size_t kMaxRecordsPerBatch = 100000;
// Decoder bound on a record's RTT (10 minutes — far beyond any connect or
// DNS timeout). Extreme floats would otherwise blow up the collector's
// log-bucket sketches: each absurd value widens a dense per-key bucket
// vector, an easy memory-exhaustion lever on the open network.
constexpr float kMaxRttMs = 600000.0f;
// Longest string the builder puts in a wire table (app labels, ISP names,
// and domains are all far shorter; a pathological string must not bloat —
// or, past the u16 length field, corrupt — the frame).
constexpr size_t kMaxWireStringBytes = 512;

enum class FrameType : uint8_t {
  kBatch = 0,      // device -> collector: measurement records
  kAck = 1,        // collector -> device: per-batch receipt
  kTelemetry = 2,  // device -> collector: piggybacked health deltas + traces
};

// Telemetry frames are internally versioned (separately from the outer wire
// version) and entry-wise length-prefixed, so the format can grow without a
// flag day: a decoder skips entry kinds it does not know, and a frame whose
// format version is newer than this constant is reported as kUnimplemented
// so the collector can skip the whole frame cleanly (telemetry is an
// optional enrichment, never load-bearing for the measurement path).
constexpr uint8_t kTelemetryFormatVersion = 1;
constexpr size_t kMaxHealthEntries = 512;
constexpr size_t kMaxHealthBuckets = 8192;
constexpr size_t kMaxTraceEntries = 512;
constexpr size_t kMaxTraceHops = 8;

// ---- Codec primitives ----
//
// Little-endian put/read helpers shared by the upload wire format and the
// collector snapshot format (fleet/snapshot.*): one binary dialect, one
// bounds-checking discipline for everything that crosses a trust boundary.

void PutU8(std::vector<uint8_t>* out, uint8_t v);
void PutU16(std::vector<uint8_t>* out, uint16_t v);
void PutU32(std::vector<uint8_t>* out, uint32_t v);
// Appends `v` as consecutive u32s with one resize (bulk PutU32).
void PutU32s(std::vector<uint8_t>* out, std::span<const uint32_t> v);
void PutU64(std::vector<uint8_t>* out, uint64_t v);
void PutF32(std::vector<uint8_t>* out, float v);
void PutF64(std::vector<uint8_t>* out, double v);

// Cursor over an encoded payload; every read checks remaining length.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  bool ReadU8(uint8_t* v);
  bool ReadU16(uint16_t* v);
  bool ReadU32(uint32_t* v);
  // Fills `out` from consecutive u32s in one bounds check; false (nothing
  // consumed) if fewer than out.size() remain.
  bool ReadU32s(std::span<uint32_t> out);
  bool ReadU64(uint64_t* v);
  bool ReadF32(float* v);
  bool ReadF64(double* v);
  bool ReadString(size_t len, std::string* v);
  // Advances past `len` bytes; false (nothing consumed) if fewer remain.
  bool Skip(size_t len);

 private:
  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// String table codec (u16 count, then u16-length-prefixed strings), shared
// by batch frames and snapshot interner sections. Decoding bounds the entry
// count at kMaxTableEntries and rejects truncation.
void EncodeStringTable(std::vector<uint8_t>* out, const std::vector<std::string>& table);
moputil::Status DecodeStringTable(ByteReader* r, const char* name,
                                  std::vector<std::string>* table);

// Interns strings into dense u16 ids. Used on both ends of the wire: the
// batch builder assigns per-batch table indices with it, and the collector
// remaps those onto its global id spaces (collector/aggregate_store.h).
class Interner {
 public:
  // Rebuilds an interner from a name table (snapshot restore). Names must be
  // distinct; entries beyond kMaxTableEntries are dropped.
  static Interner FromNames(const std::vector<std::string>& names);

  // Id for `s`, interning it if new. Returns kNoIndex once full.
  uint16_t Intern(const std::string& s);
  // Lookup without interning: the id of `s`, or kNoIndex if never seen.
  uint16_t Find(const std::string& s) const;
  // Name for an id interned earlier; any other id (kNoIndex included) maps
  // to "(none)".
  const std::string& Name(uint16_t id) const;
  const std::vector<std::string>& names() const { return names_; }
  size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, uint16_t> ids_;
};

// True when `kind` is a mopcrowd::RecordKind (kTcp, kDns) and `net_type` a
// mopnet::NetType (kWifi .. kLte): the enum bytes a record may carry. The
// batch decoder checks every record with it, and the snapshot decoder checks
// every aggregate key.
constexpr bool ValidRecordEnums(uint8_t kind, uint8_t net_type) {
  return kind <= 1 && net_type <= 3;
}

// One measurement on the wire: 20 bytes, the CrowdRecord layout with the
// string fields replaced by indices into the batch's tables (domain_idx is
// u32 for parity with CrowdRecord::domain_id; tables cap at u16 entries).
struct WireRecord {
  float rtt_ms = 0;
  uint8_t kind = 0;      // mopcrowd::RecordKind
  uint8_t net_type = 0;  // mopnet::NetType
  uint16_t isp_idx = kNoIndex;
  uint16_t country_idx = kNoIndex;
  uint16_t app_idx = kNoIndex;
  uint32_t device_id = 0;
  uint32_t domain_idx = kNoDomain;

  bool operator==(const WireRecord&) const = default;
};

constexpr size_t kWireRecordBytes = 20;

struct WireBatch {
  uint32_t device_id = 0;
  // Device-chosen batch identifier: the collector treats a (device_id,
  // batch_seq) pair it has already ingested as a duplicate delivery (the
  // uploader re-sends the identical frame when an ack goes missing) and
  // acks it without folding the records twice.
  uint32_t batch_seq = 0;
  std::vector<std::string> apps, isps, countries, domains;
  std::vector<WireRecord> records;

  bool operator==(const WireBatch&) const = default;
};

struct WireAck {
  uint32_t records_accepted = 0;
  uint8_t status = 0;  // 0 = ok, nonzero = batch rejected

  bool ok() const { return status == 0; }
};

// One device health metric riding a telemetry frame. Counters and histogram
// sketches ship as *deltas since the last acked export* (the uploader
// advances its baseline only on batch ack, and the collector dedups the
// frame by (device_id, seq), so each delta folds exactly once fleet-wide);
// gauges ship absolute with the frame seq deciding freshness.
struct WireHealthEntry {
  std::string name;
  uint8_t kind = 0;   // moptel::MetricSample::Kind
  uint8_t merge = 0;  // gauges: moptel::GaugeMerge
  uint64_t value = 0;  // counter delta / gauge absolute value
  // Histogram deltas: geometry + sparse added buckets.
  double rel_err = 0;
  double sum = 0;  // delta of the observation sum
  uint64_t zero_or_less = 0;
  std::vector<std::pair<int32_t, uint64_t>> buckets;  // (abs index, count delta)

  bool operator==(const WireHealthEntry&) const = default;
};

struct WireTraceHop {
  uint8_t hop = 0;  // moptel::TraceHop
  int64_t time_ns = 0;

  bool operator==(const WireTraceHop&) const = default;
};

// Device-side spans of one sampled record (created/batched/... hops); the
// collector appends its own hops on arrival, fold, and durability.
struct WireTraceEntry {
  uint64_t trace_id = 0;
  uint32_t device_hash = 0;
  uint16_t lane = 0;
  std::vector<WireTraceHop> hops;

  bool operator==(const WireTraceEntry&) const = default;
};

struct WireTelemetry {
  uint32_t device_id = 0;
  // Seq of the batch this frame rides with; the collector's telemetry dedup
  // window keys on (device_id, seq) exactly like batch dedup, so a retried
  // upload (identical bytes) never double-folds health.
  uint32_t seq = 0;
  std::vector<WireHealthEntry> health;
  std::vector<WireTraceEntry> traces;

  bool empty() const { return health.empty() && traces.empty(); }
  bool operator==(const WireTelemetry&) const = default;
};

// Accumulates measurements into a WireBatch, interning each distinct string
// once. One builder per upload batch.
class BatchBuilder {
 public:
  explicit BatchBuilder(uint32_t device_id, uint32_t batch_seq = 0);

  void Add(const mopeye::Measurement& m);
  // Moves the assembled batch out; the builder is spent afterwards.
  WireBatch TakeBatch();

 private:
  WireBatch batch_;
  Interner apps_, isps_, countries_, domains_;
};

// ---- Encoding ----

// Serializes a batch as one length-prefixed frame (u32 payload length + payload).
std::vector<uint8_t> EncodeBatchFrame(const WireBatch& batch);
std::vector<uint8_t> EncodeAckFrame(const WireAck& ack);
std::vector<uint8_t> EncodeTelemetryFrame(const WireTelemetry& t);

// ---- Decoding ----

// Frame type of a complete payload (validates magic + version first).
moputil::Result<FrameType> PeekFrameType(std::span<const uint8_t> payload);

// Like PeekFrameType but validates only magic + wire version and returns the
// raw type byte without bounding it: the dispatch point for forward
// compatibility. A receiver routes the types it knows and *skips* (rather
// than rejects) well-formed frames of unknown type, so a newer peer can add
// frame kinds without breaking older receivers.
moputil::Result<uint8_t> PeekRawFrameType(std::span<const uint8_t> payload);

// Decodes one complete frame payload (without the length prefix). Every read
// is bounds-checked; any structural violation yields an error Status and a
// partially-decoded batch is never returned.
moputil::Result<WireBatch> DecodeBatchPayload(std::span<const uint8_t> payload);
moputil::Result<WireAck> DecodeAckPayload(std::span<const uint8_t> payload);
// Telemetry decode distinguishes two failure classes by status code:
// kUnimplemented = well-formed but from a newer format version (skip the
// frame, keep the connection); anything else = malformed (treat like any
// other protocol violation).
moputil::Result<WireTelemetry> DecodeTelemetryPayload(std::span<const uint8_t> payload);

// Reassembles length-prefixed frames from an arbitrarily-chunked TCP stream.
// Feed() bytes as they arrive; Next() yields complete frame payloads in
// order. A length prefix beyond kMaxFramePayload poisons the reader (sticky
// error status) — the connection should be dropped.
class FrameReader {
 public:
  void Feed(std::span<const uint8_t> data);
  // Next complete payload, or nullopt when more bytes are needed (or the
  // reader is poisoned).
  std::optional<std::vector<uint8_t>> Next();

  const moputil::Status& status() const { return status_; }

 private:
  // Flat buffer with a consumed-prefix offset: appends and frame extraction
  // are bulk operations (this sits on the collector's per-connection ingest
  // path); the consumed prefix is compacted away once it dominates.
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;
  moputil::Status status_;
};

}  // namespace mopcollect

#endif  // MOPEYE_COLLECTOR_WIRE_H_
