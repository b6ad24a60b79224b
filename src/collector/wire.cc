#include "collector/wire.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/stats.h"
#include "util/strings.h"

namespace mopcollect {

// ---- Little-endian primitives ----

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v & 0xff));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutU32s(std::vector<uint8_t>* out, std::span<const uint32_t> v) {
  const size_t at = out->size();
  out->resize(at + 4 * v.size());
  uint8_t* p = out->data() + at;
  if constexpr (std::endian::native == std::endian::little) {
    if (!v.empty()) {
      std::memcpy(p, v.data(), 4 * v.size());
    }
  } else {
    for (uint32_t x : v) {
      for (int i = 0; i < 4; ++i) {
        *p++ = static_cast<uint8_t>((x >> (8 * i)) & 0xff);
      }
    }
  }
}

void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<uint8_t>((v >> (8 * i)) & 0xff));
  }
}

void PutF32(std::vector<uint8_t>* out, float v) { PutU32(out, std::bit_cast<uint32_t>(v)); }

void PutF64(std::vector<uint8_t>* out, double v) { PutU64(out, std::bit_cast<uint64_t>(v)); }

bool ByteReader::ReadU8(uint8_t* v) {
  if (remaining() < 1) {
    return false;
  }
  *v = data_[pos_++];
  return true;
}

bool ByteReader::ReadU16(uint16_t* v) {
  if (remaining() < 2) {
    return false;
  }
  *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return true;
}

bool ByteReader::ReadU32(uint32_t* v) {
  if (remaining() < 4) {
    return false;
  }
  *v = static_cast<uint32_t>(data_[pos_]) | (static_cast<uint32_t>(data_[pos_ + 1]) << 8) |
       (static_cast<uint32_t>(data_[pos_ + 2]) << 16) |
       (static_cast<uint32_t>(data_[pos_ + 3]) << 24);
  pos_ += 4;
  return true;
}

bool ByteReader::ReadU32s(std::span<uint32_t> out) {
  if (remaining() / 4 < out.size()) {
    return false;
  }
  const uint8_t* p = data_.data() + pos_;
  if constexpr (std::endian::native == std::endian::little) {
    if (!out.empty()) {
      std::memcpy(out.data(), p, 4 * out.size());
    }
  } else {
    for (uint32_t& x : out) {
      x = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
          (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
      p += 4;
    }
  }
  pos_ += 4 * out.size();
  return true;
}

bool ByteReader::ReadU64(uint64_t* v) {
  if (remaining() < 8) {
    return false;
  }
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    out |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)]) << (8 * i);
  }
  pos_ += 8;
  *v = out;
  return true;
}

bool ByteReader::ReadF32(float* v) {
  uint32_t bits = 0;
  if (!ReadU32(&bits)) {
    return false;
  }
  *v = std::bit_cast<float>(bits);
  return true;
}

bool ByteReader::ReadF64(double* v) {
  uint64_t bits = 0;
  if (!ReadU64(&bits)) {
    return false;
  }
  *v = std::bit_cast<double>(bits);
  return true;
}

bool ByteReader::ReadString(size_t len, std::string* v) {
  if (remaining() < len) {
    return false;
  }
  v->assign(reinterpret_cast<const char*>(data_.data()) + pos_, len);
  pos_ += len;
  return true;
}

bool ByteReader::Skip(size_t len) {
  if (remaining() < len) {
    return false;
  }
  pos_ += len;
  return true;
}

namespace {

moputil::Status Truncated(const char* what) {
  return moputil::OutOfRange(moputil::StrFormat("truncated frame: %s", what));
}

}  // namespace

void EncodeStringTable(std::vector<uint8_t>* out, const std::vector<std::string>& table) {
  PutU16(out, static_cast<uint16_t>(table.size()));
  for (const std::string& s : table) {
    // The builder clips strings to kMaxWireStringBytes; clamp again here so
    // a hand-built batch cannot wrap the u16 length and corrupt the frame.
    size_t len = std::min<size_t>(s.size(), 0xffff);
    PutU16(out, static_cast<uint16_t>(len));
    out->insert(out->end(), s.begin(), s.begin() + static_cast<long>(len));
  }
}

moputil::Status DecodeStringTable(ByteReader* r, const char* name,
                                  std::vector<std::string>* table) {
  uint16_t count = 0;
  if (!r->ReadU16(&count)) {
    return Truncated(name);
  }
  if (count > kMaxTableEntries) {
    return moputil::InvalidArgument(
        moputil::StrFormat("%s table too large: %u entries", name, static_cast<unsigned>(count)));
  }
  table->reserve(count);
  for (uint16_t i = 0; i < count; ++i) {
    uint16_t len = 0;
    std::string s;
    if (!r->ReadU16(&len) || !r->ReadString(len, &s)) {
      return Truncated(name);
    }
    table->push_back(std::move(s));
  }
  return moputil::OkStatus();
}

namespace {

// Validates one decoded record against the batch's table sizes.
moputil::Status ValidateRecord(const WireRecord& rec, const WireBatch& batch, size_t index) {
  if (!ValidRecordEnums(rec.kind, rec.net_type)) {
    return moputil::InvalidArgument(moputil::StrFormat(
        "record %zu: bad kind %u or net_type %u", index, static_cast<unsigned>(rec.kind),
        static_cast<unsigned>(rec.net_type)));
  }
  if (!std::isfinite(rec.rtt_ms) || rec.rtt_ms < 0 || rec.rtt_ms > kMaxRttMs) {
    return moputil::InvalidArgument(moputil::StrFormat("record %zu: bad rtt", index));
  }
  if (rec.app_idx != kNoIndex && rec.app_idx >= batch.apps.size()) {
    return moputil::OutOfRange(
        moputil::StrFormat("record %zu: app index %u out of range", index, static_cast<unsigned>(rec.app_idx)));
  }
  if (rec.isp_idx != kNoIndex && rec.isp_idx >= batch.isps.size()) {
    return moputil::OutOfRange(
        moputil::StrFormat("record %zu: isp index %u out of range", index, static_cast<unsigned>(rec.isp_idx)));
  }
  if (rec.country_idx != kNoIndex && rec.country_idx >= batch.countries.size()) {
    return moputil::OutOfRange(moputil::StrFormat("record %zu: country index %u out of range",
                                                  index, static_cast<unsigned>(rec.country_idx)));
  }
  if (rec.domain_idx != kNoDomain && rec.domain_idx >= batch.domains.size()) {
    return moputil::OutOfRange(
        moputil::StrFormat("record %zu: domain index %u out of range", index, static_cast<unsigned>(rec.domain_idx)));
  }
  // The per-record device id exists for CrowdRecord layout parity; it must
  // agree with the batch header (retain-mode device attribution keys off
  // it, and a mismatch would let one device spoof another's roster entry).
  if (rec.device_id != batch.device_id) {
    return moputil::InvalidArgument(
        moputil::StrFormat("record %zu: device id mismatch", index));
  }
  return moputil::OkStatus();
}

std::vector<uint8_t> WrapFrame(std::vector<uint8_t> payload) {
  std::vector<uint8_t> frame;
  frame.reserve(4 + payload.size());
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

void PutHeader(std::vector<uint8_t>* out, FrameType type) {
  PutU16(out, kWireMagic);
  out->push_back(kWireVersion);
  out->push_back(static_cast<uint8_t>(type));
}

// Validates magic/version and returns the type byte.
moputil::Result<FrameType> DecodeHeader(ByteReader* r) {
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  if (!r->ReadU16(&magic) || !r->ReadU8(&version) || !r->ReadU8(&type)) {
    return Truncated("header");
  }
  if (magic != kWireMagic) {
    return moputil::InvalidArgument(moputil::StrFormat("bad magic 0x%04x", static_cast<unsigned>(magic)));
  }
  if (version != kWireVersion) {
    return moputil::InvalidArgument(
        moputil::StrFormat("unsupported wire version %u", static_cast<unsigned>(version)));
  }
  if (type > static_cast<uint8_t>(FrameType::kTelemetry)) {
    return moputil::InvalidArgument(moputil::StrFormat("unknown frame type %u", static_cast<unsigned>(type)));
  }
  return static_cast<FrameType>(type);
}

}  // namespace

// ---- Interner ----

namespace {
const std::string kNoneName = "(none)";
}  // namespace

Interner Interner::FromNames(const std::vector<std::string>& names) {
  Interner in;
  for (const std::string& s : names) {
    in.Intern(s);
  }
  return in;
}

uint16_t Interner::Intern(const std::string& s) {
  auto it = ids_.find(s);
  if (it != ids_.end()) {
    return it->second;
  }
  if (names_.size() >= kMaxTableEntries) {
    return kNoIndex;  // full: degrade to unattributed rather than fail
  }
  uint16_t id = static_cast<uint16_t>(names_.size());
  names_.push_back(s);
  ids_.emplace(s, id);
  return id;
}

std::vector<uint16_t> Interner::InternAll(const std::vector<std::string>& names) {
  std::vector<uint16_t> ids;
  ids.reserve(names.size());
  for (const std::string& s : names) {
    ids.push_back(Intern(s));
  }
  return ids;
}

uint16_t Interner::Find(const std::string& s) const {
  auto it = ids_.find(s);
  return it == ids_.end() ? kNoIndex : it->second;
}

const std::string& Interner::Name(uint16_t id) const {
  return id < names_.size() ? names_[id] : kNoneName;
}

// ---- BatchBuilder ----

BatchBuilder::BatchBuilder(uint32_t device_id, uint32_t batch_seq) {
  batch_.device_id = device_id;
  batch_.batch_seq = batch_seq;
}

namespace {
// Clips a string to the wire limit (pathological labels/domains must not
// bloat the frame).
std::string Clip(const std::string& s) {
  return s.size() <= kMaxWireStringBytes ? s : s.substr(0, kMaxWireStringBytes);
}
}  // namespace

void BatchBuilder::Add(const mopeye::Measurement& m) {
  WireRecord rec;
  rec.rtt_ms = static_cast<float>(moputil::ToMillis(m.rtt));
  rec.kind = m.kind == mopeye::MeasureKind::kDns ? 1 : 0;
  rec.net_type = static_cast<uint8_t>(m.net_type);
  rec.device_id = batch_.device_id;
  rec.app_idx = m.app.empty() ? kNoIndex : apps_.Intern(Clip(m.app));
  rec.isp_idx = m.isp.empty() ? kNoIndex : isps_.Intern(Clip(m.isp));
  rec.country_idx = m.country.empty() ? kNoIndex : countries_.Intern(Clip(m.country));
  if (m.domain.empty()) {
    rec.domain_idx = kNoDomain;
  } else {
    uint16_t idx = domains_.Intern(Clip(m.domain));
    rec.domain_idx = idx == kNoIndex ? kNoDomain : idx;
  }
  batch_.records.push_back(rec);
}

WireBatch BatchBuilder::TakeBatch() {
  batch_.apps = apps_.names();
  batch_.isps = isps_.names();
  batch_.countries = countries_.names();
  batch_.domains = domains_.names();
  return std::move(batch_);
}

// ---- Encoding ----

std::vector<uint8_t> EncodeBatchFrame(const WireBatch& batch) {
  std::vector<uint8_t> payload;
  payload.reserve(32 + batch.records.size() * kWireRecordBytes);
  PutHeader(&payload, FrameType::kBatch);
  PutU32(&payload, batch.device_id);
  PutU32(&payload, batch.batch_seq);
  EncodeStringTable(&payload, batch.apps);
  EncodeStringTable(&payload, batch.isps);
  EncodeStringTable(&payload, batch.countries);
  EncodeStringTable(&payload, batch.domains);
  PutU32(&payload, static_cast<uint32_t>(batch.records.size()));
  for (const WireRecord& rec : batch.records) {
    PutF32(&payload, rec.rtt_ms);
    payload.push_back(rec.kind);
    payload.push_back(rec.net_type);
    PutU16(&payload, rec.isp_idx);
    PutU16(&payload, rec.country_idx);
    PutU16(&payload, rec.app_idx);
    PutU32(&payload, rec.device_id);
    PutU32(&payload, rec.domain_idx);
  }
  return WrapFrame(std::move(payload));
}

std::vector<uint8_t> EncodeAckFrame(const WireAck& ack) {
  std::vector<uint8_t> payload;
  PutHeader(&payload, FrameType::kAck);
  PutU32(&payload, ack.records_accepted);
  payload.push_back(ack.status);
  return WrapFrame(std::move(payload));
}

namespace {

// Body of one health entry (the part behind the per-entry length prefix).
void EncodeHealthBody(std::vector<uint8_t>* out, const WireHealthEntry& e) {
  switch (e.kind) {
    case 0:  // counter delta
    case 1:  // gauge absolute
      PutU64(out, e.value);
      break;
    case 2: {  // histogram delta
      PutF64(out, e.rel_err);
      PutF64(out, e.sum);
      PutU64(out, e.zero_or_less);
      PutU32(out, static_cast<uint32_t>(e.buckets.size()));
      for (const auto& [index, count] : e.buckets) {
        PutU32(out, static_cast<uint32_t>(index));
        PutU64(out, count);
      }
      break;
    }
    default:
      break;  // unknown kinds encode an empty body
  }
}

moputil::Status DecodeHealthBody(std::span<const uint8_t> body, WireHealthEntry* e) {
  ByteReader r(body);
  switch (e->kind) {
    case 0:
    case 1:
      if (!r.ReadU64(&e->value)) {
        return Truncated("health scalar");
      }
      break;
    case 2: {
      uint32_t bucket_count = 0;
      if (!r.ReadF64(&e->rel_err) || !r.ReadF64(&e->sum) ||
          !r.ReadU64(&e->zero_or_less) || !r.ReadU32(&bucket_count)) {
        return Truncated("health histogram");
      }
      // Every index must lie in the span this geometry's input clamps allow:
      // the collector later rebuilds dense sketches over the index span.
      auto range = moputil::LogQuantile::LegalIndexRange(e->rel_err, kMaxHealthBuckets);
      if (!range) {
        return moputil::InvalidArgument("health histogram: bad rel_err");
      }
      if (bucket_count > kMaxHealthBuckets) {
        return moputil::InvalidArgument(moputil::StrFormat(
            "health histogram: %u buckets exceeds limit", static_cast<unsigned>(bucket_count)));
      }
      e->buckets.reserve(bucket_count);
      for (uint32_t i = 0; i < bucket_count; ++i) {
        uint32_t index = 0;
        uint64_t count = 0;
        if (!r.ReadU32(&index) || !r.ReadU64(&count)) {
          return Truncated("health bucket");
        }
        if (!range->Contains(static_cast<int32_t>(index))) {
          return moputil::InvalidArgument("health histogram: bucket index out of range");
        }
        e->buckets.emplace_back(static_cast<int32_t>(index), count);
      }
      break;
    }
    default:
      return moputil::Internal("decode of unknown health kind");
  }
  if (r.remaining() != 0) {
    return moputil::InvalidArgument("trailing bytes in health entry");
  }
  return moputil::OkStatus();
}

}  // namespace

std::vector<uint8_t> EncodeTelemetryFrame(const WireTelemetry& t) {
  std::vector<uint8_t> payload;
  payload.reserve(64 + t.health.size() * 48 + t.traces.size() * 40);
  PutHeader(&payload, FrameType::kTelemetry);
  PutU8(&payload, kTelemetryFormatVersion);
  PutU32(&payload, t.device_id);
  PutU32(&payload, t.seq);
  PutU16(&payload, static_cast<uint16_t>(t.health.size()));
  for (const WireHealthEntry& e : t.health) {
    size_t len = std::min<size_t>(e.name.size(), kMaxWireStringBytes);
    PutU16(&payload, static_cast<uint16_t>(len));
    payload.insert(payload.end(), e.name.begin(), e.name.begin() + static_cast<long>(len));
    PutU8(&payload, e.kind);
    PutU8(&payload, e.merge);
    // Length-prefixed body: a decoder that does not know this kind skips it
    // without understanding its layout.
    std::vector<uint8_t> body;
    EncodeHealthBody(&body, e);
    PutU32(&payload, static_cast<uint32_t>(body.size()));
    payload.insert(payload.end(), body.begin(), body.end());
  }
  PutU16(&payload, static_cast<uint16_t>(t.traces.size()));
  for (const WireTraceEntry& e : t.traces) {
    PutU64(&payload, e.trace_id);
    PutU32(&payload, e.device_hash);
    PutU16(&payload, e.lane);
    PutU8(&payload, static_cast<uint8_t>(e.hops.size()));
    for (const WireTraceHop& h : e.hops) {
      PutU8(&payload, h.hop);
      PutU64(&payload, static_cast<uint64_t>(h.time_ns));
    }
  }
  return WrapFrame(std::move(payload));
}

// ---- Decoding ----

moputil::Result<FrameType> PeekFrameType(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  return DecodeHeader(&r);
}

moputil::Result<uint8_t> PeekRawFrameType(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  uint16_t magic = 0;
  uint8_t version = 0;
  uint8_t type = 0;
  if (!r.ReadU16(&magic) || !r.ReadU8(&version) || !r.ReadU8(&type)) {
    return Truncated("header");
  }
  if (magic != kWireMagic) {
    return moputil::InvalidArgument(
        moputil::StrFormat("bad magic 0x%04x", static_cast<unsigned>(magic)));
  }
  if (version != kWireVersion) {
    return moputil::InvalidArgument(
        moputil::StrFormat("unsupported wire version %u", static_cast<unsigned>(version)));
  }
  return type;
}

moputil::Result<WireTelemetry> DecodeTelemetryPayload(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  auto type = DecodeHeader(&r);
  if (!type.ok()) {
    return type.status();
  }
  if (type.value() != FrameType::kTelemetry) {
    return moputil::InvalidArgument("expected a telemetry frame");
  }
  uint8_t format = 0;
  if (!r.ReadU8(&format)) {
    return Truncated("telemetry format version");
  }
  if (format > kTelemetryFormatVersion) {
    // Newer peer: the frame is presumably well-formed under a layout this
    // decoder does not know. Report it distinguishably so receivers skip it.
    return moputil::Unimplemented(
        moputil::StrFormat("telemetry format %u is newer than supported %u",
                           static_cast<unsigned>(format),
                           static_cast<unsigned>(kTelemetryFormatVersion)));
  }
  WireTelemetry t;
  uint16_t health_count = 0;
  if (!r.ReadU32(&t.device_id) || !r.ReadU32(&t.seq) || !r.ReadU16(&health_count)) {
    return Truncated("telemetry header");
  }
  if (health_count > kMaxHealthEntries) {
    return moputil::InvalidArgument(moputil::StrFormat(
        "telemetry health count %u exceeds limit", static_cast<unsigned>(health_count)));
  }
  t.health.reserve(health_count);
  for (uint16_t i = 0; i < health_count; ++i) {
    WireHealthEntry e;
    uint16_t name_len = 0;
    if (!r.ReadU16(&name_len)) {
      return Truncated("health name length");
    }
    if (name_len > kMaxWireStringBytes) {
      return moputil::InvalidArgument("health metric name too long");
    }
    uint32_t body_len = 0;
    std::string body;
    if (!r.ReadString(name_len, &e.name) || !r.ReadU8(&e.kind) ||
        !r.ReadU8(&e.merge) || !r.ReadU32(&body_len) ||
        body_len > r.remaining() || !r.ReadString(body_len, &body)) {
      return Truncated("health entry");
    }
    if (e.kind > 2) {
      continue;  // forward compat: unknown entry kind, body skipped above
    }
    auto st = DecodeHealthBody(
        std::span<const uint8_t>(reinterpret_cast<const uint8_t*>(body.data()), body.size()),
        &e);
    if (!st.ok()) {
      return st;
    }
    t.health.push_back(std::move(e));
  }
  uint16_t trace_count = 0;
  if (!r.ReadU16(&trace_count)) {
    return Truncated("trace count");
  }
  if (trace_count > kMaxTraceEntries) {
    return moputil::InvalidArgument(moputil::StrFormat(
        "telemetry trace count %u exceeds limit", static_cast<unsigned>(trace_count)));
  }
  t.traces.reserve(trace_count);
  for (uint16_t i = 0; i < trace_count; ++i) {
    WireTraceEntry e;
    uint8_t hop_count = 0;
    if (!r.ReadU64(&e.trace_id) || !r.ReadU32(&e.device_hash) ||
        !r.ReadU16(&e.lane) || !r.ReadU8(&hop_count)) {
      return Truncated("trace entry");
    }
    if (hop_count > kMaxTraceHops) {
      return moputil::InvalidArgument("trace entry has too many hops");
    }
    e.hops.reserve(hop_count);
    for (uint8_t h = 0; h < hop_count; ++h) {
      WireTraceHop hop;
      uint64_t t_bits = 0;
      if (!r.ReadU8(&hop.hop) || !r.ReadU64(&t_bits)) {
        return Truncated("trace hop");
      }
      hop.time_ns = static_cast<int64_t>(t_bits);
      e.hops.push_back(hop);
    }
    t.traces.push_back(std::move(e));
  }
  if (r.remaining() != 0) {
    return moputil::InvalidArgument("trailing bytes in telemetry frame");
  }
  return t;
}

moputil::Result<WireBatch> DecodeBatchPayload(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  auto type = DecodeHeader(&r);
  if (!type.ok()) {
    return type.status();
  }
  if (type.value() != FrameType::kBatch) {
    return moputil::InvalidArgument("expected a batch frame");
  }
  WireBatch batch;
  if (!r.ReadU32(&batch.device_id) || !r.ReadU32(&batch.batch_seq)) {
    return Truncated("batch header");
  }
  if (auto st = DecodeStringTable(&r, "app", &batch.apps); !st.ok()) {
    return st;
  }
  if (auto st = DecodeStringTable(&r, "isp", &batch.isps); !st.ok()) {
    return st;
  }
  if (auto st = DecodeStringTable(&r, "country", &batch.countries); !st.ok()) {
    return st;
  }
  if (auto st = DecodeStringTable(&r, "domain", &batch.domains); !st.ok()) {
    return st;
  }
  uint32_t count = 0;
  if (!r.ReadU32(&count)) {
    return Truncated("record count");
  }
  if (count > kMaxRecordsPerBatch) {
    return moputil::InvalidArgument(
        moputil::StrFormat("record count %u exceeds limit", static_cast<unsigned>(count)));
  }
  if (r.remaining() != static_cast<size_t>(count) * kWireRecordBytes) {
    return moputil::InvalidArgument(
        moputil::StrFormat("record section is %zu bytes, expected %zu", r.remaining(),
                           static_cast<size_t>(count) * kWireRecordBytes));
  }
  batch.records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    WireRecord rec;
    if (!r.ReadF32(&rec.rtt_ms) || !r.ReadU8(&rec.kind) || !r.ReadU8(&rec.net_type) ||
        !r.ReadU16(&rec.isp_idx) || !r.ReadU16(&rec.country_idx) || !r.ReadU16(&rec.app_idx) ||
        !r.ReadU32(&rec.device_id) || !r.ReadU32(&rec.domain_idx)) {
      return Truncated("record");
    }
    if (auto st = ValidateRecord(rec, batch, i); !st.ok()) {
      return st;
    }
    batch.records.push_back(rec);
  }
  return batch;
}

moputil::Result<WireAck> DecodeAckPayload(std::span<const uint8_t> payload) {
  ByteReader r(payload);
  auto type = DecodeHeader(&r);
  if (!type.ok()) {
    return type.status();
  }
  if (type.value() != FrameType::kAck) {
    return moputil::InvalidArgument("expected an ack frame");
  }
  WireAck ack;
  if (!r.ReadU32(&ack.records_accepted) || !r.ReadU8(&ack.status)) {
    return Truncated("ack");
  }
  if (r.remaining() != 0) {
    return moputil::InvalidArgument("trailing bytes after ack");
  }
  return ack;
}

// ---- FrameReader ----

void FrameReader::Feed(std::span<const uint8_t> data) {
  if (!status_.ok()) {
    return;
  }
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::optional<std::vector<uint8_t>> FrameReader::Next() {
  size_t avail = buf_.size() - consumed_;
  if (!status_.ok() || avail < 4) {
    return std::nullopt;
  }
  const uint8_t* p = buf_.data() + consumed_;
  uint32_t len = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
                 (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  if (len > kMaxFramePayload) {
    status_ = moputil::InvalidArgument(
        moputil::StrFormat("frame length %u exceeds limit", static_cast<unsigned>(len)));
    buf_.clear();
    consumed_ = 0;
    return std::nullopt;
  }
  if (avail < 4u + len) {
    return std::nullopt;
  }
  std::vector<uint8_t> payload(p + 4, p + 4 + len);
  consumed_ += 4u + len;
  if (consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > buf_.size() / 2 && consumed_ >= 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<long>(consumed_));
    consumed_ = 0;
  }
  return payload;
}

}  // namespace mopcollect
