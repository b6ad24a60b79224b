// Measurement records and the store they accumulate in.
//
// One record per opportunistic measurement: a TCP connect RTT attributed to
// an app, or a DNS query/response RTT (system-wide). The engine keeps one
// store, and every worker lane appends to it as its tasks run, so records
// sit in time order. The crowd study fills the same store from its
// generator, so the analysis pipeline is shared.
#ifndef MOPEYE_CORE_MEASUREMENT_H_
#define MOPEYE_CORE_MEASUREMENT_H_

#include <functional>
#include <string>
#include <vector>

#include "net/net_context.h"
#include "netpkt/ip.h"
#include "telemetry/trace.h"
#include "util/stats.h"
#include "util/time.h"

namespace mopeye {

enum class MeasureKind { kTcpConnect, kDns };

struct Measurement {
  moputil::SimTime time = 0;
  MeasureKind kind = MeasureKind::kTcpConnect;
  int uid = -1;
  std::string app;     // label ("Whatsapp"); "(unknown)" if mapping failed
  std::string domain;  // server domain when known (DNS name or reverse map)
  moppkt::SocketAddr server;
  moputil::SimDuration rtt = 0;
  mopnet::NetType net_type = mopnet::NetType::kWifi;
  std::string isp;
  std::string country;
  std::string device_id;
  // Cross-tier provenance, stamped by the engine at creation. Neither the
  // CSV nor the batch wire records carry it; the Uploader ships it only for
  // the records its UploaderPolicy::trace_sample_period selects.
  moptel::TraceContext trace;
};

class MeasurementStore {
 public:
  void Add(Measurement m) { records_.push_back(std::move(m)); }
  void Reserve(size_t n) { records_.reserve(n); }

  const std::vector<Measurement>& records() const { return records_; }
  size_t size() const { return records_.size(); }

  // Moves all accumulated records out (upload drain): the store is left empty
  // and keeps working — records added afterwards accumulate and export as
  // usual. No per-record copies.
  std::vector<Measurement> TakeRecords() {
    std::vector<Measurement> out = std::move(records_);
    records_.clear();
    return out;
  }
  size_t CountKind(MeasureKind k) const;

  // RTTs in milliseconds for records matching `pred` (null = all).
  moputil::Samples RttsMs(const std::function<bool(const Measurement&)>& pred = nullptr) const;

  // CSV export: one row per record (the app's upload format).
  std::string ToCsv() const;

 private:
  std::vector<Measurement> records_;
};

}  // namespace mopeye

#endif  // MOPEYE_CORE_MEASUREMENT_H_
