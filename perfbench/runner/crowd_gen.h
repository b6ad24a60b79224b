// Seeded crowd traffic for the collector and fleet layers: device-clustered
// upload batches drawn with bench/collector_ingest's World weights (head
// apps by install rate x usage, country and cellular ISP by device), plus the
// kTelemetry frame an exporting uploader sends ahead of each batch, shaped as
// examples/fleet_e2e's devices produce it (Uploader::BuildTelemetry).
// The seed picks device ids, apps, networks and RTTs; batch size, device
// count, DNS share, trace sampling and frame cadence never change with it.
#ifndef MOPEYE_PERFBENCH_RUNNER_CROWD_GEN_H_
#define MOPEYE_PERFBENCH_RUNNER_CROWD_GEN_H_

#include <cstdint>
#include <vector>

#include "collector/wire.h"
#include "core/measurement.h"
#include "crowd/world.h"
#include "util/rng.h"

namespace perfbench {

class CrowdGenerator {
 public:
  static constexpr size_t kRecordsPerBatch = 500;
  static constexpr double kDnsShare = 0.15;
  // fleet_e2e's uploader policy: one record in 8 rides as a sampled trace.
  static constexpr uint32_t kTraceSamplePeriod = 8;

  CrowdGenerator(uint64_t seed, size_t devices);

  // Records of the next batch. Batches go round-robin over the devices, so
  // batch i comes from device i % devices with batch_seq i / devices + 1.
  // Every record carries a trace context, as fleet_e2e's devices stamp them.
  std::vector<mopeye::Measurement> NextBatch(uint32_t* device_id, uint32_t* batch_seq);
  // The telemetry frame that rides ahead of `batch`: the deltas of
  // fleet_e2e's device registry since the previous frame (records-generated
  // counter, RTT histogram of the batch, and the battery gauge on the
  // device's first frame) plus the batch's sampled traces.
  mopcollect::WireTelemetry Telemetry(uint32_t device_id, uint32_t batch_seq,
                                      const std::vector<mopeye::Measurement>& batch);

 private:
  mopcrowd::World world_;
  moputil::Rng rng_;
  std::vector<double> app_weights_;
  std::vector<uint32_t> device_ids_;
  std::vector<uint32_t> trace_seq_;     // per device
  std::vector<bool> gauge_exported_;  // per device
  size_t next_batch_ = 0;
};

}  // namespace perfbench

#endif  // MOPEYE_PERFBENCH_RUNNER_CROWD_GEN_H_
