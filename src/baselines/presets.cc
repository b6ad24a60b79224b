#include "baselines/presets.h"

namespace mopbase {

mopeye::Config MopEyeConfig() { return mopeye::Config(); }

mopeye::Config HaystackConfig() {
  mopeye::Config cfg;
  cfg.read_mode = mopeye::Config::TunReadMode::kSleepAdaptive;
  cfg.write_scheme = mopeye::Config::WriteScheme::kQueueWrite;
  cfg.put_scheme = mopeye::Config::PutScheme::kOldPut;
  cfg.mapping = mopeye::Config::MappingStrategy::kCacheBased;
  cfg.protect_mode = mopeye::Config::ProtectMode::kPerSocket;
  cfg.measure_dns = false;  // Haystack analyzes privacy, not latency
  // Per-packet flow reassembly + string scanning over payloads.
  cfg.content_inspection = std::make_shared<moputil::LogNormalDelay>(
      moputil::Micros(260), 0.45, moputil::Micros(80), moputil::Millis(3));
  // Flow reassembly buffers per connection plus global caches/models.
  cfg.extra_memory_per_client = 512 * 1024;
  cfg.extra_memory_base = 120 * 1024 * 1024;
  return cfg;
}

mopeye::Config ToyVpnConfig() {
  mopeye::Config cfg;
  cfg.read_mode = mopeye::Config::TunReadMode::kSleepFixed;
  cfg.sleep_interval = moputil::Millis(100);
  cfg.write_scheme = mopeye::Config::WriteScheme::kDirectWrite;
  cfg.protect_mode = mopeye::Config::ProtectMode::kPerSocket;
  return cfg;
}

}  // namespace mopbase
