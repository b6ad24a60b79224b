#include "netpkt/packet_buf.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"
#include "util/thread_annotations.h"

namespace moppkt {

namespace {
constexpr size_t kHeaderBytes =
    (sizeof(PacketBuf::Header) + alignof(std::max_align_t) - 1) /
    alignof(std::max_align_t) * alignof(std::max_align_t);
}  // namespace

// ---------------- PacketBuf ----------------

PacketBuf& PacketBuf::operator=(PacketBuf&& o) noexcept {
  if (this != &o) {
    Release();
    slab_ = o.slab_;
    size_ = o.size_;
    o.slab_ = nullptr;
    o.size_ = 0;
  }
  return *this;
}

uint8_t* PacketBuf::data() { return slab_ ? slab_ + kHeaderBytes : nullptr; }
const uint8_t* PacketBuf::data() const { return slab_ ? slab_ + kHeaderBytes : nullptr; }
size_t PacketBuf::capacity() const { return slab_ ? header()->capacity : 0; }

void PacketBuf::set_size(size_t n) {
  MOP_CHECK(slab_ != nullptr && n <= header()->capacity);
  size_ = n;
}

std::span<uint8_t> PacketBuf::writable() { return {data(), capacity()}; }
std::span<const uint8_t> PacketBuf::bytes() const { return {data(), size_}; }

void PacketBuf::Assign(std::span<const uint8_t> src) {
  MOP_CHECK(slab_ != nullptr && src.size() <= header()->capacity);
  if (!src.empty()) {  // empty spans may carry a null data()
    std::memcpy(data(), src.data(), src.size());
  }
  size_ = src.size();
}

std::vector<uint8_t> PacketBuf::ToVector() const {
  return slab_ ? std::vector<uint8_t>(data(), data() + size_) : std::vector<uint8_t>();
}

void PacketBuf::Release() {
  if (!slab_) {
    return;
  }
  BufPool* pool = header()->pool;
  if (pool != nullptr) {
    pool->ReleaseSlab(slab_);
  } else {
    delete[] slab_;
  }
  slab_ = nullptr;
  size_ = 0;
}

// ---------------- BufPool ----------------

struct BufPool::Impl {
  mutable moputil::Mutex mu;
  std::vector<uint8_t*> free_list MOP_GUARDED_BY(mu);
  size_t max_free;  // set once at construction, read-only afterwards
  Stats stats MOP_GUARDED_BY(mu);
  // Oversize one-shot slabs self-free, so only same-capacity slabs ever
  // enter the free list.
};

BufPool::BufPool(size_t slab_capacity, size_t max_free)
    : impl_(new Impl), slab_capacity_(slab_capacity) {
  MOP_CHECK(slab_capacity > 0);
  impl_->max_free = max_free;
}

BufPool::~BufPool() {
  // Outstanding PacketBufs would dangle; the relay tears down its packets
  // before its pool (the default pool outlives everything).
  {
    moputil::MutexLock lock(impl_->mu);
    for (uint8_t* slab : impl_->free_list) {
      delete[] slab;
    }
  }
  delete impl_;
}

PacketBuf BufPool::AcquireSized(size_t min_capacity) {
  moputil::MutexLock lock(impl_->mu);
  ++impl_->stats.acquires;
  ++impl_->stats.in_use;
  impl_->stats.in_use_high_water =
      std::max(impl_->stats.in_use_high_water, impl_->stats.in_use);
  if (min_capacity <= slab_capacity_ && !impl_->free_list.empty()) {
    uint8_t* slab = impl_->free_list.back();
    impl_->free_list.pop_back();
    return PacketBuf(slab, 0);
  }
  PacketBuf::Header h;
  uint8_t* slab;
  if (min_capacity <= slab_capacity_) {
    ++impl_->stats.slab_allocs;
    slab = new uint8_t[kHeaderBytes + slab_capacity_];
    h = PacketBuf::Header{this, slab_capacity_};
  } else {
    ++impl_->stats.oversize_allocs;
    slab = new uint8_t[kHeaderBytes + min_capacity];
    h = PacketBuf::Header{nullptr, min_capacity};  // self-freeing, never pooled
    --impl_->stats.in_use;  // pool does not track oversize lifetime
    impl_->stats.in_use_high_water =
        std::max(impl_->stats.in_use_high_water, impl_->stats.in_use);
  }
  std::memcpy(slab, &h, sizeof(PacketBuf::Header));
  return PacketBuf(slab, 0);
}

PacketBuf BufPool::AcquireCopy(std::span<const uint8_t> bytes) {
  PacketBuf buf = AcquireSized(bytes.size());
  buf.Assign(bytes);
  return buf;
}

void BufPool::ReleaseSlab(uint8_t* slab) {
  moputil::MutexLock lock(impl_->mu);
  ++impl_->stats.releases;
  MOP_CHECK(impl_->stats.in_use > 0);
  --impl_->stats.in_use;
  if (impl_->free_list.size() < impl_->max_free) {
    impl_->free_list.push_back(slab);
  } else {
    delete[] slab;
  }
}

BufPool::Stats BufPool::stats() const {
  moputil::MutexLock lock(impl_->mu);
  Stats s = impl_->stats;
  s.free_count = impl_->free_list.size();
  return s;
}

BufPool& BufPool::Default() {
  static BufPool pool;  // constructed on first use, frees its slabs at exit
  return pool;
}

}  // namespace moppkt
