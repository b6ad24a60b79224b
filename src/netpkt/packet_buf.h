// Pooled, reusable packet buffers for the relay hot path.
//
// MopEye's premise is that the VPN relay adds negligible overhead to every
// packet (paper §2.2, §3.5). Heap-allocating a std::vector per packet per
// stage defeats that, so the data path passes PacketBuf handles instead: an
// MTU-sized slab checked out of a free-list pool, filled in place, parsed by
// view, and returned to the pool when the last handle drops. In the steady
// state a packet travels tun-read -> parse -> state machine -> rebuild ->
// tun-write with zero heap allocations and zero payload copies.
//
// Ownership rules:
//  * PacketBuf is a unique handle; moving it transfers the slab, and the
//    destructor returns the slab to its pool (or frees oversize slabs).
//  * Parse results (ParsedPacket, TcpSegment::payload) are views into the
//    slab and are valid only while the PacketBuf they were parsed from is
//    alive. Whoever holds the PacketBuf outlives every view of it.
//  * PacketBuf is move-only. The simulator's tasks (mopsim::Task) are
//    move-only too, so a lambda capturing a PacketBuf schedules without a
//    copy; the only way to duplicate a packet is an explicit
//    BufPool::AcquireCopy.
#ifndef MOPEYE_NETPKT_PACKET_BUF_H_
#define MOPEYE_NETPKT_PACKET_BUF_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace moppkt {

class BufPool;

class PacketBuf {
 public:
  PacketBuf() = default;
  PacketBuf(PacketBuf&& o) noexcept : slab_(o.slab_), size_(o.size_) {
    o.slab_ = nullptr;
    o.size_ = 0;
  }
  PacketBuf& operator=(PacketBuf&& o) noexcept;
  PacketBuf(const PacketBuf&) = delete;
  PacketBuf& operator=(const PacketBuf&) = delete;
  ~PacketBuf() { Release(); }

  bool valid() const { return slab_ != nullptr; }
  explicit operator bool() const { return valid(); }

  uint8_t* data();
  const uint8_t* data() const;
  size_t size() const { return size_; }
  size_t capacity() const;

  // Sets the logical datagram length; must not exceed capacity().
  void set_size(size_t n);

  std::span<uint8_t> writable();                  // full capacity
  std::span<const uint8_t> bytes() const;         // [0, size)
  operator std::span<const uint8_t>() const { return bytes(); }

  // Copies `src` into the slab (must fit) and sets size.
  void Assign(std::span<const uint8_t> src);

  // Detaches into an owning vector (copies; boundary/compat use only).
  std::vector<uint8_t> ToVector() const;

  // Slab layout: [Header][capacity bytes]. The header remembers the owning
  // pool (null for oversize one-shot slabs) so Release() needs no context.
  struct Header {
    BufPool* pool;
    size_t capacity;
  };

 private:
  friend class BufPool;
  explicit PacketBuf(uint8_t* slab, size_t size) : slab_(slab), size_(size) {}
  Header* header() const { return reinterpret_cast<Header*>(slab_); }
  void Release();

  uint8_t* slab_ = nullptr;
  size_t size_ = 0;
};

// Fixed-capacity-slab free-list pool. Thread-safe: a PacketBuf may be
// acquired on one thread and released on another
// (BufPool.ConcurrentAcquireReleaseBalances). Slabs above
// `slab_capacity` are served as one-shot heap allocations and freed on
// release rather than pooled.
class BufPool {
 public:
  // 1500-byte MTU datagrams plus headroom; power of two for allocator
  // friendliness.
  static constexpr size_t kDefaultSlabCapacity = 2048;

  explicit BufPool(size_t slab_capacity = kDefaultSlabCapacity, size_t max_free = 4096);
  ~BufPool();
  BufPool(const BufPool&) = delete;
  BufPool& operator=(const BufPool&) = delete;

  // Checks a zero-size buffer out of the pool. Allocates a new slab only
  // when the free list is empty (counted in Stats::slab_allocs).
  PacketBuf Acquire() { return AcquireSized(slab_capacity_); }
  // As above, but guarantees capacity for `min_capacity` bytes (oversize
  // requests bypass the pool).
  PacketBuf AcquireSized(size_t min_capacity);
  // Convenience: acquire and copy `bytes` in.
  PacketBuf AcquireCopy(std::span<const uint8_t> bytes);

  struct Stats {
    uint64_t acquires = 0;       // total Acquire* calls
    uint64_t slab_allocs = 0;    // pool-sized slabs heap-allocated (free list miss)
    uint64_t oversize_allocs = 0;  // requests above slab_capacity (never pooled)
    // Always 0: PacketBuf has no copy. Kept for the exported
    // mopeye_bufpool_copies_total metric and its benchmark readers.
    uint64_t copies = 0;
    uint64_t releases = 0;
    size_t free_count = 0;       // slabs parked on the free list now
    size_t in_use = 0;           // handles outstanding now
    // netpkt sits below telemetry in the layering DAG, so the pool keeps its
    // own peak; the engine exports it via AddExternalGauge.
    size_t in_use_high_water = 0;  // moplint-allow: raw-counter
  };
  Stats stats() const;
  size_t slab_capacity() const { return slab_capacity_; }

  // The process-wide pool the relay data path draws from. The simulated
  // engine, tun device, and app stack all share it so a packet's slab is
  // reused end to end.
  static BufPool& Default();

 private:
  friend class PacketBuf;
  void ReleaseSlab(uint8_t* slab);

  struct Impl;
  Impl* impl_;
  size_t slab_capacity_;
};

}  // namespace moppkt

#endif  // MOPEYE_NETPKT_PACKET_BUF_H_
