// StealBoard: one-slot-per-lane publication board for elephant-flow work
// stealing (thread model v3).
//
// An overloaded worker lane publishes its hottest flow here; the TunReader —
// the single dispatch point that already owns the flow -> lane routing
// decision — consumes publications and re-homes whole flows via handoff
// tokens through the read queues. The board itself carries no synchronization:
// lanes are virtual-time actors multiplexed on one event-loop thread, and a
// slot is written by exactly one lane and cleared by exactly one consumer, so
// every access is loop-thread confined. Lanes on real threads would need each
// slot to synchronize its one writer with its one reader (a seqlock, say).
//
// The template keeps this layer free of packet types: concurrent/ depends
// only on util/, and the flow key is the caller's business.
#ifndef MOPEYE_CONCURRENT_STEAL_BOARD_H_
#define MOPEYE_CONCURRENT_STEAL_BOARD_H_

#include <cstddef>
#include <vector>

namespace mopcc {

template <typename Flow>
class StealBoard {
 public:
  struct Publication {
    Flow flow{};
    size_t depth = 0;  // publisher's read-queue depth at publish time
    bool valid = false;
  };

  explicit StealBoard(size_t lanes) : slots_(lanes) {}

  // Lane `lane` offers `flow` for stealing. A still-pending publication from
  // the same lane is left in place: the consumer hasn't judged it yet, and
  // overwriting would let a lane spam the board faster than steals resolve.
  void Publish(size_t lane, const Flow& flow, size_t depth) {
    Publication& slot = slots_[lane];
    if (!slot.valid) {
      slot.flow = flow;
      slot.depth = depth;
      slot.valid = true;
    }
  }

  // Consumer side: takes and clears lane's publication. Returns false (and
  // leaves `out` untouched) when the slot is empty.
  bool Take(size_t lane, Publication* out) {
    Publication& slot = slots_[lane];
    if (!slot.valid) {
      return false;
    }
    *out = slot;
    slot.valid = false;
    return true;
  }

  bool pending(size_t lane) const { return slots_[lane].valid; }
  size_t lanes() const { return slots_.size(); }

 private:
  std::vector<Publication> slots_;
};

}  // namespace mopcc

#endif  // MOPEYE_CONCURRENT_STEAL_BOARD_H_
