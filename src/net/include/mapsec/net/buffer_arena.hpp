// Pooled buffer slabs for the socket bearer's record path.
//
// The OMA DRM embedded study in PAPERS.md makes the uncomfortable point
// that once the crypto kernels are paid for, protocol-stack overhead —
// allocation, copying, syscalls — is what dominates an appliance-class
// port. The real-socket bearer is therefore built against this arena: a
// fixed-size slab recycler whose steady state allocates nothing. Every
// per-connection rx/tx byte queue (SlabQueue) borrows slabs, readv
// scatters straight into them, sendmsg gathers straight out of them, and
// a closed connection returns its slabs to the free list for the next
// one. The Stats counters are the audit trail: `allocations` only moves
// when the free list was empty — which, by construction, is exactly when
// `in_use` reaches a new peak — so a fleet that pre-reserves its working
// set and finishes with `allocations == reserved` has provably served
// all traffic without a single record-path allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "mapsec/crypto/bytes.hpp"

namespace mapsec::net {

/// A writable or readable span of one slab — iovec without <sys/uio.h>.
struct IoSlice {
  std::uint8_t* data = nullptr;
  std::size_t len = 0;
};

class BufferArena {
 public:
  struct Stats {
    std::uint64_t allocations = 0;  // slabs malloc'd (free list was empty)
    std::uint64_t acquires = 0;     // slab checkouts (hits + allocations)
    std::uint64_t recycles = 0;     // slabs returned to the free list
    std::size_t in_use = 0;         // currently checked out
    std::size_t peak_in_use = 0;    // high-water mark of in_use
  };

  explicit BufferArena(std::size_t slab_bytes = 16 * 1024);

  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

  std::uint8_t* acquire();
  void recycle(std::uint8_t* slab);

  /// Pre-warm the free list to at least `slabs` slabs. A fleet reserves
  /// its expected working set up front, then gates `allocations` staying
  /// equal to the reserve: proof the traffic never grew the pool.
  void reserve(std::size_t slabs);

  std::size_t slab_bytes() const { return slab_bytes_; }
  std::size_t free_slabs() const { return free_.size(); }
  const Stats& stats() const { return stats_; }

 private:
  std::size_t slab_bytes_;
  std::vector<std::unique_ptr<std::uint8_t[]>> owned_;
  std::vector<std::uint8_t*> free_;
  Stats stats_;
};

/// Byte FIFO over arena slabs with scatter/gather views. The socket
/// bearer keeps one per direction per connection: readv() lands bytes in
/// the regions writable() exposes (tail free space plus one staged spare
/// slab — genuine scatter once the tail is partially filled), sendmsg()
/// drains the regions gather() exposes. All slabs go back to the arena
/// on release() or destruction. Only the front/back slabs are partial;
/// every interior slab is full.
class SlabQueue {
 public:
  explicit SlabQueue(BufferArena& arena)
      : arena_(arena), slab_bytes_(arena.slab_bytes()) {}
  ~SlabQueue() { release(); }

  SlabQueue(const SlabQueue&) = delete;
  SlabQueue& operator=(const SlabQueue&) = delete;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slabs currently borrowed from the arena (incl. the staged spare).
  std::size_t slabs_held() const { return slabs_.size() + (spare_ ? 1 : 0); }

  /// Copy `data` onto the tail.
  void append(crypto::ConstBytes data);

  /// Expose up to two writable regions for a scatter read: the tail
  /// slab's free space (when partial) and a staged spare slab. Returns
  /// the region count (>= 1). Call commit(n) with the bytes actually
  /// written; no other mutation may intervene.
  std::size_t writable(IoSlice out[2]);
  void commit(std::size_t n);

  /// Copy up to `n` head bytes into `dst` without consuming. Returns the
  /// number copied.
  std::size_t peek(std::uint8_t* dst, std::size_t n) const;

  /// Contiguous view of `n` bytes starting `offset` into the queue.
  /// Returns an in-slab pointer when the range does not cross a slab
  /// boundary, otherwise copies into `scratch` (caller-supplied, >= n
  /// bytes) and returns that. Valid until the next mutation.
  const std::uint8_t* view(std::size_t offset, std::size_t n,
                           std::uint8_t* scratch) const;

  /// Drop `n` head bytes, recycling emptied slabs.
  void consume(std::size_t n);

  /// Expose up to `max` head regions for a gather write. Returns the
  /// region count.
  std::size_t gather(IoSlice* out, std::size_t max) const;

  /// Recycle every slab (including the spare); the queue ends empty.
  void release();

 private:
  // Bytes the front slab holds: up to tail_ when it is also the back.
  std::size_t front_end() const {
    return slabs_.size() == 1 ? tail_ : slab_bytes_;
  }

  BufferArena& arena_;
  std::size_t slab_bytes_;
  std::vector<std::uint8_t*> slabs_;  // FIFO: front = oldest
  std::size_t head_ = 0;  // consumed bytes of slabs_.front()
  std::size_t tail_ = 0;  // used bytes of slabs_.back()
  std::uint8_t* spare_ = nullptr;  // staged readv target, not yet in FIFO
  std::size_t size_ = 0;
};

}  // namespace mapsec::net
