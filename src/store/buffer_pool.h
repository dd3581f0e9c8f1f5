// Fixed-budget page cache over a read-only file mapping.
//
// Zero-copy (mmap) index loading keeps the whole file addressable, but
// the OS will happily let every touched page stay resident — an index
// must fit in RAM. The BufferPool bounds residency instead: it divides
// the mapping into fixed-size frames, tracks which frames the read path
// touches (PostingArena::ListBytes reports every list access, a frozen
// TlList every traversal of its core), keeps them on an LRU list, and
// when the unpinned resident total exceeds the budget it evicts cold
// frames with madvise(MADV_DONTNEED). The mapping is private
// and never written, so eviction is invisible to correctness: the virtual
// addresses stay valid and a later access simply re-faults the page from
// the file. Query results are bit-identical with the pool on or off —
// only residency and latency change.
//
// Pinning: frames covering hot metadata (the Elias-Fano offset tables)
// are pinned at index load so list-extent lookups never re-fault; pinned
// frames are skipped by eviction and sit outside the budget: it bounds
// the evictable frames, a soft cap of budget + pinned. So Pin can never
// deadlock against the budget, and a budget smaller than the pinned
// metadata still caches postings instead of re-faulting every list.
//
// Budget: NETCLUS_PAGE_BUDGET accepts plain bytes or human suffixes
// ("16MiB", "1g"); 0/unset means unlimited (no pool is created).
//
// Thread safety: Touch/Pin/Unpin/DropAll/GetStats are safe to call
// concurrently (serving snapshots share one mapping across query
// threads); the pool is a single nc::Mutex domain, locked once per list
// access, not per entry.
#ifndef NETCLUS_STORE_BUFFER_POOL_H_
#define NETCLUS_STORE_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace netclus::store {

class BufferPool {
 public:
  struct Options {
    uint64_t budget_bytes = 0;      ///< 0 = unlimited (callers skip the pool)
    size_t frame_bytes = 64 << 10;  ///< rounded up to the OS page size
  };

  struct Stats {
    uint64_t budget_bytes = 0;
    uint64_t frame_bytes = 0;
    uint64_t resident_bytes = 0;  ///< bytes in tracked-resident frames
    uint64_t pinned_frames = 0;
    uint64_t touches = 0;     ///< Touch calls
    uint64_t faults = 0;      ///< frames brought tracked-resident
    uint64_t evictions = 0;   ///< frames madvised away
  };

  /// A pool over [base, base + size) — an existing read-only private
  /// mapping the caller owns (MappedFile). Registers itself for Find().
  BufferPool(const uint8_t* base, size_t size, const Options& options);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Marks the frames covering [p, p + len) most-recently-used, then
  /// evicts LRU frames until the unpinned tracked-resident total fits the
  /// budget.
  /// Ranges outside the mapping are ignored.
  void Touch(const uint8_t* p, size_t len);

  /// Pin/unpin the frames covering a range: pinned frames are never
  /// evicted. Calls must balance.
  void Pin(const uint8_t* p, size_t len);
  void Unpin(const uint8_t* p, size_t len);

  /// Evicts every unpinned frame and madvises the whole mapping away —
  /// the cold-start knob for benches ("mmap-cold" latency columns) and
  /// the post-validation reset at index load (the load-time checksum and
  /// arena walks touch every page; queries should start from a cold,
  /// in-budget pool).
  void DropAll();

  Stats GetStats() const;

  const uint8_t* base() const { return base_; }
  size_t size() const { return size_; }

  /// The registered pool whose mapping contains `p`, or null. Lets
  /// PostingArena find the pool for the bytes it aliases without
  /// threading a pointer through every loader signature.
  static BufferPool* Find(const uint8_t* p);

  /// Parses NETCLUS_PAGE_BUDGET: 0 when unset/unparseable/0 (unlimited).
  static uint64_t BudgetFromEnv();

  /// "16MiB" / "64k" / "1073741824" -> bytes. Case-insensitive suffixes
  /// k/m/g/t with optional i/iB/B (all base-1024). False on junk.
  static bool ParseByteSize(const std::string& text, uint64_t* bytes);

 private:
  struct Frame {
    int32_t prev = -1;
    int32_t next = -1;
    uint32_t pins = 0;
    bool resident = false;
  };

  void TouchFrameLocked(size_t f) REQUIRES(mu_);
  void EvictToBudgetLocked() REQUIRES(mu_);
  void UnlinkLocked(size_t f) REQUIRES(mu_);
  void PushFrontLocked(size_t f) REQUIRES(mu_);
  void DiscardFrame(size_t f);  ///< madvise one frame away (no lock needed)

  const uint8_t* base_ = nullptr;
  size_t size_ = 0;
  size_t frame_bytes_ = 0;
  uint64_t budget_bytes_ = 0;

  mutable nc::Mutex mu_;
  std::vector<Frame> frames_ GUARDED_BY(mu_);
  int32_t lru_head_ GUARDED_BY(mu_) = -1;  ///< most recently used
  int32_t lru_tail_ GUARDED_BY(mu_) = -1;  ///< eviction candidate
  uint64_t resident_frames_ GUARDED_BY(mu_) = 0;
  uint64_t pinned_frames_ GUARDED_BY(mu_) = 0;
  uint64_t touches_ GUARDED_BY(mu_) = 0;
  uint64_t faults_ GUARDED_BY(mu_) = 0;
  uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace netclus::store

#endif  // NETCLUS_STORE_BUFFER_POOL_H_
