#include "store/buffer_pool.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "util/flags.h"

#if defined(__unix__) || defined(__APPLE__)
#define NETCLUS_HAVE_MADVISE 1
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace netclus::store {

namespace {

// Registry of live pools for Find(). A handful of entries at most (one
// per mmap'ed index), so a linear scan under a mutex is fine.
nc::Mutex& RegistryMutex() {
  static nc::Mutex* mu = new nc::Mutex;
  return *mu;
}

std::vector<BufferPool*>& Registry() {
  static std::vector<BufferPool*>* pools = new std::vector<BufferPool*>;
  return *pools;
}

size_t OsPageBytes() {
#if defined(NETCLUS_HAVE_MADVISE)
  const long page = ::sysconf(_SC_PAGESIZE);
  return page > 0 ? static_cast<size_t>(page) : 4096;
#else
  return 4096;
#endif
}

}  // namespace

BufferPool::BufferPool(const uint8_t* base, size_t size,
                       const Options& options) {
  base_ = base;
  size_ = size;
  budget_bytes_ = options.budget_bytes;
  const size_t os_page = OsPageBytes();
  frame_bytes_ = std::max(options.frame_bytes, os_page);
  frame_bytes_ = (frame_bytes_ + os_page - 1) / os_page * os_page;
  const size_t num_frames = (size + frame_bytes_ - 1) / frame_bytes_;
  {
    nc::MutexLock lock(mu_);
    frames_.assign(num_frames, Frame());
  }
  nc::MutexLock lock(RegistryMutex());
  Registry().push_back(this);
}

BufferPool::~BufferPool() {
  nc::MutexLock lock(RegistryMutex());
  auto& pools = Registry();
  pools.erase(std::remove(pools.begin(), pools.end(), this), pools.end());
}

BufferPool* BufferPool::Find(const uint8_t* p) {
  nc::MutexLock lock(RegistryMutex());
  for (BufferPool* pool : Registry()) {
    if (p >= pool->base_ && p < pool->base_ + pool->size_) return pool;
  }
  return nullptr;
}

void BufferPool::UnlinkLocked(size_t f) {
  Frame& frame = frames_[f];
  if (frame.prev >= 0) {
    frames_[frame.prev].next = frame.next;
  } else {
    lru_head_ = frame.next;
  }
  if (frame.next >= 0) {
    frames_[frame.next].prev = frame.prev;
  } else {
    lru_tail_ = frame.prev;
  }
  frame.prev = frame.next = -1;
}

void BufferPool::PushFrontLocked(size_t f) {
  Frame& frame = frames_[f];
  frame.prev = -1;
  frame.next = lru_head_;
  if (lru_head_ >= 0) frames_[lru_head_].prev = static_cast<int32_t>(f);
  lru_head_ = static_cast<int32_t>(f);
  if (lru_tail_ < 0) lru_tail_ = static_cast<int32_t>(f);
}

void BufferPool::TouchFrameLocked(size_t f) {
  Frame& frame = frames_[f];
  if (!frame.resident) {
    frame.resident = true;
    ++resident_frames_;
    ++faults_;
    PushFrontLocked(f);
    return;
  }
  if (lru_head_ == static_cast<int32_t>(f)) return;  // already MRU
  UnlinkLocked(f);
  PushFrontLocked(f);
}

void BufferPool::DiscardFrame(size_t f) {
#if defined(NETCLUS_HAVE_MADVISE)
  const size_t begin = f * frame_bytes_;
  const size_t len = std::min(frame_bytes_, size_ - begin);
  // The mapping is PROT_READ MAP_PRIVATE and never written: DONTNEED
  // drops the physical pages, and any later read re-faults them from the
  // file with identical contents.
  ::madvise(const_cast<uint8_t*>(base_) + begin, len, MADV_DONTNEED);
#else
  (void)f;  // no madvise: the pool still tracks residency, evicts nothing
#endif
}

void BufferPool::EvictToBudgetLocked() {
  if (budget_bytes_ == 0) return;
  const uint64_t budget_frames = std::max<uint64_t>(1, budget_bytes_ / frame_bytes_);
  int32_t f = lru_tail_;
  // Pinned frames (always resident) sit outside the budget: it bounds the
  // evictable frames, so residency stays within budget + pinned.
  while (resident_frames_ - pinned_frames_ > budget_frames && f >= 0) {
    const int32_t prev = frames_[f].prev;
    if (frames_[f].pins == 0) {
      UnlinkLocked(static_cast<size_t>(f));
      frames_[f].resident = false;
      --resident_frames_;
      ++evictions_;
      DiscardFrame(static_cast<size_t>(f));
    }
    f = prev;  // pinned frames are skipped (soft cap)
  }
}

void BufferPool::Touch(const uint8_t* p, size_t len) {
  if (p < base_ || p >= base_ + size_ || len == 0) return;
  const size_t first = static_cast<size_t>(p - base_) / frame_bytes_;
  const size_t last =
      std::min(static_cast<size_t>(p - base_) + len - 1, size_ - 1) /
      frame_bytes_;
  nc::MutexLock lock(mu_);
  ++touches_;
  for (size_t f = first; f <= last; ++f) TouchFrameLocked(f);
  EvictToBudgetLocked();
}

void BufferPool::Pin(const uint8_t* p, size_t len) {
  if (p < base_ || p >= base_ + size_ || len == 0) return;
  const size_t first = static_cast<size_t>(p - base_) / frame_bytes_;
  const size_t last =
      std::min(static_cast<size_t>(p - base_) + len - 1, size_ - 1) /
      frame_bytes_;
  nc::MutexLock lock(mu_);
  for (size_t f = first; f <= last; ++f) {
    if (frames_[f].pins++ == 0) ++pinned_frames_;
    TouchFrameLocked(f);
  }
}

void BufferPool::Unpin(const uint8_t* p, size_t len) {
  if (p < base_ || p >= base_ + size_ || len == 0) return;
  const size_t first = static_cast<size_t>(p - base_) / frame_bytes_;
  const size_t last =
      std::min(static_cast<size_t>(p - base_) + len - 1, size_ - 1) /
      frame_bytes_;
  nc::MutexLock lock(mu_);
  for (size_t f = first; f <= last; ++f) {
    if (frames_[f].pins > 0 && --frames_[f].pins == 0) --pinned_frames_;
  }
}

void BufferPool::DropAll() {
  nc::MutexLock lock(mu_);
  for (size_t f = 0; f < frames_.size(); ++f) {
    if (!frames_[f].resident) continue;
    if (frames_[f].pins > 0) continue;
    UnlinkLocked(f);
    frames_[f].resident = false;
    --resident_frames_;
    ++evictions_;
  }
#if defined(NETCLUS_HAVE_MADVISE)
  // One call for the whole mapping beats per-frame madvise; pinned
  // frames lose physical residency too but re-fault on next access —
  // pinning protects against *eviction policy*, not explicit drops.
  ::madvise(const_cast<uint8_t*>(base_), size_, MADV_DONTNEED);
#endif
}

BufferPool::Stats BufferPool::GetStats() const {
  nc::MutexLock lock(mu_);
  Stats stats;
  stats.budget_bytes = budget_bytes_;
  stats.frame_bytes = frame_bytes_;
  stats.resident_bytes = resident_frames_ * frame_bytes_;
  stats.pinned_frames = pinned_frames_;
  stats.touches = touches_;
  stats.faults = faults_;
  stats.evictions = evictions_;
  return stats;
}

bool BufferPool::ParseByteSize(const std::string& text, uint64_t* bytes) {
  if (text.empty()) return false;
  if (!std::isdigit(static_cast<unsigned char>(text.front()))) return false;
  char* endp = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &endp, 10);
  if (endp == text.c_str()) return false;
  std::string suffix(endp);
  while (!suffix.empty() && std::isspace(static_cast<unsigned char>(suffix.front()))) {
    suffix.erase(suffix.begin());
  }
  for (char& c : suffix) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  uint64_t mult = 1;
  if (!suffix.empty()) {
    const char unit = suffix.front();
    switch (unit) {
      case 'k': mult = uint64_t{1} << 10; break;
      case 'm': mult = uint64_t{1} << 20; break;
      case 'g': mult = uint64_t{1} << 30; break;
      case 't': mult = uint64_t{1} << 40; break;
      case 'b': mult = 1; break;
      default: return false;
    }
    const std::string rest = suffix.substr(1);
    if (!(rest.empty() || rest == "i" || rest == "ib" ||
          (unit != 'b' && rest == "b"))) {
      return false;
    }
  }
  *bytes = static_cast<uint64_t>(value) * mult;
  return true;
}

uint64_t BufferPool::BudgetFromEnv() {
  const std::string raw = util::GetEnvString("NETCLUS_PAGE_BUDGET", "");
  if (raw.empty() || raw == "unlimited" || raw == "0") return 0;
  uint64_t bytes = 0;
  if (!ParseByteSize(raw, &bytes)) return 0;
  return bytes;
}

}  // namespace netclus::store
