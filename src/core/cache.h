// Client-side cache held by a mobile unit. Entries carry the validity
// timestamp semantics of §2: an entry validated by the report broadcast at
// T_i is stamped T_i; an entry fetched uplink is stamped with the server
// time of the fetch. An optional capacity bound evicts in LRU order (an
// extension; the paper's model caches the whole hot spot).
//
// Storage is keyed by *domain position*. The domain is a sorted,
// duplicate-free id list — normally the unit's hot spot (mu/hotspot.h),
// shared read-only by every unit that queries it — and position p holds the
// p-th smallest id. The cache keeps one CacheEntry per position plus a
// presence bitset, both sized once when the domain is bound, so lookups are
// a direct index (an arithmetic offset for contiguous domains, a binary
// search otherwise) with no probing, rehashing or per-entry allocation. LRU
// links are one (prev, next) position pair per position, and exist only
// when the cache has a capacity bound.
//
// A cache constructed without a domain (tests, micro-benchmarks) grows a
// private one: Put of an id outside the domain inserts it at its sorted
// position, shifting the arrays above it. Put of an id outside a bound
// domain copies that domain into a private one first. Lookups of ids
// outside the domain — TS report entries, asynchronous pushes — are cheap
// misses.
//
// Revalidation is eager: ValidateAllThrough(t) raises every present entry's
// timestamp to t in one pass over the presence bits, which costs O(cached
// items) — a handful per unit — and keeps every lookup a plain read.

#ifndef MOBICACHE_CORE_CACHE_H_
#define MOBICACHE_CORE_CACHE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "db/database.h"
#include "sim/simulator.h"

namespace mobicache {

/// One cached item copy.
struct CacheEntry {
  uint64_t value = 0;
  /// Time up to which this copy is known to match the server (T_i of the
  /// last validating report, or the uplink fetch time).
  SimTime timestamp = 0.0;
};

inline constexpr uint32_t kNoDomainPosition = 0xffffffffu;

/// Position of `id` in a sorted, duplicate-free id list, or
/// kNoDomainPosition. Ids outside [front, back] miss on two comparisons; a
/// contiguous list answers by offset; anything else binary-searches below
/// the offset (a sorted duplicate-free list holds at least front + k at
/// position k).
inline uint32_t DomainPosition(std::span<const ItemId> domain, ItemId id) {
  if (domain.empty() || id < domain.front() || id > domain.back()) {
    return kNoDomainPosition;
  }
  const size_t off = id - domain.front();
  if (off < domain.size() && domain[off] == id) {
    return static_cast<uint32_t>(off);
  }
  const auto end = domain.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(off, domain.size()));
  const auto it = std::lower_bound(domain.begin(), end, id);
  return it != end && *it == id
             ? static_cast<uint32_t>(it - domain.begin())
             : kNoDomainPosition;
}

/// Position-keyed cache with optional LRU capacity. Not thread-safe (each
/// MU owns one).
class ClientCache {
 public:
  /// A cache with a private domain that grows on Put. `capacity` == 0
  /// means unbounded.
  explicit ClientCache(size_t capacity = 0);

  /// A cache over `domain` (sorted, duplicate-free; it must outlive the
  /// cache). All storage is allocated here; Put/Get/Erase/Validate/Clear
  /// on domain ids never allocate.
  ClientCache(std::span<const ItemId> domain, size_t capacity);

  ClientCache(const ClientCache&) = delete;
  ClientCache& operator=(const ClientCache&) = delete;

  /// Looks up an entry without affecting LRU order.
  const CacheEntry* Peek(ItemId id) const {
    const uint32_t p = PresentPosition(id);
    return p == kNoDomainPosition ? nullptr : &entries()[p];
  }

  /// Looks up an entry and marks it most-recently-used.
  const CacheEntry* Get(ItemId id);

  /// Inserts or overwrites; may evict the LRU entry if at capacity.
  void Put(ItemId id, uint64_t value, SimTime timestamp);

  /// Sets the validity timestamp of an existing entry (no LRU effect).
  /// Returns false if the item is not cached.
  bool SetTimestamp(ItemId id, SimTime timestamp);

  /// Marks every entry currently cached as valid through `timestamp`:
  /// raises each older stamp to it. Entries added or re-stamped later are
  /// unaffected.
  void ValidateAllThrough(SimTime timestamp);

  /// Removes an entry if present; returns whether it existed.
  bool Erase(ItemId id);

  /// Removes every entry for which `pred(id, entry)` holds, visiting in
  /// ascending id order; returns how many were removed. The predicate must
  /// not touch the cache.
  template <typename Pred>
  size_t EraseIf(Pred&& pred) {
    size_t erased = 0;
    const uint64_t* words = present();
    for (size_t w = 0; w < present_words(); ++w) {
      for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const uint32_t p = static_cast<uint32_t>(
            w * 64 + static_cast<size_t>(std::countr_zero(bits)));
        if (pred(domain_[p], static_cast<const CacheEntry&>(entries()[p]))) {
          ErasePosition(p);
          ++erased;
        }
      }
    }
    return erased;
  }

  /// Drops everything; the domain and its storage stay.
  void Clear();

  bool Contains(ItemId id) const {
    return PresentPosition(id) != kNoDomainPosition;
  }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  /// Ids of all cached items, ascending.
  std::vector<ItemId> Items() const;

  /// Visits every cached entry in ascending id order without allocating.
  /// The callback must not mutate the cache.
  template <typename Fn>
  void ForEachItem(Fn&& fn) const {
    const uint64_t* words = present();
    for (size_t w = 0; w < present_words(); ++w) {
      for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
        const size_t p = w * 64 + static_cast<size_t>(std::countr_zero(bits));
        fn(domain_[p], static_cast<const CacheEntry&>(entries()[p]));
      }
    }
  }

  /// Cumulative number of capacity evictions.
  uint64_t lru_evictions() const { return lru_evictions_; }

 private:
  struct LruLink {
    uint32_t prev;
    uint32_t next;
  };

  // Storage is one heap block, `slots_` positions wide:
  //   CacheEntry entries[slots_] | uint64_t present[words] |
  //   LruLink lru[slots_]   (only when capacity_ > 0) |
  //   ItemId ids[slots_]    (only for a private domain).
  // A bound cache has slots_ == |domain|; a private one keeps doubling
  // slack so that ascending inserts cost O(1) amortized. Every section holds
  // implicit-lifetime types, which the block's std::byte array creates
  // implicitly; the accessors launder the section pointers.
  template <typename T>
  T* Section(size_t offset) const {
    return std::launder(reinterpret_cast<T*>(block_.get() + offset));
  }
  CacheEntry* entries() const { return Section<CacheEntry>(0); }
  uint64_t* present() const {
    return Section<uint64_t>(slots_ * sizeof(CacheEntry));
  }
  size_t present_words() const { return (domain_.size() + 63) / 64; }
  LruLink* lru() const {
    return Section<LruLink>(slots_ * sizeof(CacheEntry) +
                            (slots_ + 63) / 64 * sizeof(uint64_t));
  }
  ItemId* own_ids() const {
    return Section<ItemId>(slots_ * sizeof(CacheEntry) +
                           (slots_ + 63) / 64 * sizeof(uint64_t) +
                           (capacity_ != 0 ? slots_ * sizeof(LruLink) : 0));
  }
  /// Allocates a zeroed block `slots` positions wide (previous contents
  /// are the caller's to copy).
  std::unique_ptr<std::byte[]> NewBlock(uint32_t slots) const;

  bool IsPresent(uint32_t p) const {
    return (present()[p >> 6] >> (p & 63)) & 1;
  }
  /// Position of `id` if it is cached, else kNoDomainPosition.
  uint32_t PresentPosition(ItemId id) const {
    const uint32_t p = DomainPosition(domain_, id);
    return p != kNoDomainPosition && IsPresent(p) ? p : kNoDomainPosition;
  }
  /// Adds `id` to a private domain (copying a bound one first) and returns
  /// its position.
  uint32_t GrowDomain(ItemId id);
  void ErasePosition(uint32_t p);
  void LinkFront(uint32_t p);
  void Unlink(uint32_t p);

  std::span<const ItemId> domain_;
  std::unique_ptr<std::byte[]> block_;
  size_t capacity_;
  uint32_t slots_ = 0;
  uint32_t size_ = 0;
  uint32_t lru_head_ = kNoDomainPosition;  // most recent
  uint32_t lru_tail_ = kNoDomainPosition;  // least recent
  bool private_domain_ = false;  ///< domain_ points into block_.
  uint64_t lru_evictions_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_CACHE_H_
