#include "core/cache.h"

#include <cassert>
#include <cstring>

namespace mobicache {

namespace {
size_t WordsFor(size_t positions) { return (positions + 63) / 64; }
}  // namespace

std::unique_ptr<std::byte[]> ClientCache::NewBlock(uint32_t slots) const {
  const size_t bytes =
      slots * sizeof(CacheEntry) + WordsFor(slots) * sizeof(uint64_t) +
      (capacity_ != 0 ? slots * sizeof(LruLink) : 0) +
      (private_domain_ ? slots * sizeof(ItemId) : 0);
  // Value-initialized: every presence word starts clear.
  return std::make_unique<std::byte[]>(bytes);
}

ClientCache::ClientCache(size_t capacity)
    : capacity_(capacity), slots_(8), private_domain_(true) {
  block_ = NewBlock(slots_);
  domain_ = std::span<const ItemId>(own_ids(), 0);
}

ClientCache::ClientCache(std::span<const ItemId> domain, size_t capacity)
    : domain_(domain),
      capacity_(capacity),
      slots_(static_cast<uint32_t>(domain.size())) {
  assert(std::is_sorted(domain.begin(), domain.end()));
  assert(std::adjacent_find(domain.begin(), domain.end()) == domain.end());
  block_ = NewBlock(slots_);
}

const CacheEntry* ClientCache::Get(ItemId id) {
  const uint32_t p = PresentPosition(id);
  if (p == kNoDomainPosition) return nullptr;
  if (capacity_ != 0 && lru_head_ != p) {
    Unlink(p);
    LinkFront(p);
  }
  return &entries()[p];
}

void ClientCache::LinkFront(uint32_t p) {
  LruLink* lru = this->lru();
  lru[p].prev = kNoDomainPosition;
  lru[p].next = lru_head_;
  if (lru_head_ != kNoDomainPosition) lru[lru_head_].prev = p;
  lru_head_ = p;
  if (lru_tail_ == kNoDomainPosition) lru_tail_ = p;
}

void ClientCache::Unlink(uint32_t p) {
  LruLink* lru = this->lru();
  const uint32_t prev = lru[p].prev;
  const uint32_t next = lru[p].next;
  if (prev != kNoDomainPosition) lru[prev].next = next;
  else lru_head_ = next;
  if (next != kNoDomainPosition) lru[next].prev = prev;
  else lru_tail_ = prev;
}

uint32_t ClientCache::GrowDomain(ItemId id) {
  // Only caches without a hot-spot domain (tests, micro-benchmarks) or a
  // Put outside the bound domain reach this; a unit's cache is sized once
  // at construction. detlint:allow-function(alloc-event-path)
  const uint32_t n = static_cast<uint32_t>(domain_.size());
  const uint32_t k = static_cast<uint32_t>(
      std::lower_bound(domain_.begin(), domain_.end(), id) - domain_.begin());
  if (!private_domain_ || n == slots_) {
    // Move into a private block with doubling slack. Sections keep their
    // contents; their offsets follow the new width.
    const bool was_private = private_domain_;
    const uint32_t old_slots = slots_;
    std::unique_ptr<std::byte[]> old = std::move(block_);
    const std::span<const ItemId> old_domain = domain_;
    private_domain_ = true;
    slots_ = std::max<uint32_t>(8, 2 * n);
    block_ = NewBlock(slots_);
    if (n != 0) {
      const std::byte* src = old.get();
      std::memcpy(entries(), src, n * sizeof(CacheEntry));
      src += old_slots * sizeof(CacheEntry);
      std::memcpy(present(), src, WordsFor(n) * sizeof(uint64_t));
      src += WordsFor(old_slots) * sizeof(uint64_t);
      if (capacity_ != 0) {
        std::memcpy(lru(), src, n * sizeof(LruLink));
        src += old_slots * sizeof(LruLink);
      }
      // A private domain's ids live in its own block; a bound one's are
      // copied from the external list.
      std::memcpy(own_ids(),
                  was_private ? reinterpret_cast<const ItemId*>(src)
                              : old_domain.data(),
                  n * sizeof(ItemId));
    }
  }

  // Shift positions >= k up by one and put `id` at k.
  CacheEntry* entries = this->entries();
  ItemId* ids = own_ids();
  std::memmove(entries + k + 1, entries + k, (n - k) * sizeof(CacheEntry));
  entries[k] = CacheEntry{};
  std::memmove(ids + k + 1, ids + k, (n - k) * sizeof(ItemId));
  ids[k] = id;
  domain_ = std::span<const ItemId>(ids, n + 1);

  uint64_t* present = this->present();
  const size_t kw = k / 64;
  for (size_t w = WordsFor(n + 1) - 1; w > kw; --w) {
    present[w] = (present[w] << 1) | (present[w - 1] >> 63);
  }
  const uint64_t low = (uint64_t{1} << (k % 64)) - 1;
  present[kw] = (present[kw] & low) | ((present[kw] & ~low) << 1);

  if (capacity_ != 0) {
    LruLink* lru = this->lru();
    std::memmove(lru + k + 1, lru + k, (n - k) * sizeof(LruLink));
    const auto renumber = [k](uint32_t& link) {
      if (link != kNoDomainPosition && link >= k) ++link;
    };
    for (uint32_t p = 0; p <= n; ++p) {
      if (p == k) continue;
      renumber(lru[p].prev);
      renumber(lru[p].next);
    }
    renumber(lru_head_);
    renumber(lru_tail_);
  }
  return k;
}

void ClientCache::Put(ItemId id, uint64_t value, SimTime timestamp) {
  uint32_t p = DomainPosition(domain_, id);
  if (p == kNoDomainPosition) p = GrowDomain(id);
  entries()[p] = CacheEntry{value, timestamp};
  if (IsPresent(p)) {
    if (capacity_ != 0 && lru_head_ != p) {
      Unlink(p);
      LinkFront(p);
    }
    return;
  }
  if (capacity_ != 0) {
    if (size_ >= capacity_) {
      ErasePosition(lru_tail_);
      ++lru_evictions_;
    }
    LinkFront(p);
  }
  present()[p >> 6] |= uint64_t{1} << (p & 63);
  ++size_;
}

bool ClientCache::SetTimestamp(ItemId id, SimTime timestamp) {
  const uint32_t p = PresentPosition(id);
  if (p == kNoDomainPosition) return false;
  entries()[p].timestamp = timestamp;
  return true;
}

void ClientCache::ValidateAllThrough(SimTime timestamp) {
  const uint64_t* words = present();
  CacheEntry* entries = this->entries();
  for (size_t w = 0; w < present_words(); ++w) {
    for (uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      CacheEntry& e =
          entries[w * 64 + static_cast<size_t>(std::countr_zero(bits))];
      if (e.timestamp < timestamp) e.timestamp = timestamp;
    }
  }
}

bool ClientCache::Erase(ItemId id) {
  const uint32_t p = PresentPosition(id);
  if (p == kNoDomainPosition) return false;
  ErasePosition(p);
  return true;
}

void ClientCache::ErasePosition(uint32_t p) {
  present()[p >> 6] &= ~(uint64_t{1} << (p & 63));
  if (capacity_ != 0) Unlink(p);
  --size_;
}

void ClientCache::Clear() {
  std::fill_n(present(), present_words(), 0);
  size_ = 0;
  lru_head_ = kNoDomainPosition;
  lru_tail_ = kNoDomainPosition;
}

std::vector<ItemId> ClientCache::Items() const {
  // Snapshot API: returns a fresh id list by contract; callers that need an
  // allocation-free walk use ForEachItem instead.
  // detlint:allow-function(alloc-event-path)
  std::vector<ItemId> out;
  out.reserve(size_);
  ForEachItem([&](ItemId id, const CacheEntry&) { out.push_back(id); });
  return out;
}

}  // namespace mobicache
