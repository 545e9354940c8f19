// Hot-spot construction: the subset of the database a mobile unit queries
// with high locality (§2). The paper's model gives every MU a fixed hot spot
// queried at rate lambda per item; the factories here build the common
// shapes (contiguous block, random subset, and the moving grid neighbourhood
// of the traffic-map example).
//
// A HotSpot is immutable once built, so a homogeneous cell shares one
// instance across all its units. It holds two views of the same ids:
//  * the draw list, exactly as given — query draws index it, so repeated
//    ids and their order keep the RNG-to-item mapping bit for bit;
//  * the domain, sorted and duplicate-free — the position map a unit's
//    ClientCache is keyed by.

#ifndef MOBICACHE_MU_HOTSPOT_H_
#define MOBICACHE_MU_HOTSPOT_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cache.h"
#include "db/database.h"
#include "util/random.h"

namespace mobicache {

class HotSpot {
 public:
  /// `ids` must be non-empty; order and repeats are kept for draws.
  explicit HotSpot(std::vector<ItemId> ids);

  /// The draw list, as given.
  const std::vector<ItemId>& ids() const { return ids_; }
  size_t size() const { return ids_.size(); }
  ItemId operator[](size_t index) const { return ids_[index]; }

  /// Sorted, duplicate-free ids: domain position p holds the p-th smallest.
  const std::vector<ItemId>& domain() const {
    return sorted_.empty() ? ids_ : sorted_;
  }
  /// Domain position of `id`, or kNoDomainPosition.
  uint32_t PositionOf(ItemId id) const { return DomainPosition(domain(), id); }
  /// Domain position of draw-list entry `index`.
  uint32_t PositionOfIndex(size_t index) const {
    return index_position_.empty() ? static_cast<uint32_t>(index)
                                   : index_position_[index];
  }

 private:
  std::vector<ItemId> ids_;
  /// The domain when the draw list is not strictly ascending; otherwise
  /// empty and the draw list is the domain.
  std::vector<ItemId> sorted_;
  /// Draw index -> domain position; empty when they coincide.
  std::vector<uint32_t> index_position_;
};

/// Builds an immutable hot spot for sharing across units.
std::shared_ptr<const HotSpot> MakeHotSpot(std::vector<ItemId> ids);

/// `size` consecutive items starting at `start` (wrapping modulo `n`).
std::vector<ItemId> ContiguousHotSpot(uint64_t n, uint64_t start,
                                      uint64_t size);

/// `size` distinct items sampled uniformly from [0, n).
std::vector<ItemId> RandomHotSpot(uint64_t n, uint64_t size, Rng& rng);

/// Grid neighbourhood for map-like databases (Example 2 of the paper): the
/// database is a `width` x `height` grid of sections in row-major order; the
/// hot spot is the (2r+1)^2 block centred on (x, y), clipped at the borders.
std::vector<ItemId> GridNeighborhoodHotSpot(uint64_t width, uint64_t height,
                                            uint64_t x, uint64_t y,
                                            uint64_t radius);

}  // namespace mobicache

#endif  // MOBICACHE_MU_HOTSPOT_H_
