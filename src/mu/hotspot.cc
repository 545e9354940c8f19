#include "mu/hotspot.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <unordered_set>
#include <utility>

namespace mobicache {

HotSpot::HotSpot(std::vector<ItemId> ids) : ids_(std::move(ids)) {
  assert(!ids_.empty());
  if (std::adjacent_find(ids_.begin(), ids_.end(), std::greater_equal<>()) ==
      ids_.end()) {
    return;  // strictly ascending: the draw list is the domain
  }
  sorted_ = ids_;
  std::sort(sorted_.begin(), sorted_.end());
  sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
  index_position_.reserve(ids_.size());
  for (ItemId id : ids_) index_position_.push_back(PositionOf(id));
}

std::shared_ptr<const HotSpot> MakeHotSpot(std::vector<ItemId> ids) {
  return std::make_shared<const HotSpot>(std::move(ids));
}

std::vector<ItemId> ContiguousHotSpot(uint64_t n, uint64_t start,
                                      uint64_t size) {
  assert(n >= 1);
  assert(size <= n);
  std::vector<ItemId> out;
  out.reserve(size);
  for (uint64_t i = 0; i < size; ++i) {
    out.push_back(static_cast<ItemId>((start + i) % n));
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ItemId> RandomHotSpot(uint64_t n, uint64_t size, Rng& rng) {
  assert(size <= n);
  std::unordered_set<ItemId> chosen;
  chosen.reserve(size);
  while (chosen.size() < size) {
    chosen.insert(static_cast<ItemId>(rng.NextUint64(n)));
  }
  std::vector<ItemId> out(chosen.begin(), chosen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ItemId> GridNeighborhoodHotSpot(uint64_t width, uint64_t height,
                                            uint64_t x, uint64_t y,
                                            uint64_t radius) {
  assert(x < width && y < height);
  std::vector<ItemId> out;
  const uint64_t x_lo = x >= radius ? x - radius : 0;
  const uint64_t y_lo = y >= radius ? y - radius : 0;
  const uint64_t x_hi = std::min(width - 1, x + radius);
  const uint64_t y_hi = std::min(height - 1, y + radius);
  for (uint64_t yy = y_lo; yy <= y_hi; ++yy) {
    for (uint64_t xx = x_lo; xx <= x_hi; ++xx) {
      out.push_back(static_cast<ItemId>(yy * width + xx));
    }
  }
  return out;
}

}  // namespace mobicache
