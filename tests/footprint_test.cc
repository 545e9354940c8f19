// Memory-footprint gates for per-unit client state.
//
//  * Live heap bytes per unit: a counting global allocator tracks the bytes
//    currently allocated (malloc_usable_size of every block, so allocator
//    rounding counts) and the gate bounds (live after Build() + Run(2, 6) -
//    live before construction) / units on a 20,000-unit TS cell, at the
//    fleet parameters of bench/megacell (hot spot 8, lambda 0.01) on 1 and
//    4 shards, and at Scenario 1's parameters (hot spot 20, lambda 0.1).
//    RSS is too noisy to gate; live bytes are exact and deterministic for
//    a given allocator.
//  * A hot-spot ClientCache allocates everything at construction: cycles of
//    Put/Get/Peek/Erase/ValidateAllThrough/Clear — including lookups of ids
//    outside its domain — make zero allocations.

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/scenarios.h"
#include "core/cache.h"
#include "exp/cell.h"
#include "mu/hotspot.h"

// Counting global allocator: every operator new/delete form meets in the
// malloc/free family (ASan reports a mismatch otherwise) and updates the
// live-byte total by the block's usable size. Atomic because the shard
// lanes allocate from their own threads.
namespace {
std::atomic<int64_t> g_live_bytes{0};
std::atomic<uint64_t> g_new_calls{0};

void* Track(void* p) {
  if (p != nullptr) {
    ++g_new_calls;
    g_live_bytes += static_cast<int64_t>(malloc_usable_size(p));
  }
  return p;
}

void* AlignedMalloc(std::size_t size, std::align_val_t align) {
  void* p = nullptr;
  const std::size_t a = static_cast<std::size_t>(align);
  if (posix_memalign(&p, a < sizeof(void*) ? sizeof(void*) : a,
                     size == 0 ? 1 : size) != 0) {
    return nullptr;
  }
  return p;
}

void Release(void* p) noexcept {
  if (p == nullptr) return;
  g_live_bytes -= static_cast<int64_t>(malloc_usable_size(p));
  std::free(p);
}
}  // namespace

// noinline keeps the malloc/free bodies opaque at new/delete expression
// sites, which would otherwise trip GCC's -Wmismatched-new-delete.
#if defined(__GNUC__)
#define MOBICACHE_TEST_NOINLINE __attribute__((noinline))
#else
#define MOBICACHE_TEST_NOINLINE
#endif

MOBICACHE_TEST_NOINLINE void* operator new(std::size_t size) {
  if (void* p = Track(std::malloc(size == 0 ? 1 : size))) return p;
  throw std::bad_alloc();
}
MOBICACHE_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MOBICACHE_TEST_NOINLINE void* operator new(std::size_t size,
                                           const std::nothrow_t&) noexcept {
  return Track(std::malloc(size == 0 ? 1 : size));
}
MOBICACHE_TEST_NOINLINE void* operator new[](std::size_t size,
                                             const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
MOBICACHE_TEST_NOINLINE void* operator new(std::size_t size,
                                           std::align_val_t align) {
  if (void* p = Track(AlignedMalloc(size, align))) return p;
  throw std::bad_alloc();
}
MOBICACHE_TEST_NOINLINE void* operator new[](std::size_t size,
                                             std::align_val_t align) {
  return ::operator new(size, align);
}
MOBICACHE_TEST_NOINLINE void* operator new(std::size_t size,
                                           std::align_val_t align,
                                           const std::nothrow_t&) noexcept {
  return Track(AlignedMalloc(size, align));
}
MOBICACHE_TEST_NOINLINE void* operator new[](std::size_t size,
                                             std::align_val_t align,
                                             const std::nothrow_t&) noexcept {
  return Track(AlignedMalloc(size, align));
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p) noexcept { Release(p); }
MOBICACHE_TEST_NOINLINE void operator delete[](void* p) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p,
                                             const std::nothrow_t&) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p,
                                               const std::nothrow_t&) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p,
                                             std::align_val_t) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p,
                                               std::align_val_t) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p, std::size_t,
                                             std::align_val_t) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p, std::size_t,
                                               std::align_val_t) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p, std::align_val_t,
                                             const std::nothrow_t&) noexcept {
  Release(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p, std::align_val_t,
                                               const std::nothrow_t&) noexcept {
  Release(p);
}

namespace mobicache {
namespace {

constexpr uint64_t kUnits = 20000;

/// bench/megacell's and perfbench's fleet cell: a 10^4-item database, an
/// 8-item shared hot spot, ~0.8 queries per awake unit-interval.
CellConfig FleetConfig() {
  CellConfig cc;
  cc.model.n = 10000;
  cc.model.lambda = 0.01;
  cc.model.mu = 1e-4;
  cc.model.L = 10.0;
  cc.model.s = 0.3;
  cc.strategy = StrategyKind::kTs;
  cc.num_units = kUnits;
  cc.hotspot_size = 8;
  cc.seed = 42;
  return cc;
}

/// Scenario 1 (Fig. 3): hot spot 20 at lambda = 0.1, two queries per awake
/// unit-interval.
CellConfig Scenario1Config() {
  CellConfig cc;
  cc.model = ScenarioParams(PaperScenario::kScenario1);
  cc.model.s = 0.3;
  cc.strategy = StrategyKind::kTs;
  cc.num_units = kUnits;
  cc.hotspot_size = 20;
  cc.seed = 42;
  return cc;
}

/// Live heap bytes per unit held by a built and run cell.
double LiveBytesPerUnit(CellConfig config, uint32_t shards) {
  const int64_t before = g_live_bytes.load();
  Cell cell(std::move(config), shards);
  EXPECT_TRUE(cell.Build().ok());
  std::printf("live heap bytes per unit after Build: %.0f\n",
              static_cast<double>(g_live_bytes.load() - before) /
                  static_cast<double>(kUnits));
  EXPECT_TRUE(cell.Run(2, 6).ok());
  EXPECT_GT(cell.result().queries_answered, 0u);
  const int64_t live = g_live_bytes.load() - before;
  const double per_unit =
      static_cast<double>(live) / static_cast<double>(kUnits);
  ::testing::Test::RecordProperty("live_bytes_per_unit",
                                  static_cast<int>(per_unit));
  std::printf("live heap bytes per unit after Run: %.0f\n", per_unit);
  return per_unit;
}

TEST(FootprintTest, CountingAllocatorTracksLiveBytes) {
  const int64_t before = g_live_bytes.load();
  auto block = std::make_unique<char[]>(1000);
  EXPECT_GE(g_live_bytes.load() - before, 1000);
  block.reset();
  EXPECT_EQ(g_live_bytes.load(), before);
  struct alignas(64) Wide {
    char bytes[64];
  };
  auto wide = std::make_unique<Wide>();
  EXPECT_EQ(reinterpret_cast<uintptr_t>(wide.get()) % 64, 0u);
  EXPECT_GE(g_live_bytes.load() - before, 64);
  wide.reset();
  EXPECT_EQ(g_live_bytes.load(), before);
}

TEST(FootprintTest, FleetCellOneShardStaysUnderBudget) {
  EXPECT_LE(LiveBytesPerUnit(FleetConfig(), 1), 1300.0);
}

TEST(FootprintTest, FleetCellFourShardsStaysUnderBudget) {
  EXPECT_LE(LiveBytesPerUnit(FleetConfig(), 4), 1300.0);
}

TEST(FootprintTest, Scenario1CellStaysUnderBudget) {
  EXPECT_LE(LiveBytesPerUnit(Scenario1Config(), 1), 2800.0);
}

TEST(FootprintTest, HotSpotCacheCyclesAllocateNothing) {
  const HotSpot hotspot(ContiguousHotSpot(10000, 100, 20));
  for (size_t capacity : {size_t{0}, size_t{5}}) {
    ClientCache cache(hotspot.domain(), capacity);
    const uint64_t calls = g_new_calls.load();
    SimTime t = 0.0;
    for (int cycle = 0; cycle < 50; ++cycle) {
      for (ItemId id : hotspot.ids()) {
        t += 1.0;
        cache.Put(id, id, t);
        ASSERT_NE(cache.Get(id), nullptr);
      }
      cache.ValidateAllThrough(t);
      for (ItemId probe : {ItemId{0}, ItemId{99}, ItemId{120}, ItemId{9999}}) {
        EXPECT_EQ(cache.Peek(probe), nullptr);
        EXPECT_FALSE(cache.Erase(probe));
        EXPECT_FALSE(cache.Contains(probe));
      }
      for (ItemId id : hotspot.ids()) {
        if (id % 3 == 0) cache.Erase(id);
      }
      cache.EraseIf([](ItemId id, const CacheEntry&) { return id % 3 == 1; });
      if (cycle % 7 == 0) cache.Clear();
    }
    EXPECT_EQ(g_new_calls.load(), calls) << "capacity " << capacity;
  }
}

}  // namespace
}  // namespace mobicache
