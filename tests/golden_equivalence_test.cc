// Equivalence contract of the position-keyed cache, the bucketed journal, the
// incremental report builders, and the shared-report delivery path: none of
// them may change anything observable. Enforced three ways:
//
//  1. per-strategy simulated cell counters against goldens recorded from the
//     seed implementation (per-entry timestamps, scanning journal, copied
//     reports) on the exact same configuration;
//  2. a scenario sweep CSV against the seed implementation's bytes, at
//     --threads 1 and 4 (covers the cross-thread determinism contract too);
//  3. a randomized ClientCache run against a reference model with eager
//     per-entry timestamp semantics — for caches that grow a private
//     domain, and for caches bound to a hot spot (a sparse domain, and a
//     custom out-of-order hot spot with a repeated id), probed with ids
//     outside the domain as well.

#include <cstdint>
#include <list>
#include <memory>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/scenarios.h"
#include "core/cache.h"
#include "exp/cell.h"
#include "exp/sweep.h"
#include "mu/hotspot.h"

namespace mobicache {
namespace {

// ---------------------------------------------------------------------------
// 1. Simulated cell counters vs seed goldens.

struct CellGolden {
  StrategyKind kind;
  uint64_t queries_answered;
  uint64_t hits;
  uint64_t misses;
  uint64_t items_invalidated;
  uint64_t reports_heard;
  uint64_t reports_missed;
};

// Recorded from the seed implementation (PR 1 tree) with the configuration
// in GoldenCellConfig below.
constexpr CellGolden kCellGoldens[] = {
    {StrategyKind::kTs, 4032u, 3684u, 348u, 293u, 340u, 140u},
    {StrategyKind::kAt, 4032u, 1968u, 2064u, 2066u, 340u, 140u},
    {StrategyKind::kSig, 4032u, 1833u, 2199u, 2231u, 340u, 140u},
    {StrategyKind::kGroupedAt, 4032u, 1010u, 3022u, 2991u, 340u, 140u},
    {StrategyKind::kHybridSig, 4032u, 1968u, 2064u, 2066u, 340u, 140u},
    {StrategyKind::kAdaptiveTs, 4032u, 3678u, 354u, 299u, 340u, 140u},
    {StrategyKind::kQuasiAt, 4032u, 1969u, 2063u, 2064u, 340u, 140u},
};

CellConfig GoldenCellConfig(StrategyKind kind) {
  CellConfig config;
  config.model.n = 500;
  config.model.mu = 0.002;
  config.model.lambda = 0.05;
  config.model.s = 0.3;
  config.model.L = 10.0;
  config.model.k = 8;
  config.strategy = kind;
  config.num_units = 8;
  config.hotspot_size = 30;
  config.seed = 1234;
  return config;
}

TEST(GoldenEquivalenceTest, CellCountersMatchSeedImplementation) {
  for (const CellGolden& golden : kCellGoldens) {
    SCOPED_TRACE(std::string(StrategyName(golden.kind)));
    Cell cell(GoldenCellConfig(golden.kind));
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(5, 60).ok());
    const CellResult r = cell.result();
    EXPECT_EQ(r.queries_answered, golden.queries_answered);
    EXPECT_EQ(r.hits, golden.hits);
    EXPECT_EQ(r.misses, golden.misses);
    EXPECT_EQ(r.items_invalidated, golden.items_invalidated);
    EXPECT_EQ(r.reports_heard, golden.reports_heard);
    EXPECT_EQ(r.reports_missed, golden.reports_missed);
  }
}

// ---------------------------------------------------------------------------
// 2. Sweep CSV bytes vs seed goldens, at several thread counts.

// Scenario 1, points=4, warmup=5, measure=40, units=5, seed=42, strategies
// TS/AT/SIG/NoCache, recorded from the seed implementation at --threads=1.
constexpr const char* kGoldenSweepCsv =
    R"(s,TS.model.e,TS.sim.e,TS.model.h,TS.sim.h,TS.model.bc,TS.sim.bc,AT.model.e,AT.sim.e,AT.model.h,AT.sim.h,AT.model.bc,AT.sim.bc,SIG.model.e,SIG.sim.e,SIG.model.h,SIG.sim.h,SIG.model.bc,SIG.sim.bc,nocache.model.e,nocache.sim.e,nocache.model.h,nocache.sim.h,nocache.model.bc,nocache.sim.bc
0,0.31814159,0.56699227,0.99841973,0.99845857,49674.868,12514.95,0.63210919,2.5183178,0.99841973,0.99960333,9.9950017,6.5,0.56418742,0.45116842,0.9984146,0.99801745,10464,10464,0.000999001,0.000999001,0,0,0,0
0.33333333,0.21226197,0.23883636,0.99763147,0.99642857,49674.868,14616,0.0022579739,0.002574653,0.55761175,0.61202496,9.9950017,10,0.37682923,0.10988165,0.99762634,0.99185974,10464,10464,0.000999001,0.000999001,0,0,0,0
0.66666667,0.10638236,0.013687145,0.99527414,0.93467933,49674.868,10505.25,0.001314141,0.0012985584,0.23988284,0.23076923,9.9950017,11,0.18906535,0.012634326,0.99526901,0.92920354,10464,10464,0.000999001,0.000999001,0,0,0,0
1,0.00050274857,0.00086002697,0,0,49674.868,13911.3,0.00099890115,0.0009989036,0,0,9.9950017,9.75,0.00089446553,0.00089446553,0,0,10464,10464,0.000999001,0.000999001,0,0,0,0
)";

std::string GoldenSweepCsvAtThreads(int threads) {
  SweepOptions options;
  options.points = 4;
  options.warmup_intervals = 5;
  options.measure_intervals = 40;
  options.num_units = 5;
  options.threads = threads;
  const StatusOr<SweepResult> sweep = RunScenarioSweep(
      PaperScenario::kScenario1,
      {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
       StrategyKind::kNoCache},
      options);
  EXPECT_TRUE(sweep.ok()) << sweep.status().ToString();
  if (!sweep.ok()) return std::string();
  std::ostringstream csv;
  WriteSweepCsv(*sweep, csv);
  return csv.str();
}

TEST(GoldenEquivalenceTest, SweepCsvMatchesSeedBytesSingleThread) {
  EXPECT_EQ(GoldenSweepCsvAtThreads(1), kGoldenSweepCsv);
}

TEST(GoldenEquivalenceTest, SweepCsvMatchesSeedBytesFourThreads) {
  EXPECT_EQ(GoldenSweepCsvAtThreads(4), kGoldenSweepCsv);
}

// ---------------------------------------------------------------------------
// 3. Randomized ClientCache vs a reference model with eager semantics.

/// The seed implementation restated: ordered map + LRU list, and
/// ValidateAllThrough applied eagerly to every entry.
class ReferenceCache {
 public:
  explicit ReferenceCache(size_t capacity) : capacity_(capacity) {}

  const CacheEntry* Peek(ItemId id) const {
    auto it = entries_.find(id);
    return it == entries_.end() ? nullptr : &it->second;
  }

  const CacheEntry* Get(ItemId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return nullptr;
    Touch(id);
    return &it->second;
  }

  void Put(ItemId id, uint64_t value, SimTime timestamp) {
    auto it = entries_.find(id);
    if (it != entries_.end()) {
      it->second = CacheEntry{value, timestamp};
      Touch(id);
      return;
    }
    if (capacity_ != 0 && entries_.size() >= capacity_) {
      const ItemId victim = lru_.back();
      lru_.pop_back();
      entries_.erase(victim);
      ++evictions_;
    }
    lru_.push_front(id);
    entries_[id] = CacheEntry{value, timestamp};
  }

  bool SetTimestamp(ItemId id, SimTime timestamp) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    it->second.timestamp = timestamp;
    return true;
  }

  void ValidateAllThrough(SimTime timestamp) {
    for (auto& [id, entry] : entries_) {
      if (entry.timestamp < timestamp) entry.timestamp = timestamp;
    }
  }

  bool Erase(ItemId id) {
    auto it = entries_.find(id);
    if (it == entries_.end()) return false;
    lru_.remove(id);
    entries_.erase(it);
    return true;
  }

  void Clear() {
    entries_.clear();
    lru_.clear();
  }

  size_t size() const { return entries_.size(); }
  uint64_t evictions() const { return evictions_; }

  std::vector<ItemId> Items() const {
    std::vector<ItemId> out;
    for (const auto& [id, entry] : entries_) out.push_back(id);
    return out;  // std::map iterates in ascending id order
  }

 private:
  void Touch(ItemId id) {
    lru_.remove(id);
    lru_.push_front(id);
  }

  size_t capacity_;
  std::map<ItemId, CacheEntry> entries_;
  std::list<ItemId> lru_;  // front = most recent
  uint64_t evictions_ = 0;
};

/// Drives a ClientCache and the reference through the same random
/// operation stream. Without a hot spot the cache grows a private domain
/// over ids [0, 40]; with one, the cache is bound to its domain, operations
/// pick ids from its draw list (so a repeated id is picked more often), and
/// an extra operation probes Peek/Erase/Contains with ids outside it.
void RunRandomizedComparison(size_t capacity, uint32_t seed,
                             const HotSpot* hotspot = nullptr) {
  const std::unique_ptr<ClientCache> owned =
      hotspot == nullptr
          ? std::make_unique<ClientCache>(capacity)
          : std::make_unique<ClientCache>(hotspot->domain(), capacity);
  ClientCache& cache = *owned;
  ReferenceCache reference(capacity);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<ItemId> pick_id(0, 40);
  std::uniform_int_distribution<ItemId> pick_any(0, 999999);
  std::vector<ItemId> probes;
  if (hotspot == nullptr) {
    for (ItemId id = 0; id <= 40; ++id) probes.push_back(id);
  } else {
    probes = hotspot->domain();
  }
  SimTime clock = 0.0;

  for (int step = 0; step < 6000; ++step) {
    clock += 0.25;
    const ItemId id = hotspot == nullptr
                          ? pick_id(rng)
                          : (*hotspot)[rng() % hotspot->size()];
    switch (rng() % 16) {
      case 0:
        ASSERT_EQ(cache.Erase(id), reference.Erase(id));
        break;
      case 1:
        cache.ValidateAllThrough(clock);
        reference.ValidateAllThrough(clock);
        break;
      case 2:
        ASSERT_EQ(cache.SetTimestamp(id, clock), reference.SetTimestamp(id, clock));
        break;
      case 3: {
        const CacheEntry* a = cache.Get(id);
        const CacheEntry* b = reference.Get(id);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a != nullptr) {
          ASSERT_EQ(a->value, b->value);
          ASSERT_DOUBLE_EQ(a->timestamp, b->timestamp);
        }
        break;
      }
      case 4:
        if (rng() % 97 == 0) {
          cache.Clear();
          reference.Clear();
        }
        break;
      case 5:
        if (hotspot != nullptr) {
          // An id outside the domain (TS report entries and asynchronous
          // pushes name arbitrary items): a miss that changes nothing.
          const ItemId other = pick_any(rng);
          if (hotspot->PositionOf(other) == kNoDomainPosition) {
            ASSERT_EQ(cache.Peek(other), nullptr) << "id " << other;
            ASSERT_FALSE(cache.Erase(other)) << "id " << other;
            ASSERT_FALSE(cache.Contains(other)) << "id " << other;
            ASSERT_EQ(reference.Peek(other), nullptr) << "id " << other;
          }
          break;
        }
        [[fallthrough]];
      default: {
        const uint64_t value = rng();
        cache.Put(id, value, clock);
        reference.Put(id, value, clock);
        break;
      }
    }
    ASSERT_EQ(cache.size(), reference.size());
    if (step % 37 == 0) {
      ASSERT_EQ(cache.Items(), reference.Items());
      for (ItemId probe : probes) {
        const CacheEntry* a = cache.Peek(probe);
        const CacheEntry* b = reference.Peek(probe);
        ASSERT_EQ(a == nullptr, b == nullptr) << "id " << probe;
        if (a != nullptr) {
          ASSERT_DOUBLE_EQ(a->timestamp, b->timestamp) << "id " << probe;
        }
      }
    }
  }
  ASSERT_EQ(cache.Items(), reference.Items());
  ASSERT_EQ(cache.lru_evictions(), reference.evictions());
  if (capacity != 0) {
    ASSERT_GT(cache.lru_evictions(), 0u);
  }
}

/// 25 distinct ids spread over [0, 10^6), drawn once from a fixed seed.
HotSpot SparseHotSpot() {
  Rng rng(2024);
  return HotSpot(RandomHotSpot(1000000, 25, rng));
}

/// A custom hot spot out of id order, with id 500 listed twice.
HotSpot CustomHotSpot() {
  return HotSpot({9000, 17, 500, 123456, 3, 500, 77, 999999, 40});
}

TEST(GoldenEquivalenceTest, RandomizedCacheMatchesReferenceUnbounded) {
  RunRandomizedComparison(0, 1u);
  RunRandomizedComparison(0, 77u);
}

TEST(GoldenEquivalenceTest, RandomizedCacheMatchesReferenceSmallCapacity) {
  RunRandomizedComparison(4, 2u);
  RunRandomizedComparison(4, 78u);
}

TEST(GoldenEquivalenceTest, RandomizedCacheMatchesReferenceMediumCapacity) {
  RunRandomizedComparison(32, 3u);
  RunRandomizedComparison(32, 79u);
}

TEST(GoldenEquivalenceTest, RandomizedSparseHotSpotCacheMatchesReference) {
  const HotSpot hotspot = SparseHotSpot();
  ASSERT_EQ(hotspot.domain().size(), 25u);
  RunRandomizedComparison(0, 4u, &hotspot);
  RunRandomizedComparison(5, 80u, &hotspot);
}

TEST(GoldenEquivalenceTest, RandomizedCustomHotSpotCacheMatchesReference) {
  const HotSpot hotspot = CustomHotSpot();
  ASSERT_EQ(hotspot.domain().size(), hotspot.size() - 1);
  RunRandomizedComparison(0, 5u, &hotspot);
  RunRandomizedComparison(5, 81u, &hotspot);
}

}  // namespace
}  // namespace mobicache
