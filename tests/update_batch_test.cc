// Contracts of the batched interval update kernel (db/update_generator.cc
// batch mode + Database::ApplyUpdateBatch) and digest-only journal buckets
// under quiet elision:
//
//  * RNG replay: the batched drain applies the exact (item, time) sequence
//    the per-event engine dispatches — same seed, same draws, bit-identical
//    timestamps — for the uniform, Zipf-weighted, and zero-rate profiles,
//    regardless of where the pump points fall.
//  * Journal digests: a digest-only cell (SIG) produces byte-identical
//    results with quiet elision on and off while laying down digest-only
//    buckets (the raw-vs-digest window twins live in retention_test.cc).
//  * Shards: 4 and 8 shards match the 1-shard cell with batching on,
//    including the applied-update count.
//  * Allocation-freedom: once the staging buffers exist, the drain loop and
//    the warm full-cell steady state (pump + elided journal appends)
//    perform zero heap allocations (for the cell: Run(60, 100) allocates
//    exactly as often as Run(60, 50)).

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/update_generator.h"
#include "exp/cell.h"
#include "mu/mobile_unit.h"
#include "sim/simulator.h"

// Counting global operator new, as in quiet_elision_test.cc: the
// allocation-free contracts are asserted as deltas around measured spans.
// Atomic because the suite also runs under TSan.
namespace {
std::atomic<size_t> g_new_calls{0};
}  // namespace

// noinline keeps the malloc/free bodies opaque at new/delete expression
// sites, which would otherwise trip GCC's -Wmismatched-new-delete.
#if defined(__GNUC__)
#define MOBICACHE_TEST_NOINLINE __attribute__((noinline))
#else
#define MOBICACHE_TEST_NOINLINE
#endif

MOBICACHE_TEST_NOINLINE void* operator new(std::size_t size) {
  ++g_new_calls;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
MOBICACHE_TEST_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p) noexcept {
  std::free(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
// stable_sort's temporary buffer (Database::BuildDigest) allocates through
// the nothrow form and frees through plain operator delete; cover the pair
// so ASan sees one consistent allocator.
MOBICACHE_TEST_NOINLINE void* operator new(std::size_t size,
                                           const std::nothrow_t&) noexcept {
  ++g_new_calls;
  return std::malloc(size);
}
MOBICACHE_TEST_NOINLINE void* operator new[](std::size_t size,
                                             const std::nothrow_t&) noexcept {
  ++g_new_calls;
  return std::malloc(size);
}
MOBICACHE_TEST_NOINLINE void operator delete(void* p,
                                             const std::nothrow_t&) noexcept {
  std::free(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](
    void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mobicache {
namespace {

// ---------------------------------------------------------------------------
// RNG replay: per-event vs batched drain.

struct AppliedUpdate {
  ItemId id;
  SimTime at;
};

constexpr uint64_t kReplayItems = 96;
constexpr uint64_t kReplaySeed = 20260809;
constexpr SimTime kReplayEnd = 400.0;

// Runs one generator to kReplayEnd in the given mode and returns the
// observed (item, time) application sequence. Batched runs drain through a
// deliberately irregular set of pump points (repeats, both inclusivities,
// cuts that land between updates) — the sequence must not depend on them.
std::vector<AppliedUpdate> ReplayUpdates(double uniform_mu,
                                         const std::vector<double>& rates,
                                         bool batched) {
  Simulator sim;
  Database db(kReplayItems, /*seed=*/7);
  std::vector<std::unique_ptr<UpdateGenerator>> holder;
  if (rates.empty()) {
    holder.push_back(std::make_unique<UpdateGenerator>(&sim, &db, uniform_mu,
                                                       kReplaySeed));
  } else {
    holder.push_back(
        std::make_unique<UpdateGenerator>(&sim, &db, rates, kReplaySeed));
  }
  UpdateGenerator& gen = *holder.back();
  std::vector<AppliedUpdate> applied;
  db.AddUpdateObserver([&applied](ItemId id, SimTime t) {
    applied.push_back(AppliedUpdate{id, t});
  });
  if (batched) gen.EnableBatchMode();
  EXPECT_TRUE(gen.Start().ok());
  if (batched) {
    for (SimTime cut : {13.7, 13.7, 40.0, 111.2, 111.2, 250.0}) {
      gen.GenerateIntervalUpdates(cut, /*inclusive=*/false);
      gen.GenerateIntervalUpdates(cut, /*inclusive=*/true);
    }
    // RunUntil dispatches events with time <= end, so the final drain is
    // inclusive at the same point.
    gen.GenerateIntervalUpdates(kReplayEnd, /*inclusive=*/true);
  } else {
    sim.RunUntil(kReplayEnd);
  }
  gen.Stop();
  db.ClearExtraObservers();
  EXPECT_EQ(gen.updates_generated(), applied.size());
  EXPECT_EQ(db.total_updates(), applied.size());
  if (batched) {
    EXPECT_EQ(gen.batched_updates_applied(), applied.size());
  }
  return applied;
}

void ExpectSameReplay(double uniform_mu, const std::vector<double>& rates) {
  const std::vector<AppliedUpdate> per_event =
      ReplayUpdates(uniform_mu, rates, /*batched=*/false);
  const std::vector<AppliedUpdate> batched =
      ReplayUpdates(uniform_mu, rates, /*batched=*/true);
  ASSERT_EQ(per_event.size(), batched.size());
  for (size_t i = 0; i < per_event.size(); ++i) {
    ASSERT_EQ(per_event[i].id, batched[i].id) << "update " << i;
    // Bit-exact: the batched path accumulates the same doubles by the same
    // repeated addition ScheduleAfter performs.
    ASSERT_EQ(per_event[i].at, batched[i].at) << "update " << i;
  }
}

TEST(UpdateBatchReplayTest, UniformProfileMatchesPerEvent) {
  ExpectSameReplay(/*uniform_mu=*/0.05, {});
}

TEST(UpdateBatchReplayTest, ZipfProfileMatchesPerEvent) {
  ExpectSameReplay(0.0, ZipfUpdateRates(kReplayItems, /*mu_mean=*/0.05,
                                        /*theta=*/0.9));
}

TEST(UpdateBatchReplayTest, ZeroRateGeneratesNothingInEitherMode) {
  EXPECT_TRUE(ReplayUpdates(0.0, {}, /*batched=*/false).empty());
  EXPECT_TRUE(ReplayUpdates(0.0, {}, /*batched=*/true).empty());
}

TEST(UpdateBatchReplayTest, BothModesLeaveIdenticalDatabaseState) {
  Database dbs[2] = {Database(kReplayItems, 7), Database(kReplayItems, 7)};
  for (int batched = 0; batched < 2; ++batched) {
    Simulator sim;
    UpdateGenerator gen(&sim, &dbs[batched], 0.08, kReplaySeed);
    if (batched == 1) gen.EnableBatchMode();
    ASSERT_TRUE(gen.Start().ok());
    if (batched == 1) {
      gen.GenerateIntervalUpdates(kReplayEnd, /*inclusive=*/true);
    } else {
      sim.RunUntil(kReplayEnd);
    }
    gen.Stop();
  }
  for (ItemId id = 0; id < kReplayItems; ++id) {
    EXPECT_EQ(dbs[0].VersionOf(id), dbs[1].VersionOf(id)) << "item " << id;
    EXPECT_EQ(dbs[0].LastUpdateOf(id), dbs[1].LastUpdateOf(id))
        << "item " << id;
    EXPECT_EQ(dbs[0].ValueOf(id), dbs[1].ValueOf(id)) << "item " << id;
  }
  EXPECT_EQ(dbs[0].journal_size(), dbs[1].journal_size());
}

// ---------------------------------------------------------------------------
// Cell-level equivalence and engine cross-checks. Helper matchers mirror
// tests/quiet_elision_test.cc.

void ExpectUnitStatsEqual(const MobileUnitStats& a, const MobileUnitStats& b) {
  EXPECT_EQ(a.queries_issued, b.queries_issued);
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.reports_heard, b.reports_heard);
  EXPECT_EQ(a.reports_missed, b.reports_missed);
  EXPECT_EQ(a.items_invalidated, b.items_invalidated);
  EXPECT_EQ(a.listen_seconds, b.listen_seconds);
  EXPECT_EQ(a.answer_latency.count(), b.answer_latency.count());
  EXPECT_EQ(a.answer_latency.sum(), b.answer_latency.sum());
}

// Everything except quiet_skipped_intervals (engine-dependent diagnostic)
// and sim_events (the sharded engine dispatches extra barrier events).
void ExpectResultsIdentical(const CellResult& a, const CellResult& b) {
  EXPECT_EQ(a.queries_answered, b.queries_answered);
  EXPECT_EQ(a.hits, b.hits);
  EXPECT_EQ(a.misses, b.misses);
  EXPECT_EQ(a.hit_ratio, b.hit_ratio);
  EXPECT_EQ(a.mean_answer_latency, b.mean_answer_latency);
  EXPECT_EQ(a.reports_broadcast, b.reports_broadcast);
  EXPECT_EQ(a.reports_heard, b.reports_heard);
  EXPECT_EQ(a.reports_missed, b.reports_missed);
  EXPECT_EQ(a.quiet_report_intervals, b.quiet_report_intervals);
  EXPECT_EQ(a.avg_report_bits, b.avg_report_bits);
  EXPECT_EQ(a.measured_sleep_fraction, b.measured_sleep_fraction);
  EXPECT_EQ(a.items_invalidated, b.items_invalidated);
  EXPECT_EQ(a.listen_seconds_total, b.listen_seconds_total);
  EXPECT_EQ(a.updates_applied, b.updates_applied);
  EXPECT_EQ(a.channel.report_bits, b.channel.report_bits);
  EXPECT_EQ(a.channel.uplink_query_bits, b.channel.uplink_query_bits);
  EXPECT_EQ(a.channel.downlink_answer_bits, b.channel.downlink_answer_bits);
  EXPECT_EQ(a.channel.report_count, b.channel.report_count);
  EXPECT_EQ(a.channel.uplink_query_count, b.channel.uplink_query_count);
  EXPECT_EQ(a.channel.downlink_answer_count, b.channel.downlink_answer_count);
  EXPECT_EQ(a.channel.busy_seconds, b.channel.busy_seconds);
  EXPECT_EQ(a.throughput, b.throughput);
  EXPECT_EQ(a.effectiveness, b.effectiveness);
}

CellConfig BaseConfig(StrategyKind kind, double s) {
  CellConfig config;
  config.model.n = 400;
  config.model.mu = 0.002;
  config.model.lambda = 0.05;
  config.model.s = s;
  config.model.L = 10.0;
  config.model.k = 8;
  config.strategy = kind;
  config.num_units = 12;
  config.hotspot_size = 25;
  config.seed = 4242;
  return config;
}

// A digest-only strategy (SIG) must produce byte-identical runs with quiet
// elision on and off. SIG declares kDigestOnly retention, so *every* bucket
// is digest-only in both runs — equal bucket counts and identical results
// prove the digest path serves both configurations.
TEST(JournalElisionCellTest, SigRunsAreByteIdenticalWithElisionOnAndOff) {
  for (double s : {0.9, 1.0}) {
    SCOPED_TRACE("s=" + std::to_string(s));
    CellResult results[2];
    uint64_t elided_buckets[2] = {0, 0};
    for (int on = 0; on < 2; ++on) {
      CellConfig config = BaseConfig(StrategyKind::kSig, s);
      config.quiet_elision = on == 1;
      Cell cell(config);
      ASSERT_TRUE(cell.Build().ok());
      ASSERT_TRUE(cell.Run(4, 50).ok());
      results[on] = cell.result();
      elided_buckets[on] = cell.db()->elided_journal_buckets();
    }
    ExpectResultsIdentical(results[1], results[0]);
    // kDigestOnly retention elides every bucket regardless of the
    // quiet-elision config — same count either way, never zero.
    EXPECT_EQ(elided_buckets[0], elided_buckets[1]);
    EXPECT_GT(elided_buckets[0], 0u);
    if (s == 1.0) {
      // Everyone asleep: every measured interval elides its broadcast.
      EXPECT_GT(results[1].quiet_skipped_intervals, 0u);
    }
  }
}

TEST(UpdateBatchEngineTest, MegaCellMatchesCellAcrossShardCounts) {
  for (StrategyKind kind : {StrategyKind::kTs, StrategyKind::kSig}) {
    CellConfig config = BaseConfig(kind, 0.9);
    config.num_units = 16;

    Cell single(config);
    ASSERT_TRUE(single.Build().ok());
    ASSERT_TRUE(single.Run(4, 50).ok());
    const CellResult single_result = single.result();
    EXPECT_GT(single_result.updates_applied, 0u);

    for (uint32_t shards : {4u, 8u}) {
      SCOPED_TRACE(std::string(StrategyName(kind)) + " shards=" +
                   std::to_string(shards));
      Cell sharded(config, shards);
      ASSERT_TRUE(sharded.Build().ok());
      ASSERT_TRUE(sharded.Run(4, 50).ok());

      const CellResult& m = sharded.result();
      ExpectResultsIdentical(m, single_result);
      for (uint64_t i = 0; i < config.num_units; ++i) {
        SCOPED_TRACE("unit " + std::to_string(i));
        ExpectUnitStatsEqual(sharded.UnitStats(i), single.UnitStats(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation-freedom.

// The drain loop itself: once EnableBatchMode has sized the staging
// buffers, pumping any number of updates through a journal-less database
// allocates nothing.
TEST(UpdateBatchAllocationTest, DrainLoopAllocatesNothing) {
  Simulator sim;
  Database db(10000, /*seed=*/3);
  db.SetJournalEnabled(false);
  UpdateGenerator gen(&sim, &db, /*mu_per_item=*/0.01, /*seed=*/77);
  gen.EnableBatchMode();
  ASSERT_TRUE(gen.Start().ok());
  gen.GenerateIntervalUpdates(50.0, /*inclusive=*/false);  // warm

  const size_t before = g_new_calls.load();
  for (int i = 1; i <= 40; ++i) {
    gen.GenerateIntervalUpdates(50.0 + 10.0 * static_cast<double>(i),
                                /*inclusive=*/false);
  }
  EXPECT_EQ(g_new_calls.load() - before, 0u) << "batched drain allocated";
  EXPECT_GT(gen.batched_updates_applied(), 10000u);
}

// Full-cell steady state: with every unit asleep under SIG, the measured
// span covers elided broadcasts, batched pumps, and digest-only journal
// appends — none of which may allocate once warm. Two identically built
// cells run 50 and 100 measured intervals past a 60-interval warm-up; the
// longer run must allocate exactly as often as the shorter one.
TEST(UpdateBatchAllocationTest, WarmElidedCellSteadyStateAllocatesNothing) {
  CellConfig config = BaseConfig(StrategyKind::kSig, 1.0);
  config.model.lambda = 0.0;
  config.num_units = 8;
  size_t allocations[2] = {0, 0};
  for (int run = 0; run < 2; ++run) {
    Cell cell(config);
    ASSERT_TRUE(cell.Build().ok());
    const size_t before = g_new_calls.load();
    ASSERT_TRUE(cell.Run(60, run == 0 ? 50 : 100).ok());
    allocations[run] = g_new_calls.load() - before;
    EXPECT_GT(cell.result().quiet_skipped_intervals, 0u);
    EXPECT_GT(cell.updates()->batched_updates_applied(), 0u);
    EXPECT_GT(cell.db()->elided_journal_buckets(), 0u);
  }
  EXPECT_EQ(allocations[1], allocations[0])
      << "warm batched steady state allocated";
}

}  // namespace
}  // namespace mobicache
