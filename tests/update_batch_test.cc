// Contracts of the batched interval update kernel (db/update_generator.cc's
// drain + Database::ApplyUpdateBatch) and journal-less cells under quiet
// elision:
//
//  * RNG replay: the drain applies the exact (item, time) sequence of an
//    in-test reference generator that draws one update at a time — same
//    seed, same gap-then-item draws, bit-identical timestamps — for the
//    uniform, Zipf-weighted, and zero-rate profiles, regardless of where
//    the pump points fall; and it leaves the database state that single
//    ApplyUpdate calls of that sequence leave.
//  * Journal-less cells: a kNone cell (SIG) produces byte-identical results
//    with quiet elision on and off while keeping no journal at all (the
//    window-query reference checks live in retention_test.cc).
//  * Shards: 4 and 8 shards match the 1-shard cell, including the
//    applied-update count.
//  * Allocation-freedom: the drain loop (its buffers come with the
//    generator) and the warm full-cell steady state (pump + update-feed
//    folds) perform zero heap allocations (for the cell: Run(60, 100)
//    allocates exactly as often as Run(60, 50)).

#include <algorithm>
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
#include "util/random.h"

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
// RNG replay: the drain against a one-update-at-a-time reference.

struct AppliedUpdate {
  ItemId id;
  SimTime at;
};

constexpr uint64_t kReplayItems = 96;
constexpr uint64_t kReplaySeed = 20260809;
constexpr SimTime kReplayEnd = 400.0;

// The reference generator: the superposed Poisson stream drawn one update
// at a time on the generator's Rng stream — Exponential(total_rate) for the
// gap, then NextUint64(n) (uniform) or the rate-CDF lower_bound (weighted)
// for the item — with times by repeated `+=` from 0. Returns every update
// with time <= `end`.
std::vector<AppliedUpdate> ReferenceUpdates(double uniform_mu,
                                            const std::vector<double>& rates,
                                            SimTime end) {
  Rng rng(kReplaySeed);
  std::vector<double> cdf;
  double total = 0.0;
  if (rates.empty()) {
    total = uniform_mu * static_cast<double>(kReplayItems);
  } else {
    for (double r : rates) {
      total += r;
      cdf.push_back(total);
    }
  }
  std::vector<AppliedUpdate> out;
  if (total <= 0.0) return out;
  SimTime t = 0.0;
  for (;;) {
    t += rng.Exponential(total);
    ItemId id = 0;
    if (rates.empty()) {
      id = static_cast<ItemId>(rng.NextUint64(kReplayItems));
    } else {
      const double u = rng.NextDouble() * total;
      auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
      if (it == cdf.end()) --it;
      id = static_cast<ItemId>(it - cdf.begin());
    }
    if (t > end) break;
    out.push_back(AppliedUpdate{id, t});
  }
  return out;
}

// Runs one generator to kReplayEnd and returns the observed (item, time)
// application sequence. The drain goes through a deliberately irregular
// set of pump points (repeats, both inclusivities, cuts that land between
// updates) — the sequence must not depend on them.
std::vector<AppliedUpdate> DrainUpdates(double uniform_mu,
                                        const std::vector<double>& rates) {
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
  EXPECT_TRUE(gen.Start().ok());
  for (SimTime cut : {13.7, 13.7, 40.0, 111.2, 111.2, 250.0}) {
    gen.GenerateIntervalUpdates(cut, /*inclusive=*/false);
    gen.GenerateIntervalUpdates(cut, /*inclusive=*/true);
  }
  gen.GenerateIntervalUpdates(kReplayEnd, /*inclusive=*/true);
  gen.Stop();
  db.ClearExtraObservers();
  EXPECT_EQ(gen.updates_generated(), applied.size());
  EXPECT_EQ(db.total_updates(), applied.size());
  return applied;
}

void ExpectSameReplay(double uniform_mu, const std::vector<double>& rates) {
  const std::vector<AppliedUpdate> reference =
      ReferenceUpdates(uniform_mu, rates, kReplayEnd);
  const std::vector<AppliedUpdate> drained = DrainUpdates(uniform_mu, rates);
  ASSERT_GT(reference.size(), 100u);
  ASSERT_EQ(reference.size(), drained.size());
  for (size_t i = 0; i < reference.size(); ++i) {
    ASSERT_EQ(reference[i].id, drained[i].id) << "update " << i;
    // Bit-exact: the drain's lookahead decodes the same bits and
    // accumulates the same doubles by the same repeated addition.
    ASSERT_EQ(reference[i].at, drained[i].at) << "update " << i;
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
  EXPECT_TRUE(ReferenceUpdates(0.0, {}, kReplayEnd).empty());
  EXPECT_TRUE(DrainUpdates(0.0, {}).empty());
}

// The drain and single ApplyUpdate calls of the reference sequence leave
// the same database behind: versions, timestamps, values, journal.
TEST(UpdateBatchReplayTest, BothModesLeaveIdenticalDatabaseState) {
  Database dbs[2] = {Database(kReplayItems, 7), Database(kReplayItems, 7)};
  for (const AppliedUpdate& u : ReferenceUpdates(0.08, {}, kReplayEnd)) {
    dbs[0].ApplyUpdate(u.id, u.at);
  }
  {
    Simulator sim;
    UpdateGenerator gen(&sim, &dbs[1], 0.08, kReplaySeed);
    ASSERT_TRUE(gen.Start().ok());
    gen.GenerateIntervalUpdates(kReplayEnd, /*inclusive=*/true);
    gen.Stop();
  }
  ASSERT_GT(dbs[0].total_updates(), 0u);
  EXPECT_EQ(dbs[0].total_updates(), dbs[1].total_updates());
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

// A journal-less strategy (SIG) must produce byte-identical runs with quiet
// elision on and off. SIG declares kNone retention, so neither run keeps a
// journal: identical results prove the update feed alone serves both
// configurations.
TEST(JournalElisionCellTest, SigRunsAreByteIdenticalWithElisionOnAndOff) {
  for (double s : {0.9, 1.0}) {
    SCOPED_TRACE("s=" + std::to_string(s));
    CellResult results[2];
    for (int on = 0; on < 2; ++on) {
      CellConfig config = BaseConfig(StrategyKind::kSig, s);
      config.quiet_elision = on == 1;
      Cell cell(config);
      ASSERT_TRUE(cell.Build().ok());
      ASSERT_TRUE(cell.Run(4, 50).ok());
      results[on] = cell.result();
      // kNone retention whatever the quiet-elision config: no journal, no
      // bytes, ever.
      EXPECT_FALSE(cell.db()->journal_enabled());
      EXPECT_EQ(cell.db()->journal_bytes_peak(), 0u);
    }
    ExpectResultsIdentical(results[1], results[0]);
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

// The drain loop itself: the constructor sizes the lookahead buffers, so
// pumping any number of updates through a journal-less database allocates
// nothing.
TEST(UpdateBatchAllocationTest, DrainLoopAllocatesNothing) {
  Simulator sim;
  Database db(10000, /*seed=*/3);
  db.SetRetention(JournalRetention::kNone);
  UpdateGenerator gen(&sim, &db, /*mu_per_item=*/0.01, /*seed=*/77);
  ASSERT_TRUE(gen.Start().ok());
  gen.GenerateIntervalUpdates(50.0, /*inclusive=*/false);  // warm

  const size_t before = g_new_calls.load();
  for (int i = 1; i <= 40; ++i) {
    gen.GenerateIntervalUpdates(50.0 + 10.0 * static_cast<double>(i),
                                /*inclusive=*/false);
  }
  EXPECT_EQ(g_new_calls.load() - before, 0u) << "batched drain allocated";
  EXPECT_GT(gen.updates_generated(), 10000u);
}

// Full-cell steady state: with every unit asleep under SIG, the measured
// span covers elided broadcasts, batched pumps, and update-feed folds — none
// of which may allocate once warm. Two identically built
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
    EXPECT_GT(cell.updates()->updates_generated(), 0u);
    EXPECT_FALSE(cell.db()->journal_enabled());
  }
  EXPECT_EQ(allocations[1], allocations[0])
      << "warm batched steady state allocated";
}

}  // namespace
}  // namespace mobicache
