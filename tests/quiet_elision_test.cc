// Equivalence and allocation contracts for quiet-interval elision
// (server/server.cc): skipping report materialization and fan-out while
// every unit sleeps must be observationally invisible.
//
//  * Byte-identity: for randomized sleep mixes and the s = 0 / s = 1 edge
//    cells, every counter a run exposes — ServerStats, channel traffic,
//    per-unit statistics, derived Eq. 9/10 metrics, scheduler dispatches —
//    is identical with elision on and off, across strategies with a cheap
//    AdvanceQuiet (TS, AT, SIG, nocache, grouped, hybrid) and strategies
//    that fall back to build-without-deliver (adaptive TS, quasi-copy AT),
//    and under renewal sleep with long off periods, including a
//    warm-up/measure boundary that falls inside a quiet stretch.
//  * Invariant: quiet_skipped_intervals <= quiet_report_intervals, and the
//    skip counter actually moves where it should (all-sleepers cells) and
//    stays zero where it must (elision off).
//  * Shard cross-check: with elision on, 4 and 8 shards match the 1-shard
//    cell, skip counter included — the shard-aggregated wake horizon is
//    one interval stale by construction at every shard count.
//  * Allocation-freedom: once warm, the broadcast path — arena report
//    reuse, delivery scheduling, awake-set fan-out, barrier replay, and the
//    elided variant — and the TS/AT/SIG client path — arrivals, report
//    diagnosis, hits and uplink misses — perform zero heap allocations: a
//    counting global operator new shows Run(60, 100) allocating exactly as
//    often as Run(60, 50) on an identically built cell.

#include <atomic>
#include <cctype>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/cell.h"
#include "mu/mobile_unit.h"

// Counts every global operator new in this test binary so the broadcast
// and client paths' allocation-free contracts can be asserted as a delta
// around a measured span. Atomic because parts of the suite also run under
// TSan. The nothrow forms (std::stable_sort's temporary buffer) are
// replaced too: every new/delete pair must meet in the same malloc/free
// family, or ASan reports an alloc-dealloc mismatch.
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
MOBICACHE_TEST_NOINLINE void* operator new(std::size_t size,
                                           const std::nothrow_t&) noexcept {
  ++g_new_calls;
  return std::malloc(size);
}
MOBICACHE_TEST_NOINLINE void* operator new[](std::size_t size,
                                             const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
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
MOBICACHE_TEST_NOINLINE void operator delete(void* p,
                                             const std::nothrow_t&) noexcept {
  std::free(p);
}
MOBICACHE_TEST_NOINLINE void operator delete[](void* p,
                                               const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace mobicache {
namespace {

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

// Everything except quiet_skipped_intervals — the one counter that is
// *supposed* to differ between an eliding and a non-eliding run.
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

// ---------------------------------------------------------------------------
// Elision on vs off: byte-identical results across strategies and sleep
// probabilities, including both quiet-path variants (AdvanceQuiet and the
// build-without-deliver fallback).

// Runs `base` with quiet elision off and on and expects every counter —
// per-unit statistics included — to match. An elided interval still runs
// its broadcast tick and its consumption event on the server; only the
// shards' fan-out event for it goes away, so the eliding run dispatches
// fewer events, never more. Stores the eliding run's result in `eliding`.
void ExpectElisionTwinsIdentical(const CellConfig& base, uint64_t warmup,
                                 uint64_t measure, CellResult* eliding) {
  CellResult results[2];
  std::vector<MobileUnitStats> unit_stats[2];
  for (int on = 0; on < 2; ++on) {
    CellConfig config = base;
    config.quiet_elision = on == 1;
    Cell cell(config);
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(warmup, measure).ok());
    results[on] = cell.result();
    for (uint64_t i = 0; i < config.num_units; ++i) {
      unit_stats[on].push_back(cell.UnitStats(i));
    }
  }

  ExpectResultsIdentical(results[1], results[0]);
  // Not part of ExpectResultsIdentical because the shard-count comparison
  // below legitimately differs.
  EXPECT_LE(results[1].sim_events, results[0].sim_events);
  if (results[1].quiet_skipped_intervals > 0) {
    EXPECT_LT(results[1].sim_events, results[0].sim_events);
  }
  EXPECT_EQ(results[0].quiet_skipped_intervals, 0u) << "elision off";
  EXPECT_LE(results[1].quiet_skipped_intervals,
            results[1].quiet_report_intervals);
  ASSERT_EQ(unit_stats[0].size(), unit_stats[1].size());
  for (size_t i = 0; i < unit_stats[0].size(); ++i) {
    SCOPED_TRACE("unit " + std::to_string(i));
    ExpectUnitStatsEqual(unit_stats[1][i], unit_stats[0][i]);
  }
  *eliding = results[1];
}

struct ElisionCase {
  StrategyKind kind;
  double s;
};

class ElisionEquivalenceTest : public ::testing::TestWithParam<ElisionCase> {};

TEST_P(ElisionEquivalenceTest, OnAndOffRunsAreByteIdentical) {
  const ElisionCase param = GetParam();
  CellResult eliding;
  ExpectElisionTwinsIdentical(BaseConfig(param.kind, param.s), 4, 50,
                              &eliding);

  // Every-unit-asleep cells must actually exercise the elision path: with
  // s = 1 each unit sleeps from its first decision on, so every measured
  // interval is quiet and (for cheap-advance strategies) elided.
  if (param.s == 1.0) {
    EXPECT_EQ(eliding.quiet_report_intervals, 50u);
    EXPECT_GT(eliding.quiet_skipped_intervals, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSleepMixes, ElisionEquivalenceTest,
    ::testing::Values(
        // AdvanceQuiet strategies across the sleep range, edges included.
        ElisionCase{StrategyKind::kTs, 0.0},
        ElisionCase{StrategyKind::kTs, 0.6},
        ElisionCase{StrategyKind::kTs, 0.95},
        ElisionCase{StrategyKind::kTs, 1.0},
        ElisionCase{StrategyKind::kAt, 0.9},
        ElisionCase{StrategyKind::kAt, 1.0},
        ElisionCase{StrategyKind::kSig, 0.9},
        ElisionCase{StrategyKind::kSig, 1.0},
        ElisionCase{StrategyKind::kNoCache, 0.95},
        ElisionCase{StrategyKind::kGroupedAt, 0.9},
        ElisionCase{StrategyKind::kHybridSig, 0.9},
        // Fallback strategies (no cheap advance): build-without-deliver.
        ElisionCase{StrategyKind::kAdaptiveTs, 0.9},
        ElisionCase{StrategyKind::kQuasiAt, 0.9},
        ElisionCase{StrategyKind::kQuasiAt, 1.0}),
    [](const ::testing::TestParamInfo<ElisionCase>& param_info) {
      const auto& p = param_info.param;
      std::string name(StrategyName(p.kind));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      name += "_s";
      name += std::to_string(static_cast<int>(p.s * 100));
      return name;
    });

// Renewal (on/off period) sleep drives wake times that are not aligned to
// interval boundaries through the same index; the equivalence must hold
// there too.
TEST(ElisionEquivalenceTest, RenewalSleepRunsAreByteIdentical) {
  CellConfig config = BaseConfig(StrategyKind::kTs, 0.0);
  config.renewal_sleep = true;
  config.mean_awake_seconds = 15.0;
  config.mean_sleep_seconds = 120.0;
  CellResult eliding;
  ExpectElisionTwinsIdentical(config, 4, 50, &eliding);
}

// Long off periods (~40 intervals) put the whole cell to sleep for long
// stretches, and wakes land anywhere inside an interval — including while
// an elided report would still be on the air (the materialize fallback).
void ExpectLongRenewalSleepTwinsIdentical(StrategyKind kind) {
  CellConfig config = BaseConfig(kind, 0.0);
  config.num_units = 6;
  config.seed = 20260809;
  config.renewal_sleep = true;
  config.mean_awake_seconds = 12.0;
  config.mean_sleep_seconds = 400.0;
  CellResult eliding;
  ExpectElisionTwinsIdentical(config, 4, 80, &eliding);
  EXPECT_GT(eliding.quiet_skipped_intervals, 0u) << "elision never engaged";
}

TEST(ElisionEquivalenceTest, LongRenewalSleepTsRunsAreByteIdentical) {
  ExpectLongRenewalSleepTwinsIdentical(StrategyKind::kTs);
}

TEST(ElisionEquivalenceTest, LongRenewalSleepSigRunsAreByteIdentical) {
  ExpectLongRenewalSleepTwinsIdentical(StrategyKind::kSig);
}

TEST(ElisionEquivalenceTest, LongRenewalSleepNoCacheRunsAreByteIdentical) {
  ExpectLongRenewalSleepTwinsIdentical(StrategyKind::kNoCache);
}

// The warm-up/measure boundary resets every counter; with ~60-interval
// sleep stretches the boundary at interval 20 almost surely lands inside a
// quiet stretch, where elided and materialized intervals must bin alike.
TEST(ElisionEquivalenceTest, WarmupBoundaryInsideAQuietStretchIsByteIdentical) {
  CellConfig config = BaseConfig(StrategyKind::kTs, 0.0);
  config.num_units = 6;
  config.seed = 20260809;
  config.renewal_sleep = true;
  config.mean_awake_seconds = 8.0;
  config.mean_sleep_seconds = 600.0;
  CellResult eliding;
  ExpectElisionTwinsIdentical(config, 20, 60, &eliding);
  EXPECT_GT(eliding.quiet_skipped_intervals, 0u) << "elision never engaged";
}

// ---------------------------------------------------------------------------
// Sharded engine: the aggregated per-shard wake indexes (stale by one
// interval at the broadcast point) must still produce identical results.

TEST(ElisionEquivalenceTest, MegaCellMatchesCellAcrossShardCounts) {
  for (StrategyKind kind : {StrategyKind::kTs, StrategyKind::kSig}) {
    CellConfig config = BaseConfig(kind, 0.9);
    config.num_units = 16;

    Cell single(config);
    ASSERT_TRUE(single.Build().ok());
    ASSERT_TRUE(single.Run(4, 50).ok());
    const CellResult single_result = single.result();
    EXPECT_GT(single_result.quiet_skipped_intervals, 0u);

    for (uint32_t shards : {4u, 8u}) {
      SCOPED_TRACE(std::string(StrategyName(kind)) + " shards=" +
                   std::to_string(shards));
      Cell sharded(config, shards);
      ASSERT_TRUE(sharded.Build().ok());
      ASSERT_TRUE(sharded.Run(4, 50).ok());

      const CellResult& m = sharded.result();
      ExpectResultsIdentical(m, single_result);
      // At Broadcast(i) the shard ticks for interval i have not run yet, so
      // the aggregated wake indexes are one interval stale and the server
      // conservatively elides only intervals it can prove quiet. The shard
      // partition must not change which ones.
      EXPECT_EQ(m.quiet_skipped_intervals,
                single_result.quiet_skipped_intervals);
      EXPECT_LE(m.quiet_skipped_intervals, m.quiet_report_intervals);
      for (uint64_t i = 0; i < config.num_units; ++i) {
        SCOPED_TRACE("unit " + std::to_string(i));
        ExpectUnitStatsEqual(sharded.UnitStats(i), single.UnitStats(i));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation-freedom of the warm broadcast path.

// The gate compares two identically built cells: the one that runs 50 more
// measured intervals must perform exactly as many heap allocations inside
// Run(), so the steady state — past the 60 warm-up intervals that size
// every reused buffer — allocates nothing per interval. Updates are three
// per interval at fixed instants instead of a Poisson stream, whose record
// intervals would legitimately grow report and journal buffers.
class BroadcastAllocationTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kWarmup = 60;
  static constexpr uint64_t kShort = 50;
  static constexpr uint64_t kLong = 100;
  static constexpr uint64_t kUpdatesPerInterval = 3;

  // Heap allocations inside one freshly built cell's Run(); `result` gets
  // the cell's result. `config` must carry a zero update rate: the updates
  // are scheduled here, before the measured span.
  static size_t RunAllocations(const CellConfig& config, uint64_t measure,
                               CellResult* result) {
    Cell cell(config);
    EXPECT_TRUE(cell.Build().ok());
    const double L = config.model.L;
    Database* db = cell.db();
    for (uint64_t i = 0; i <= kWarmup + measure; ++i) {
      for (uint64_t u = 0; u < kUpdatesPerInterval; ++u) {
        const double t =
            L * static_cast<double>(i) +
            (static_cast<double>(u) + 1.0) * L /
                (static_cast<double>(kUpdatesPerInterval) + 1.0);
        const ItemId id =
            static_cast<ItemId>((i * 7 + u * 13) % config.model.n);
        cell.sim()->ScheduleAt(t, [db, id, t] { db->ApplyUpdate(id, t); });
      }
    }
    const size_t before = g_new_calls.load();
    EXPECT_TRUE(cell.Run(kWarmup, measure).ok());
    const size_t allocations = g_new_calls.load() - before;
    *result = cell.result();
    return allocations;
  }

  // Expects the long run to allocate exactly as often as the short one and
  // returns the long run's result. A first, unmeasured run grows the
  // per-thread scratch both measured runs then share.
  static CellResult ExpectSteadyStateAllocatesNothing(
      const CellConfig& config, const char* path) {
    CellResult result;
    RunAllocations(config, kShort, &result);
    const size_t short_run = RunAllocations(config, kShort, &result);
    const size_t long_run = RunAllocations(config, kLong, &result);
    EXPECT_EQ(long_run, short_run) << "warm " << path << " allocated";
    return result;
  }
};

TEST_F(BroadcastAllocationTest, MaterializedSteadyStateAllocatesNothing) {
  // All units awake (s = 0) but with zero query rate: every interval builds
  // a real report into the arena and fans it out to the full awake set; no
  // uplink traffic muddies the count.
  CellConfig config = BaseConfig(StrategyKind::kTs, 0.0);
  config.model.lambda = 0.0;
  config.model.mu = 0.0;
  config.num_units = 8;
  const CellResult r =
      ExpectSteadyStateAllocatesNothing(config, "materialized broadcast path");
  EXPECT_EQ(r.reports_broadcast, kLong);
  EXPECT_EQ(r.quiet_report_intervals, 0u);
  EXPECT_GT(r.avg_report_bits, 0.0);
}

TEST_F(BroadcastAllocationTest, ElidedSteadyStateAllocatesNothing) {
  // Everyone asleep: after warm-up every interval takes the AdvanceQuiet +
  // elided-delivery path (modulo the bounded fast-forward wake ticks, which
  // are also allocation-free).
  CellConfig config = BaseConfig(StrategyKind::kTs, 1.0);
  config.model.lambda = 0.0;
  config.model.mu = 0.0;
  config.num_units = 8;
  const CellResult r =
      ExpectSteadyStateAllocatesNothing(config, "elided broadcast path");
  EXPECT_GT(r.quiet_skipped_intervals, 0u);
  EXPECT_GT(r.avg_report_bits, 0.0);
}

// ---------------------------------------------------------------------------
// Allocation-freedom of the warm client path: every unit awake (s = 0) with
// a live query stream, so each interval generates arrivals, seals and
// answers query batches (hits, and uplink misses that refill the cache),
// and diagnoses each report against the cache — TS/AT id lists and SIG
// signatures alike.
//
// A unit's batch lists hold one entry per distinct hot-spot item, so their
// reused storage is bounded by the hot-spot size and stops growing once an
// interval has queried the whole hot spot. The rate here (5 queries per
// item per interval) queries every item in nearly every interval, so the
// warm-up reaches that bound and any allocation in the measured span is a
// per-interval cost rather than a new high-water mark. At thinner rates the
// lists still grow on record intervals, up to the same bound.

class ClientAllocationTest
    : public BroadcastAllocationTest,
      public ::testing::WithParamInterface<StrategyKind> {};

TEST_P(ClientAllocationTest, WarmClientCycleAllocatesNothing) {
  CellConfig config = BaseConfig(GetParam(), 0.0);
  config.model.lambda = 0.5;
  config.model.mu = 0.0;
  config.num_units = 8;
  const CellResult r =
      ExpectSteadyStateAllocatesNothing(config, "client path");
  // The measured span ran the whole client cycle.
  EXPECT_GT(r.hits, 0u);
  EXPECT_GT(r.misses, 0u);
  EXPECT_GT(r.items_invalidated, 0u);
}

INSTANTIATE_TEST_SUITE_P(ReportStrategies, ClientAllocationTest,
                         ::testing::Values(StrategyKind::kTs,
                                           StrategyKind::kAt,
                                           StrategyKind::kSig),
                         [](const ::testing::TestParamInfo<StrategyKind>& p) {
                           return std::string(StrategyName(p.param));
                         });

}  // namespace
}  // namespace mobicache
