// Equivalence contract of the interval-lockstep cell engine (exp/cell.h):
// for any shard count, every per-unit statistic, the aggregate CellResult
// (minus sim_events, which counts per-shard dispatches), the channel bit
// counters, and the stateful/async counters must be byte-identical to
// goldens recorded from the retired per-event engine. Doubles are compared
// with EXPECT_EQ on purpose — the contract is bitwise reproduction, not
// approximation.
//
// Also pins the uplink semantics the goldens depend on (a fetch answers
// with the value at the fetch instant; quasi-copy obligations record the
// version at the query instant), audits the immediate-answer baselines'
// hits against historical ground truth on shard threads, and holds the
// numerical-stability contract of util/stats.h's Neumaier-compensated
// Welford accumulator: 10^7 adversarial samples (huge offset, tiny
// increments) against a long-double two-pass reference, and
// split-and-Merge consistency.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exp/cell.h"
#include "exp/megacell.h"
#include "exp/sweep.h"
#include "util/stats.h"

namespace mobicache {
namespace {

CellConfig BaseConfig(StrategyKind kind) {
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

/// FNV-1a over every per-unit statistic, doubles by bit pattern, units in
/// global order.
class StatsDigest {
 public:
  void Add(const MobileUnitStats& st) {
    Mix(st.queries_issued);
    Mix(st.queries_answered);
    Mix(st.hits);
    Mix(st.misses);
    Mix(st.reports_heard);
    Mix(st.reports_missed);
    Mix(st.items_invalidated);
    Mix(st.listen_seconds);
    Mix(st.answer_latency.count());
    Mix(st.answer_latency.mean());
    Mix(st.answer_latency.variance());
    Mix(st.answer_latency.min());
    Mix(st.answer_latency.max());
    Mix(st.answer_latency.sum());
  }
  uint64_t value() const { return h_; }

 private:
  void Mix(uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Mix(double d) { Mix(std::bit_cast<uint64_t>(d)); }

  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One BaseConfig cell, Run(5, 60): every CellResult field but sim_events,
/// the per-unit stats digest, and the stateful/async counters.
struct EngineGolden {
  StrategyKind kind;
  double hit_ratio;
  double avg_report_bits;
  uint64_t queries_answered;
  uint64_t hits;
  uint64_t misses;
  double mean_answer_latency;
  uint64_t reports_broadcast;
  uint64_t reports_heard;
  uint64_t reports_missed;
  uint64_t quiet_report_intervals;
  uint64_t quiet_skipped_intervals;
  double measured_sleep_fraction;
  uint64_t items_invalidated;
  double listen_seconds_total;
  uint64_t updates_applied;
  double throughput;
  double effectiveness;
  bool feasible;
  ChannelStats channel;
  uint64_t unit_stats_digest;
  uint64_t registry_control_messages;
  uint64_t registry_invalidations_sent;
  uint64_t registry_invalidations_missed_asleep;
  uint64_t async_messages_broadcast;
  uint64_t async_deliveries;
};

// Recorded from the per-event engine (the classic Cell, one simulator for
// the server and every unit) before it was retired, on BaseConfig.
constexpr EngineGolden kEngineGoldens[] = {
    {StrategyKind::kTs,
     0x1.d3cf3cf3cf3cfp-1, 0x1.32a1555555555p+15, 4032u, 3684u, 348u,
     0x1.aaca37bc01928p+3, 60u, 340u, 140u, 0u, 0u, 0x1.2aaaaaaaaaaabp-2, 293u,
     0x1.4d029ad42c3c9p+10, 673u, 0x1.31809cef535f1p+9, 0x1.15382e1172c4fp-2,
     true,
     {2354920u, 44544u, 356352u, 60u, 348u, 348u, 0x1.1394e3bcd3591p+8},
     0xc945bbe1ddacdbb8u, 0u, 0u, 0u, 0u, 0u},
    {StrategyKind::kAt,
     0x1.f3cf3cf3cf3cfp-2, 0x1.749999999999ap+6, 4032u, 1968u, 2064u,
     0x1.2d7009b0ae2d4p+3, 60u, 340u, 140u, 0u, 0u, 0x1.2aaaaaaaaaaabp-2, 2066u,
     0x1.950b0f27bb2fdp+1, 673u, 0x1.52d4d4bcec8d6p+7, 0x1.33767f91ee71ap-4,
     true,
     {5589u, 264192u, 2113536u, 60u, 2064u, 2064u, 0x1.dca9d4951811fp+7},
     0x2ef8c306bcd7281cu, 0u, 0u, 0u, 0u, 0u},
    {StrategyKind::kSig,
     0x1.d186186186186p-2, 0x1.3p+13, 4032u, 1833u, 2199u, 0x1.4c45054d34c26p+3,
     60u, 340u, 140u, 0u, 0u, 0x1.2aaaaaaaaaaabp-2, 2231u, 0x1.4ac083126e977p+8,
     673u, 0x1.1f5c15e2e5573p+7, 0x1.04c1a2b8e7f4cp-4, true,
     {583680u, 281472u, 2251776u, 60u, 2199u, 2199u, 0x1.37b15b573ea6ep+8},
     0x3e0f8a7f0243ad2au, 0u, 0u, 0u, 0u, 0u},
    {StrategyKind::kQuasiAt,
     0x1.f41041041041p-2, 0x1.8p+2, 4032u, 1969u, 2063u, 0x1.2d2903a9c6939p+3,
     60u, 340u, 140u, 0u, 0u, 0x1.2aaaaaaaaaaabp-2, 2064u, 0x1.ba5e353f7cedcp-3,
     673u, 0x1.534a942a30e45p+7, 0x1.33e1585d62bb6p-4, true,
     {360u, 264064u, 2112512u, 60u, 2063u, 2063u, 0x1.db631f8a08ea9p+7},
     0x320f7ba90fa15743u, 0u, 0u, 0u, 0u, 0u},
    {StrategyKind::kAdaptiveTs,
     0x1.d30c30c30c30cp-1, 0x1.cfad555555555p+11, 4032u, 3678u, 354u,
     0x1.3935683ad026dp+3, 60u, 340u, 140u, 0u, 0u, 0x1.2aaaaaaaaaaabp-2, 299u,
     0x1.007a5119ce077p+7, 673u, 0x1.dc0344f10dfbp+9, 0x1.aff1b9c2af68ap-2,
     true,
     {222565u, 682752u, 362496u, 60u, 354u, 354u, 0x1.fb200d1b71778p+6},
     0xfca45632e1f84e2du, 0u, 0u, 0u, 0u, 0u},
    {StrategyKind::kStateful,
     0x1.341f812dcd54fp-1, 0x0p+0, 5103u, 3071u, 2032u, 0x0p+0, 60u, 340u, 140u,
     0u, 0u, 0x1.2aaaaaaaaaaabp-2, 0u, 0x0p+0, 673u, 0x1.b3fe2c58b162dp+7,
     0x1.8ba11ad3303a1p-4, true,
     {1314u, 285056u, 2080768u, 206u, 2227u, 2032u, 0x1.d96d77318facfp+7},
     0xb2c0f19e27f7fe8fu, 195u, 146u, 53u, 0u, 0u},
    {StrategyKind::kIdeal,
     0x1.ddafa21693305p-1, 0x0p+0, 5103u, 4761u, 342u, 0x0p+0, 60u, 340u, 140u,
     0u, 0u, 0x1.2aaaaaaaaaaabp-2, 0u, 0x0p+0, 673u, 0x1.43cebca1af287p+10,
     0x1.25d4783a0a5ep-1, true,
     {0u, 43776u, 350208u, 60u, 342u, 342u, 0x1.3b2fec56d5ce1p+5},
     0xa50cdd6974606aa4u, 0u, 299u, 0u, 0u, 0u},
    {StrategyKind::kAsync,
     0x1.341f812dcd54fp-1, 0x1.7666666666666p+6, 5103u, 3071u, 2032u, 0x0p+0,
     60u, 340u, 140u, 0u, 0u, 0x1.2aaaaaaaaaaabp-2, 0u, 0x0p+0, 673u,
     0x1.b395b3ce026b4p+7, 0x1.8b424e4072b81p-4, true,
     {5616u, 260096u, 2080768u, 684u, 2032u, 2032u, 0x1.d54bc6a7ef87fp+7},
     0xb2c0f19e27f7fe8fu, 0u, 0u, 0u, 624u, 3603u},
};

void ExpectMatchesGolden(const Cell& cell, const EngineGolden& g) {
  const CellResult r = cell.result();
  EXPECT_EQ(r.hit_ratio, g.hit_ratio);
  EXPECT_EQ(r.avg_report_bits, g.avg_report_bits);
  EXPECT_EQ(r.queries_answered, g.queries_answered);
  EXPECT_EQ(r.hits, g.hits);
  EXPECT_EQ(r.misses, g.misses);
  EXPECT_EQ(r.mean_answer_latency, g.mean_answer_latency);
  EXPECT_EQ(r.reports_broadcast, g.reports_broadcast);
  EXPECT_EQ(r.reports_heard, g.reports_heard);
  EXPECT_EQ(r.reports_missed, g.reports_missed);
  EXPECT_EQ(r.quiet_report_intervals, g.quiet_report_intervals);
  EXPECT_EQ(r.quiet_skipped_intervals, g.quiet_skipped_intervals);
  EXPECT_EQ(r.measured_sleep_fraction, g.measured_sleep_fraction);
  EXPECT_EQ(r.items_invalidated, g.items_invalidated);
  EXPECT_EQ(r.listen_seconds_total, g.listen_seconds_total);
  EXPECT_EQ(r.updates_applied, g.updates_applied);
  EXPECT_EQ(r.throughput, g.throughput);
  EXPECT_EQ(r.effectiveness, g.effectiveness);
  EXPECT_EQ(r.feasible, g.feasible);
  EXPECT_EQ(r.channel.report_bits, g.channel.report_bits);
  EXPECT_EQ(r.channel.uplink_query_bits, g.channel.uplink_query_bits);
  EXPECT_EQ(r.channel.downlink_answer_bits, g.channel.downlink_answer_bits);
  EXPECT_EQ(r.channel.report_count, g.channel.report_count);
  EXPECT_EQ(r.channel.uplink_query_count, g.channel.uplink_query_count);
  EXPECT_EQ(r.channel.downlink_answer_count, g.channel.downlink_answer_count);
  EXPECT_EQ(r.channel.busy_seconds, g.channel.busy_seconds);

  StatsDigest digest;
  for (uint64_t i = 0; i < cell.config().num_units; ++i) {
    digest.Add(cell.UnitStats(i));
  }
  EXPECT_EQ(digest.value(), g.unit_stats_digest);
  EXPECT_EQ(cell.registry_control_messages(), g.registry_control_messages);
  EXPECT_EQ(cell.registry_invalidations_sent(),
            g.registry_invalidations_sent);
  EXPECT_EQ(cell.registry_invalidations_missed_asleep(),
            g.registry_invalidations_missed_asleep);
  EXPECT_EQ(cell.async_messages_broadcast(), g.async_messages_broadcast);
  EXPECT_EQ(cell.async_deliveries(), g.async_deliveries);
}

class MegaCellEquivalenceTest : public ::testing::TestWithParam<StrategyKind> {
};

TEST_P(MegaCellEquivalenceTest, MatchesCellAtAnyShardCount) {
  const StrategyKind kind = GetParam();
  const EngineGolden* golden = nullptr;
  for (const EngineGolden& g : kEngineGoldens) {
    if (g.kind == kind) golden = &g;
  }
  ASSERT_NE(golden, nullptr);
  const CellConfig config = BaseConfig(kind);

  // 8 shards exercises the pairwise pre-merge + loser-tree replay path
  // (taken when shards >= 4) at a width where the tree has real depth.
  for (uint32_t shards : {1u, 4u, 8u}) {
    SCOPED_TRACE(std::string(StrategyName(kind)) + " shards=" +
                 std::to_string(shards));
    Cell cell(config, shards);
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(5, 60).ok());
    ExpectMatchesGolden(cell, *golden);

    // The shard partition is exhaustive and the per-shard accounting covers
    // every unit exactly once.
    ASSERT_EQ(cell.shard_stats().size(), shards);
    uint64_t covered = 0;
    for (const CellShardStats& ss : cell.shard_stats()) {
      covered += ss.num_units;
    }
    EXPECT_EQ(covered, config.num_units);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, MegaCellEquivalenceTest,
    ::testing::Values(StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
                      StrategyKind::kQuasiAt, StrategyKind::kAdaptiveTs,
                      StrategyKind::kStateful, StrategyKind::kIdeal,
                      StrategyKind::kAsync),
    [](const ::testing::TestParamInfo<StrategyKind>& param_info) {
      return std::string(StrategyName(param_info.param));
    });

// Quasi-copy obligations record the version at the query instant, not at
// the barrier that replays the query. Reading the database at the barrier
// (already advanced to the window cut) drifted to 27,587 hits here; the
// per-event engine counted these, at every shard count.
TEST(MegaCellTest, QuasiCopyMatchesPerEventCountersAtAnyShardCount) {
  CellConfig config;
  config.model.n = 500;
  config.model.lambda = 0.1;
  config.model.mu = 2e-3;
  config.model.L = 10.0;
  config.model.k = 8;
  config.model.f = 10;
  config.model.s = 0.0;
  config.strategy = StrategyKind::kQuasiAt;
  config.quasi_alpha_intervals = 3;
  config.num_units = 10;
  config.hotspot_size = 15;
  config.seed = 31;
  for (uint32_t shards : {1u, 4u, 8u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Cell cell(config, shards);
    ASSERT_TRUE(cell.Build().ok());
    ASSERT_TRUE(cell.Run(10, 300).ok());
    const CellResult r = cell.result();
    EXPECT_EQ(r.queries_answered, 28473u);
    EXPECT_EQ(r.hits, 27577u);
    EXPECT_EQ(r.misses, 896u);
    EXPECT_EQ(r.items_invalidated, 897u);
  }
}

// The stateful baselines answer on arrival, inside the shard phase, so
// their uplink values must be the fetch-instant ones for a hit to match
// ValueAt(id, validity_ts). Observers run on shard threads: one counter
// slot per unit, summed after the run. Same audit and configuration as
// AsyncCellTest.SafetyNoStaleAnswers (grouped_async_test.cc).
class ImmediateAnswerAuditTest
    : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(ImmediateAnswerAuditTest, NoStaleHitsAtAnyShardCount) {
  CellConfig config;
  config.model.n = 300;
  config.model.mu = 2e-3;
  config.model.s = 0.3;
  config.strategy = GetParam();
  config.num_units = 8;
  config.hotspot_size = 10;
  config.seed = 13;
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Cell cell(config, shards);
    ASSERT_TRUE(cell.Build().ok());
    std::vector<uint64_t> hits(config.num_units, 0);
    std::vector<uint64_t> stale(config.num_units, 0);
    const Database* db = cell.db();
    const std::vector<MobileUnit*> units = cell.units();
    for (size_t i = 0; i < units.size(); ++i) {
      units[i]->SetAnswerObserver([db, hit_slot = &hits[i],
                                   stale_slot = &stale[i]](
                                      ItemId id, uint64_t value, SimTime ts,
                                      bool hit) {
        if (!hit) return;
        ++*hit_slot;
        if (value != db->ValueAt(id, ts)) ++*stale_slot;
      });
    }
    ASSERT_TRUE(cell.Run(20, 300).ok());
    uint64_t total_hits = 0, total_stale = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      total_hits += hits[i];
      total_stale += stale[i];
    }
    EXPECT_GT(total_hits, 500u);
    EXPECT_EQ(total_stale, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Baselines, ImmediateAnswerAuditTest,
    ::testing::Values(StrategyKind::kStateful, StrategyKind::kIdeal),
    [](const ::testing::TestParamInfo<StrategyKind>& param_info) {
      return std::string(StrategyName(param_info.param));
    });

// SIG declares kNone retention, but an answer observer audits values with
// ValueAt, a raw journal read: Run must raise the floor to full retention
// before the server arms the journal. Without the floor a Debug build stops
// at VersionAt's live-journal assert.
TEST(MegaCellTest, AnswerObserverRaisesRetentionFloorOnShards) {
  CellConfig config = BaseConfig(StrategyKind::kSig);
  Cell cell(config, 2);
  ASSERT_TRUE(cell.Build().ok());
  std::atomic<uint64_t> audited{0};
  Database* db = cell.db();
  for (MobileUnit* unit : cell.units()) {
    unit->SetAnswerObserver(
        [db, &audited](ItemId id, uint64_t, SimTime ts, bool hit) {
          if (!hit) return;
          (void)db->ValueAt(id, ts);
          audited.fetch_add(1, std::memory_order_relaxed);
        });
  }
  ASSERT_TRUE(cell.Run(5, 60).ok());
  EXPECT_EQ(db->retention(), JournalRetention::kFullWindow);
  EXPECT_GT(audited.load(), 0u);
}

TEST(MegaCellTest, ShardedSweepCsvIsByteIdentical) {
  SweepOptions options;
  options.points = 3;
  options.warmup_intervals = 3;
  options.measure_intervals = 20;
  options.num_units = 4;
  options.hotspot_size = 5;
  options.seed = 42;
  options.threads = 1;
  const std::vector<StrategyKind> kinds{StrategyKind::kTs, StrategyKind::kAt};

  std::string csv[2];
  for (int shards : {1, 2}) {
    SweepOptions opt = options;
    opt.shards = shards;
    const StatusOr<SweepResult> result =
        RunScenarioSweep(PaperScenario::kScenario1, kinds, opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->cell_timings.size(), result->simulated_cells);
    std::ostringstream os;
    WriteSweepCsv(*result, os);
    csv[shards == 1 ? 0 : 1] = os.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
}

TEST(MegaCellTest, SweepRejectsInvalidShards) {
  SweepOptions options;
  options.shards = 0;
  const StatusOr<SweepResult> result = RunScenarioSweep(
      PaperScenario::kScenario1, {StrategyKind::kTs}, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MegaCellTest, RejectsZeroShards) {
  Cell cell(BaseConfig(StrategyKind::kTs), 0);
  const Status st = cell.Build();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(MegaCellTest, RejectsMoreShardsThanUnits) {
  // Spelled through exp/megacell.h's config pair, which the perfbench
  // runner uses.
  MegaCellConfig mc;
  mc.cell = BaseConfig(StrategyKind::kTs);
  mc.cell.num_units = 4;
  mc.num_shards = 5;
  MegaCell mega(mc);
  const Status st = mega.Build();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------------------
// Numerical stability of the compensated Welford accumulator.

TEST(OnlineStatsStabilityTest, AdversarialOffsetMatchesLongDoubleReference) {
  // A classic catastrophic case for naive running sums: a huge common offset
  // with tiny per-sample wiggle. 10^7 samples of 10^9 + i * 1e-7.
  constexpr uint64_t kSamples = 10'000'000;
  constexpr double kOffset = 1e9;
  constexpr double kStep = 1e-7;

  OnlineStats stats;
  long double sum = 0.0L;
  for (uint64_t i = 0; i < kSamples; ++i) {
    const double x = kOffset + static_cast<double>(i) * kStep;
    stats.Add(x);
    sum += static_cast<long double>(x);
  }
  const long double ref_mean = sum / static_cast<long double>(kSamples);
  long double m2 = 0.0L;
  for (uint64_t i = 0; i < kSamples; ++i) {
    const long double x =
        static_cast<long double>(kOffset) +
        static_cast<long double>(static_cast<double>(i) * kStep);
    m2 += (x - ref_mean) * (x - ref_mean);
  }
  const long double ref_var = m2 / static_cast<long double>(kSamples - 1);

  EXPECT_EQ(stats.count(), kSamples);
  // The mean must be exact to ~1 ulp of the offset-dominated value.
  EXPECT_NEAR(stats.mean(), static_cast<double>(ref_mean),
              1e-6);
  // The true variance is ~(kSamples * kStep)^2 / 12 ≈ 8.3e-2; an
  // uncompensated accumulator loses it entirely (relative error ~1) at this
  // offset. Require 6 significant digits.
  ASSERT_GT(static_cast<double>(ref_var), 0.0);
  EXPECT_NEAR(stats.variance() / static_cast<double>(ref_var), 1.0, 1e-6);
  EXPECT_GE(stats.variance(), 0.0);
}

TEST(OnlineStatsStabilityTest, SplitAndMergeMatchesSequential) {
  constexpr uint64_t kSamples = 1'000'000;
  constexpr double kOffset = 1e9;
  OnlineStats sequential;
  OnlineStats left, right;
  for (uint64_t i = 0; i < kSamples; ++i) {
    const double x = kOffset + std::sin(static_cast<double>(i));
    sequential.Add(x);
    (i < kSamples / 2 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), sequential.count());
  EXPECT_NEAR(left.mean(), sequential.mean(), 1e-7);
  EXPECT_NEAR(left.variance() / sequential.variance(), 1.0, 1e-9);
  EXPECT_EQ(left.min(), sequential.min());
  EXPECT_EQ(left.max(), sequential.max());
}

}  // namespace
}  // namespace mobicache
