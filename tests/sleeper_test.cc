// Contract tests for the sleeper fast-forward + batched-arrival engine
// (mu/mobile_unit.cc): a unit that skips interval ticks while idle must be
// observationally identical to one that ticks every interval.
//
//  * RNG stream identity: fast-forwarding consumes the SleepModel decision
//    stream strictly once per interval, in increasing interval order, and
//    the resulting awake flag matches a per-interval reference at every
//    probe point — for s in {0, 0.2, 0.9, 1.0} and for zero-query-rate
//    units (which fast-forward even while awake).
//  * Batched arrivals: the in-tick arrival kernel replays the per-event
//    draw order (exponential gap, then item pick) and timestamps bit for
//    bit against a hand-rolled reference Rng.
//  * Event-count canary: a mostly-sleeping cell dispatches far fewer events
//    than the one-tick-per-unit-interval floor of a per-interval engine.
//  * Shard cross-check: the lockstep cell stays byte-identical across shard
//    counts when nearly every unit is fast-forwarding.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/at.h"
#include "exp/cell.h"
#include "mu/mobile_unit.h"
#include "mu/sleep_model.h"
#include "util/random.h"

namespace mobicache {
namespace {

// Uplink that records every fetch; answers value = 1000 + id like mu_test.
class RecordingUplink : public UplinkService {
 public:
  explicit RecordingUplink(Simulator* sim) : sim_(sim) {}
  FetchResult FetchItem(const UplinkQueryInfo& info) override {
    queries.push_back({info.id, sim_->Now()});
    return FetchResult{1000 + info.id, sim_->Now()};
  }
  std::vector<std::pair<ItemId, SimTime>> queries;

 private:
  Simulator* sim_;
};

// Wraps another SleepModel and asserts the consumption contract: exactly one
// draw per interval, in increasing order, starting at 0 — whether the draw
// came from a per-interval tick or a fast-forward scan.
class OrderSpySleepModel : public SleepModel {
 public:
  explicit OrderSpySleepModel(std::unique_ptr<SleepModel> inner)
      : inner_(std::move(inner)) {}

  bool AwakeForInterval(uint64_t interval) override {
    EXPECT_EQ(interval, next_expected_)
        << "sleep stream consumed out of order or twice";
    ++next_expected_;
    const bool awake = inner_->AwakeForInterval(interval);
    decisions_.push_back(awake);
    return awake;
  }
  double EffectiveSleepProbability() const override {
    return inner_->EffectiveSleepProbability();
  }

  const std::vector<bool>& decisions() const { return decisions_; }

 private:
  std::unique_ptr<SleepModel> inner_;
  uint64_t next_expected_ = 0;
  std::vector<bool> decisions_;
};

MobileUnitConfig UnitConfig(double lambda_per_item) {
  MobileUnitConfig config;
  config.latency = 10.0;
  config.lambda_per_item = lambda_per_item;
  config.hotspot = {0, 1, 2, 3, 4};
  return config;
}

// ---------------------------------------------------------------------------
// RNG stream identity across sleep probabilities and query rates.

struct StreamIdentityCase {
  double s;
  double lambda_per_item;
};

class SleepStreamIdentityTest
    : public ::testing::TestWithParam<StreamIdentityCase> {};

TEST_P(SleepStreamIdentityTest, FastForwardConsumesIdenticalDecisionStream) {
  const StreamIdentityCase param = GetParam();
  // 100 intervals: crosses the kMaxFastForwardScan continuation boundary for
  // never-flipping streams (s = 1.0, and zero-rate units at s = 0.0).
  constexpr uint64_t kIntervals = 100;
  constexpr double kLatency = 10.0;
  constexpr uint64_t kSleepSeed = 11;

  // Per-interval reference: the exact decisions a tick-every-interval engine
  // would have drawn from the same seeded stream.
  std::vector<bool> ref;
  {
    BernoulliSleepModel reference(param.s, kSleepSeed);
    for (uint64_t i = 0; i < kIntervals; ++i) {
      ref.push_back(reference.AwakeForInterval(i));
    }
  }

  Simulator sim;
  RecordingUplink uplink(&sim);
  auto spy_owned = std::make_unique<OrderSpySleepModel>(
      std::make_unique<BernoulliSleepModel>(param.s, kSleepSeed));
  OrderSpySleepModel* spy = spy_owned.get();
  MobileUnit unit(&sim, UnitConfig(param.lambda_per_item),
                  std::make_unique<AtClientManager>(), std::move(spy_owned),
                  &uplink, 21);
  ASSERT_TRUE(unit.Start().ok());

  // Probe mid-interval: the awake flag must match the reference decision for
  // every interval, including the ones whose tick was fast-forwarded away.
  std::vector<bool> probed(kIntervals, false);
  for (uint64_t i = 0; i < kIntervals; ++i) {
    sim.ScheduleAt(kLatency * static_cast<double>(i) + kLatency / 2,
                   [&unit, &probed, i] { probed[i] = unit.awake(); });
  }
  sim.RunUntil(kLatency * static_cast<double>(kIntervals));

  for (uint64_t i = 0; i < kIntervals; ++i) {
    EXPECT_EQ(probed[i], ref[i]) << "interval " << i;
  }
  // The spy may legitimately have drawn a few decisions past the end of the
  // run (a scan cannot know when the simulation stops), but the prefix must
  // be the reference stream exactly; order/single-consumption is asserted
  // inside the spy itself.
  ASSERT_GE(spy->decisions().size(), kIntervals);
  for (uint64_t i = 0; i < kIntervals; ++i) {
    EXPECT_EQ(spy->decisions()[i], ref[i]) << "interval " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SleepProbabilities, SleepStreamIdentityTest,
    ::testing::Values(StreamIdentityCase{0.0, 0.2},   // never idle
                      StreamIdentityCase{0.2, 0.2},   // short naps
                      StreamIdentityCase{0.9, 0.2},   // long naps
                      StreamIdentityCase{1.0, 0.2},   // never wakes
                      StreamIdentityCase{0.0, 0.0},   // awake but rate 0
                      StreamIdentityCase{0.5, 0.0}),  // both idle reasons
    [](const ::testing::TestParamInfo<StreamIdentityCase>& param_info) {
      const auto& p = param_info.param;
      std::string name = "s";
      name += std::to_string(static_cast<int>(p.s * 100));
      name += "_lambda";
      name += std::to_string(static_cast<int>(p.lambda_per_item * 100));
      return name;
    });

// Scripted-nap fixture: awake for interval 0, a long nap over 2..39, a
// short awake burst at 40..42, a second nap over 44..98, awake at 99.
class ScriptedSleep : public SleepModel {
 public:
  bool AwakeForInterval(uint64_t interval) override {
    EXPECT_EQ(interval, next_expected_++);
    return interval == 0 || (interval >= 40 && interval <= 42) ||
           interval == 99;
  }
  double EffectiveSleepProbability() const override { return 0.95; }

 private:
  uint64_t next_expected_ = 0;
};

// A scripted pattern with two long naps pins the exact event count: one tick
// per awake interval, one per sleep onset, one per wake — nothing else.
TEST(SleepFastForwardTest, ScriptedNapsCostOneEventEach) {
  Simulator sim;
  RecordingUplink uplink(&sim);
  MobileUnit unit(&sim, UnitConfig(0.2), std::make_unique<AtClientManager>(),
                  std::make_unique<ScriptedSleep>(), &uplink, 21);
  ASSERT_TRUE(unit.Start().ok());
  sim.RunUntil(1005.0);

  EXPECT_FALSE(unit.awake());  // interval 100's tick put it back to sleep
  EXPECT_GT(unit.stats().queries_issued, 0u);
  // Ticks dispatched: intervals 0 (start), 1 (sleep onset, scheduled
  // normally by the awake interval 0), 40 (wake), 41, 42 (awake), 43 (sleep
  // onset), 99 (wake), 100 (sealed the last awake interval and slept
  // again). Both naps (2..39 and 44..98) cost zero events. Report-driven
  // arrivals are materialized inside ticks, so they add no events either.
  EXPECT_EQ(sim.DispatchedEvents(), 8u);
}

// NextWakeTime canary against the scripted naps: during a nap it names the
// exact time of the fast-forward-scheduled wake tick (the quiet-elision
// horizon the server's WakeIndex aggregates); while awake it is "now".
TEST(SleepFastForwardTest, NextWakeTimeNamesTheScheduledWakeTick) {
  Simulator sim;
  RecordingUplink uplink(&sim);
  MobileUnit unit(&sim, UnitConfig(0.2), std::make_unique<AtClientManager>(),
                  std::make_unique<ScriptedSleep>(), &uplink, 21);
  ASSERT_TRUE(unit.Start().ok());

  struct Probe {
    SimTime at;
    SimTime expected;  // -1 marks "awake: expect the probe time itself"
  };
  // Interval 1's tick (T = 10) starts the first nap with its wake tick
  // pre-scheduled at interval 40 (T = 400); interval 43's tick (T = 430)
  // starts the second nap waking at interval 99 (T = 990).
  const std::vector<Probe> probes = {
      {5.0, -1.0},    // awake interval 0
      {15.0, 400.0},  // just asleep
      {200.0, 400.0}, // deep in the first nap
      {415.0, -1.0},  // awake burst
      {500.0, 990.0}, // second nap
      {985.0, 990.0}, // almost over
      {995.0, -1.0},  // awake again
  };
  std::vector<SimTime> observed(probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    sim.ScheduleAt(probes[i].at,
                   [&unit, &observed, i] { observed[i] = unit.NextWakeTime(); });
  }
  sim.RunUntil(1005.0);

  for (size_t i = 0; i < probes.size(); ++i) {
    const SimTime expected =
        probes[i].expected < 0.0 ? probes[i].at : probes[i].expected;
    EXPECT_EQ(observed[i], expected) << "probe at t=" << probes[i].at;
  }
}

// ---------------------------------------------------------------------------
// Batched arrival kernel: bit-for-bit replay of the per-event draw order.

TEST(BatchedArrivalTest, ReplaysPerEventDrawOrderBitForBit) {
  constexpr uint64_t kUnitSeed = 21;
  constexpr double kLatency = 10.0;
  const std::vector<ItemId> kHotspot{0, 1, 2, 3, 4};
  const double rate = 0.2 * static_cast<double>(kHotspot.size());

  Simulator sim;
  RecordingUplink uplink(&sim);
  MobileUnitConfig config = UnitConfig(0.2);
  MobileUnit unit(&sim, config, std::make_unique<AtClientManager>(),
                  std::make_unique<BernoulliSleepModel>(0.0, 11), &uplink,
                  kUnitSeed);
  ASSERT_TRUE(unit.Start().ok());

  // Reference replay with a raw Rng on the unit's seed: per interval, the
  // per-event engine draws gap-then-item, timestamps accumulating gap by
  // gap from the interval start. Intervals 0..2 cover everything the unit
  // generates by T = 25 (the tick at T = 20 materializes all of [20, 30)).
  Rng ref(kUnitSeed);
  uint64_t ref_issued = 0;
  std::map<ItemId, SimTime> ref_first;  // first arrival, intervals 0 and 1
  for (uint64_t interval = 0; interval < 3; ++interval) {
    SimTime t = kLatency * static_cast<double>(interval);
    const SimTime end = kLatency * static_cast<double>(interval + 1);
    for (;;) {
      t += ref.Exponential(rate);
      if (t >= end) break;
      const ItemId item = kHotspot[ref.NextUint64(kHotspot.size())];
      ++ref_issued;
      if (interval < 2) {
        auto [it, inserted] = ref_first.emplace(item, t);
        if (!inserted && t < it->second) it->second = t;
      }
    }
  }
  ASSERT_FALSE(ref_first.empty());

  // Run through the tick at T = 20, then deliver an AT report covering
  // intervals <= 2 at T = 25: every batch sealed from intervals 0 and 1 is
  // answered (cold cache, so one uplink fetch per batch, in item order).
  sim.RunUntil(25.0);
  AtReport report;
  report.interval = 2;
  report.timestamp = 25.0;
  ASSERT_TRUE(unit.awake());
  unit.OnReportDelivery(Report(report));

  EXPECT_EQ(unit.stats().queries_issued, ref_issued);
  ASSERT_EQ(uplink.queries.size(), ref_first.size());
  size_t i = 0;
  double ref_latency_sum = 0.0;
  for (const auto& [item, first] : ref_first) {
    EXPECT_EQ(uplink.queries[i].first, item);
    EXPECT_EQ(uplink.queries[i].second, 25.0);
    ref_latency_sum += 25.0 - first;
    ++i;
  }
  EXPECT_EQ(unit.stats().queries_answered, ref_first.size());
  EXPECT_EQ(unit.stats().hits, 0u);
  // Answer latency is measured from each batch's *first* arrival — exactly
  // the reference timestamps, so the accumulated sum must match to rounding.
  EXPECT_EQ(unit.stats().answer_latency.count(), ref_first.size());
  EXPECT_NEAR(unit.stats().answer_latency.sum(), ref_latency_sum, 1e-9);
}

// ---------------------------------------------------------------------------
// Event-count canary and sharded-engine cross-check at high sleep rates.

TEST(SleeperCellTest, EventCountTracksAwakeWorkNotPopulation) {
  CellConfig config;
  config.model.n = 2000;
  config.model.lambda = 0.01;
  config.model.mu = 1e-4;
  config.model.L = 10.0;
  config.model.s = 0.95;
  config.strategy = StrategyKind::kTs;
  config.num_units = 500;
  config.hotspot_size = 8;
  config.seed = 7;

  Cell cell(config);
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(2, 20).ok());
  const CellResult result = cell.result();
  EXPECT_GT(result.queries_answered, 0u);
  EXPECT_NEAR(result.measured_sleep_fraction, 0.95, 0.03);

  // A per-interval engine dispatches at least one tick per unit-interval:
  // 500 units x 23 intervals = 11500 events before counting arrivals. With
  // 95% of unit-intervals asleep the fast-forwarding engine must come in
  // far below that floor (expected ~3.3 events per unit for the whole run).
  const uint64_t per_interval_floor = config.num_units * 23;
  EXPECT_LT(result.sim_events, per_interval_floor / 3);
}

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
  EXPECT_EQ(a.answer_latency.mean(), b.answer_latency.mean());
  EXPECT_EQ(a.answer_latency.variance(), b.answer_latency.variance());
}

// megacell_test pins all strategies at s = 0.3 to recorded goldens; this
// pins the shard equivalence where fast-forwarding dominates (s = 0.95:
// almost every unit-interval is skipped, naps regularly span report windows)
// for a report-driven strategy and an immediate-answer stateful one. The
// reference is the 1-shard cell.
TEST(SleeperCellTest, MegaCellMatchesCellWhenMostUnitsSleep) {
  for (StrategyKind kind : {StrategyKind::kTs, StrategyKind::kStateful}) {
    CellConfig config;
    config.model.n = 500;
    config.model.mu = 0.002;
    config.model.lambda = 0.05;
    config.model.s = 0.95;
    config.model.L = 10.0;
    config.model.k = 8;
    config.strategy = kind;
    config.num_units = 16;
    config.hotspot_size = 30;
    config.seed = 1234;

    Cell single(config);
    ASSERT_TRUE(single.Build().ok());
    ASSERT_TRUE(single.Run(5, 60).ok());
    const CellResult single_result = single.result();

    for (uint32_t shards : {3u, 8u}) {
      SCOPED_TRACE(std::string(StrategyName(kind)) + " shards=" +
                   std::to_string(shards));
      Cell mega(config, shards);
      ASSERT_TRUE(mega.Build().ok());
      ASSERT_TRUE(mega.Run(5, 60).ok());

      const CellResult& m = mega.result();
      EXPECT_EQ(m.queries_answered, single_result.queries_answered);
      EXPECT_EQ(m.hits, single_result.hits);
      EXPECT_EQ(m.misses, single_result.misses);
      EXPECT_EQ(m.hit_ratio, single_result.hit_ratio);
      EXPECT_EQ(m.avg_report_bits, single_result.avg_report_bits);
      EXPECT_EQ(m.mean_answer_latency, single_result.mean_answer_latency);
      EXPECT_EQ(m.reports_heard, single_result.reports_heard);
      EXPECT_EQ(m.reports_missed, single_result.reports_missed);
      EXPECT_EQ(m.measured_sleep_fraction,
                single_result.measured_sleep_fraction);
      EXPECT_EQ(m.items_invalidated, single_result.items_invalidated);
      EXPECT_EQ(m.listen_seconds_total, single_result.listen_seconds_total);
      EXPECT_EQ(m.throughput, single_result.throughput);
      EXPECT_EQ(m.channel.uplink_query_bits,
                single_result.channel.uplink_query_bits);
      EXPECT_EQ(m.channel.busy_seconds, single_result.channel.busy_seconds);
      for (uint64_t i = 0; i < config.num_units; ++i) {
        SCOPED_TRACE("unit " + std::to_string(i));
        ExpectUnitStatsEqual(mega.UnitStats(i), single.UnitStats(i));
      }
    }
  }
}

}  // namespace
}  // namespace mobicache
