// Tests for the compressed (grouped) reports and the asynchronous
// invalidation broadcast, including the §3.2 AT-equivalence claim.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/model.h"
#include "core/grouped.h"
#include "exp/cell.h"
#include "exp/strategy_factory.h"

namespace mobicache {
namespace {

constexpr double kL = 10.0;

TEST(ItemGroupingTest, ContiguousBlocks) {
  ItemGrouping g(100, 10);
  EXPECT_EQ(g.block_size(), 10u);
  EXPECT_EQ(g.GroupOf(0), 0u);
  EXPECT_EQ(g.GroupOf(9), 0u);
  EXPECT_EQ(g.GroupOf(10), 1u);
  EXPECT_EQ(g.GroupOf(99), 9u);
}

TEST(ItemGroupingTest, UnevenPartitionCoversEverything) {
  ItemGrouping g(10, 3);  // blocks of 4: {0-3},{4-7},{8-9}
  EXPECT_EQ(g.block_size(), 4u);
  EXPECT_EQ(g.GroupOf(3), 0u);
  EXPECT_EQ(g.GroupOf(4), 1u);
  EXPECT_EQ(g.GroupOf(9), 2u);
}

TEST(GroupedAtServerTest, ReportsChangedGroupsOnce) {
  Database db(100, 1);
  GroupedAtServerStrategy server(&db, kL, 10);
  db.ApplyUpdate(3, 5.0);   // group 0
  db.ApplyUpdate(7, 6.0);   // group 0 again
  db.ApplyUpdate(42, 7.0);  // group 4
  const auto report = std::get<GroupedAtReport>(server.BuildReport(10.0, 1));
  EXPECT_EQ(report.groups, (std::vector<uint32_t>{0, 4}));
  EXPECT_EQ(report.num_groups, 10u);
}

TEST(GroupedAtClientTest, InvalidatesWholeMentionedGroup) {
  GroupedAtClientManager client(100, 10);
  ClientCache cache;
  GroupedAtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  r1.num_groups = 10;
  client.OnReport(Report(r1), &cache);
  client.OnUplinkFetch(3, 33, 11.0, &cache);   // group 0
  client.OnUplinkFetch(5, 55, 11.0, &cache);   // group 0
  client.OnUplinkFetch(42, 77, 11.0, &cache);  // group 4

  GroupedAtReport r2;
  r2.interval = 2;
  r2.timestamp = 20.0;
  r2.num_groups = 10;
  r2.groups = {0};
  EXPECT_EQ(client.OnReport(Report(r2), &cache), 2u);
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_FALSE(cache.Contains(5));
  EXPECT_TRUE(cache.Contains(42));
  EXPECT_DOUBLE_EQ(cache.Peek(42)->timestamp, 20.0);
}

TEST(GroupedAtClientTest, MissedReportDropsEverything) {
  GroupedAtClientManager client(100, 10);
  ClientCache cache;
  GroupedAtReport r1;
  r1.interval = 1;
  r1.timestamp = 10.0;
  r1.num_groups = 10;
  client.OnReport(Report(r1), &cache);
  client.OnUplinkFetch(3, 33, 11.0, &cache);
  GroupedAtReport r3;
  r3.interval = 3;
  r3.timestamp = 30.0;
  r3.num_groups = 10;
  EXPECT_EQ(client.OnReport(Report(r3), &cache), 1u);
  EXPECT_TRUE(cache.empty());
}

TEST(GroupedAtReportTest, SizeUsesGroupBits) {
  GroupedAtReport r;
  r.num_groups = 32;
  r.groups = {1, 2, 3};
  MessageSizes sizes;
  EXPECT_EQ(ReportSizeBits(Report(r), sizes), 3u * 5u);  // log2(32) = 5
}

TEST(GroupedModelTest, CoarserGroupsLowerHitRatioAndBits) {
  ModelParams p;
  p.mu = 1e-3;
  const StrategyEval fine = EvalGroupedAt(p, 500);   // blocks of 2
  const StrategyEval coarse = EvalGroupedAt(p, 10);  // blocks of 100
  EXPECT_GT(fine.hit_ratio, coarse.hit_ratio);
  EXPECT_GT(fine.report_bits, coarse.report_bits / 2.0);  // fewer, wider ids
  // With one group per item the hit ratio equals plain AT's.
  const StrategyEval exact = EvalGroupedAt(p, static_cast<uint32_t>(p.n));
  EXPECT_NEAR(exact.hit_ratio, EvalAt(p).hit_ratio, 1e-9);
}

TEST(GroupedCellTest, RunsAndTracksModel) {
  CellConfig config;
  config.model.n = 400;
  config.model.mu = 1e-3;
  config.model.s = 0.3;
  config.strategy = StrategyKind::kGroupedAt;
  config.num_groups = 40;
  config.num_units = 10;
  config.hotspot_size = 12;
  config.seed = 5;
  Cell cell(config);
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(30, 400).ok());
  const CellResult r = cell.result();
  const StrategyEval model = EvalGroupedAt(config.model, 40);
  EXPECT_NEAR(r.hit_ratio, model.hit_ratio, 0.05);
  EXPECT_NEAR(r.avg_report_bits, model.report_bits,
              model.report_bits * 0.2 + 2.0);
}

TEST(AsyncCellTest, DeliversOnlyToAwakeUnits) {
  // Every update is one id-sized broadcast message whether or not anybody
  // listens; only awake units receive it.
  auto run = [](double s) {
    CellConfig config;
    config.model.n = 300;
    config.model.mu = 2e-3;
    config.model.s = s;
    config.strategy = StrategyKind::kAsync;
    config.num_units = 6;
    config.hotspot_size = 10;
    config.seed = 5;
    Cell cell(config);
    EXPECT_TRUE(cell.Build().ok());
    EXPECT_TRUE(cell.Run(5, 50).ok());
    const CellResult r = cell.result();
    const uint64_t messages = cell.async_messages_broadcast();
    const uint64_t id_bits = ComputeMessageSizes(config.model).id_bits;
    EXPECT_GT(messages, 0u);
    // The periodic null report still counts a (zero-bit) transmission.
    EXPECT_EQ(r.channel.report_count, messages + r.reports_broadcast);
    EXPECT_EQ(r.channel.report_bits, messages * id_bits);
    return std::pair{messages, cell.async_deliveries()};
  };
  // Nobody awake: messages go out, nobody is invalidated.
  EXPECT_EQ(run(1.0).second, 0u);
  // Everybody awake: each message reaches all six units.
  const auto [awake_messages, awake_deliveries] = run(0.0);
  EXPECT_EQ(awake_deliveries, 6 * awake_messages);
}

TEST(AsyncCellTest, EquivalentToAtInCostAndHitRatio) {
  // §3.2: "AT is really equivalent to the asynchronous broadcast of
  // invalidation reports". Same workload, both modes: the id traffic and
  // hit ratios must agree closely.
  auto run = [](StrategyKind kind) {
    CellConfig config;
    config.model.n = 500;
    config.model.mu = 2e-3;
    config.model.s = 0.4;
    config.strategy = kind;
    config.num_units = 15;
    config.hotspot_size = 15;
    config.seed = 77;
    Cell cell(config);
    EXPECT_TRUE(cell.Build().ok());
    EXPECT_TRUE(cell.Run(30, 500).ok());
    return cell.result();
  };
  const CellResult at = run(StrategyKind::kAt);
  const CellResult async = run(StrategyKind::kAsync);

  // The paper's equivalence is about broadcast cost and cache loss; the
  // per-query hit ratio is *higher* in async mode because answers are
  // immediate (no wait through the interval during which the item may
  // change) and every same-interval repeat query counts individually
  // instead of as one batch.
  EXPECT_GE(async.hit_ratio, at.hit_ratio - 0.02);
  EXPECT_LE(async.hit_ratio, at.hit_ratio + 0.3);
  // Total identifiers broadcast: async sends every update; AT dedupes
  // within an interval, so it sends at most as many.
  EXPECT_LE(at.channel.report_bits, async.channel.report_bits);
  EXPECT_GT(at.channel.report_bits,
            static_cast<uint64_t>(
                static_cast<double>(async.channel.report_bits) * 0.8));
  // Async answers immediately instead of waiting for a report.
  EXPECT_LT(async.mean_answer_latency, at.mean_answer_latency);
}

// Async units answer on arrival, inside the shard phase, so every hit must
// match the value at its validity time at any shard count. Observers run on
// shard threads: one counter slot per unit, summed after the run.
// megacell_test audits the stateful baselines the same way.
TEST(AsyncCellTest, SafetyNoStaleAnswers) {
  CellConfig config;
  config.model.n = 300;
  config.model.mu = 2e-3;
  config.model.s = 0.3;
  config.strategy = StrategyKind::kAsync;
  config.num_units = 8;
  config.hotspot_size = 10;
  config.seed = 13;
  for (uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    Cell cell(config, shards);
    ASSERT_TRUE(cell.Build().ok());
    std::vector<uint64_t> hits(config.num_units, 0);
    std::vector<uint64_t> violations(config.num_units, 0);
    const Database* db = cell.db();
    const std::vector<MobileUnit*> units = cell.units();
    for (size_t i = 0; i < units.size(); ++i) {
      units[i]->SetAnswerObserver([db, hit_slot = &hits[i],
                                   bad_slot = &violations[i]](
                                      ItemId id, uint64_t value, SimTime ts,
                                      bool hit) {
        if (!hit) return;
        ++*hit_slot;
        if (value != db->ValueAt(id, ts)) ++*bad_slot;
      });
    }
    ASSERT_TRUE(cell.Run(20, 300).ok());
    uint64_t total_hits = 0, total_violations = 0;
    for (size_t i = 0; i < units.size(); ++i) {
      total_hits += hits[i];
      total_violations += violations[i];
    }
    EXPECT_GT(total_hits, 500u);
    EXPECT_EQ(total_violations, 0u);
  }
}

}  // namespace
}  // namespace mobicache
