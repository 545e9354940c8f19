// Tests for the hybrid SIG strategy (§10): hot set broadcast individually,
// cold set covered by signatures.

#include <algorithm>

#include <gtest/gtest.h>

#include "analysis/model.h"
#include "core/hybrid.h"
#include "exp/cell.h"

namespace mobicache {
namespace {

constexpr double kL = 10.0;

SignatureParams Params(uint64_t n, uint32_t f = 5) {
  SignatureParams p;
  p.f = f;
  p.g = 16;
  p.k_threshold = 1.25;
  p.m = PaperRequiredSignatures(n, f, 0.05);
  return p;
}

TEST(ServerSignatureStateTest, ExcludedItemsDoNotTouchSignatures) {
  Database db(200, 3);
  SignatureFamily fam(200, Params(200), 17);
  std::vector<ItemId> excluded{5, 10, 15};
  ServerSignatureState state(&fam, &db, &excluded);
  const auto before = state.Combined();
  db.ApplyUpdate(10, 1.0);
  state.OnItemChanged(10);
  EXPECT_EQ(state.Combined(), before);  // excluded: no fold
  db.ApplyUpdate(11, 2.0);
  state.OnItemChanged(11);
  EXPECT_NE(state.Combined(), before);  // cold item folds normally
}

struct HybridRig {
  HybridRig()
      : db(300, 3),
        family(300, Params(300), 17),
        hot{1, 2, 3},
        server(&db, &family, kL, hot) {
    server.AttachUpdateFeed(&db);
  }

  HybridReport Build(uint64_t interval) {
    return std::get<HybridReport>(
        server.BuildReport(kL * static_cast<double>(interval), interval));
  }

  Database db;
  SignatureFamily family;
  std::vector<ItemId> hot;
  HybridSigServerStrategy server;
};

TEST(HybridServerTest, HotChangesAreListedNotSigned) {
  HybridRig rig;
  const auto r0 = rig.Build(0);
  rig.db.ApplyUpdate(2, 5.0);  // hot
  const auto r1 = rig.Build(1);
  EXPECT_EQ(r1.hot_ids, (std::vector<ItemId>{2}));
  EXPECT_EQ(r1.combined, r0.combined);  // signatures untouched
}

TEST(HybridServerTest, ColdChangesAreSignedNotListed) {
  HybridRig rig;
  const auto r0 = rig.Build(0);
  rig.db.ApplyUpdate(50, 5.0);  // cold
  const auto r1 = rig.Build(1);
  EXPECT_TRUE(r1.hot_ids.empty());
  EXPECT_NE(r1.combined, r0.combined);
}

TEST(HybridServerTest, HotListCoversLastIntervalOnly) {
  HybridRig rig;
  rig.Build(0);
  rig.db.ApplyUpdate(2, 5.0);
  rig.Build(1);
  // No further changes: the next report must not repeat item 2.
  EXPECT_TRUE(rig.Build(2).hot_ids.empty());
}

TEST(HybridClientTest, MentionedHotItemIsDropped) {
  HybridRig rig;
  HybridSigClientManager client(&rig.family, {1, 2, 50, 60}, rig.hot);
  ClientCache cache;
  client.OnReport(Report(rig.Build(0)), &cache);
  client.OnUplinkFetch(2, 22, 0.5, &cache);
  client.OnUplinkFetch(50, 55, 0.5, &cache);

  rig.db.ApplyUpdate(2, 5.0);
  client.OnReport(Report(rig.Build(1)), &cache);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(50));
}

TEST(HybridClientTest, MissedReportLosesOnlyHotHalf) {
  HybridRig rig;
  HybridSigClientManager client(&rig.family, {1, 2, 50, 60}, rig.hot);
  ClientCache cache;
  client.OnReport(Report(rig.Build(0)), &cache);
  client.OnUplinkFetch(2, 22, 0.5, &cache);   // hot
  client.OnUplinkFetch(50, 55, 0.5, &cache);  // cold

  rig.Build(1);  // slept through this one
  const uint64_t invalidated = client.OnReport(Report(rig.Build(2)), &cache);
  EXPECT_GE(invalidated, 1u);
  EXPECT_FALSE(cache.Contains(2));   // hot: amnesic
  EXPECT_TRUE(cache.Contains(50));   // cold: signatures vouch for it
  EXPECT_DOUBLE_EQ(cache.Peek(50)->timestamp, 20.0);
}

TEST(HybridClientTest, ColdChangeDetectedAcrossNap) {
  HybridRig rig;
  HybridSigClientManager client(&rig.family, {1, 2, 50, 60}, rig.hot);
  ClientCache cache;
  client.OnReport(Report(rig.Build(0)), &cache);
  client.OnUplinkFetch(50, 55, 0.5, &cache);
  client.OnUplinkFetch(60, 66, 0.5, &cache);

  rig.db.ApplyUpdate(50, 12.0);
  rig.Build(1);  // missed
  rig.Build(2);  // missed
  client.OnReport(Report(rig.Build(3)), &cache);
  EXPECT_FALSE(cache.Contains(50));  // changed cold item diagnosed
  EXPECT_TRUE(cache.Contains(60));   // unchanged cold item survives
}

TEST(HybridCellTest, BeatsPlainSigUnderHotChurn) {
  // Scenario-5-style killer: f = 1 with ~1 change per interval concentrated
  // on a few hot items. Plain SIG floods; hybrid shields the signatures.
  auto run = [](StrategyKind kind) {
    CellConfig config;
    config.model.n = 1000;
    config.model.lambda = 0.1;
    config.model.f = 1;
    config.model.s = 0.3;
    config.strategy = kind;
    config.num_units = 10;
    config.hotspot_size = 20;
    config.seed = 5;
    // All churn on the first 10 items (inside the shared hot spot).
    config.update_rates.assign(1000, 0.0);
    for (int i = 0; i < 10; ++i) config.update_rates[i] = 0.01;
    config.hybrid_hot_set = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    Cell cell(config);
    EXPECT_TRUE(cell.Build().ok());
    EXPECT_TRUE(cell.Run(30, 300).ok());
    return cell.result();
  };
  const CellResult sig = run(StrategyKind::kSig);
  const CellResult hybrid = run(StrategyKind::kHybridSig);
  EXPECT_GT(hybrid.hit_ratio, sig.hit_ratio + 0.2);
}

TEST(HybridCellTest, SafetyNoStaleHotAnswers) {
  CellConfig config;
  config.model.n = 400;
  config.model.mu = 2e-3;
  config.model.s = 0.3;
  config.model.f = 10;
  config.strategy = StrategyKind::kHybridSig;
  config.num_units = 8;
  config.hotspot_size = 12;
  config.seed = 13;
  Cell cell(config);
  ASSERT_TRUE(cell.Build().ok());
  uint64_t hits = 0, violations = 0;
  Database* db = cell.db();
  for (MobileUnit* unit : cell.units()) {
    unit->SetAnswerObserver([&](ItemId id, uint64_t value, SimTime ts,
                                bool hit) {
      if (!hit) return;
      ++hits;
      if (value != db->ValueAt(id, ts)) ++violations;
    });
  }
  ASSERT_TRUE(cell.Run(20, 300).ok());
  EXPECT_GT(hits, 500u);
  // Hot items are exact; cold items carry SIG's (tiny) probabilistic risk.
  EXPECT_LT(static_cast<double>(violations) / static_cast<double>(hits),
            0.01);
}

}  // namespace
}  // namespace mobicache
