#include <gtest/gtest.h>

#include "core/stateful.h"
#include "db/database.h"
#include "net/channel.h"
#include "sim/simulator.h"

namespace mobicache {
namespace {

MessageSizes Sizes() {
  MessageSizes s;
  s.bq = 128;
  s.id_bits = 10;
  return s;
}

struct FakeClient {
  std::vector<ItemId> invalidated;
  bool awake = true;
};

TEST(StatefulRegistryTest, IdealInvalidatesEvenAsleep) {
  StatefulRegistry reg(StatefulMode::kIdeal, Sizes());
  FakeClient c;
  c.awake = false;
  const auto id = reg.RegisterClient(
      [&](ItemId i) { c.invalidated.push_back(i); },
      [&] { return c.awake; });
  reg.OnClientCached(id, 7);
  reg.OnUpdate(7, 1.0);
  EXPECT_EQ(c.invalidated, (std::vector<ItemId>{7}));
  EXPECT_EQ(reg.invalidations_sent(), 1u);
  EXPECT_EQ(reg.invalidations_missed_asleep(), 0u);
}

TEST(StatefulRegistryTest, StatefulSkipsSleepingClients) {
  Simulator sim;
  Channel ch(&sim, 1000.0);
  StatefulRegistry reg(StatefulMode::kStateful, Sizes());
  reg.SetTransmitSink(
      [&ch](uint64_t bits, TrafficClass cls) { ch.Transmit(bits, cls); });
  FakeClient c;
  c.awake = false;
  const auto id = reg.RegisterClient(
      [&](ItemId i) { c.invalidated.push_back(i); },
      [&] { return c.awake; });
  reg.OnClientCached(id, 7);
  reg.OnUpdate(7, 1.0);
  EXPECT_TRUE(c.invalidated.empty());
  EXPECT_EQ(reg.invalidations_missed_asleep(), 1u);
  EXPECT_EQ(ch.stats().report_bits, 0u);
}

TEST(StatefulRegistryTest, StatefulChargesInvalidationBits) {
  Simulator sim;
  Channel ch(&sim, 1000.0);
  StatefulRegistry reg(StatefulMode::kStateful, Sizes());
  reg.SetTransmitSink(
      [&ch](uint64_t bits, TrafficClass cls) { ch.Transmit(bits, cls); });
  FakeClient c;
  const auto id = reg.RegisterClient(
      [&](ItemId i) { c.invalidated.push_back(i); },
      [&] { return c.awake; });
  reg.OnClientCached(id, 3);
  reg.OnUpdate(3, 1.0);
  EXPECT_EQ(c.invalidated, (std::vector<ItemId>{3}));
  EXPECT_EQ(ch.stats().report_bits, 10u);  // one id-sized message
}

TEST(StatefulRegistryTest, InvalidationClearsHolderRecord) {
  StatefulRegistry reg(StatefulMode::kIdeal, Sizes());
  FakeClient c;
  const auto id = reg.RegisterClient(
      [&](ItemId i) { c.invalidated.push_back(i); },
      [&] { return c.awake; });
  reg.OnClientCached(id, 3);
  reg.OnUpdate(3, 1.0);
  reg.OnUpdate(3, 2.0);  // second update: no holder anymore
  EXPECT_EQ(c.invalidated.size(), 1u);
}

TEST(StatefulRegistryTest, DroppedItemsAreNotNotified) {
  StatefulRegistry reg(StatefulMode::kIdeal, Sizes());
  FakeClient c;
  const auto id = reg.RegisterClient(
      [&](ItemId i) { c.invalidated.push_back(i); },
      [&] { return c.awake; });
  reg.OnClientCached(id, 3);
  reg.OnClientDropped(id, 3);
  reg.OnUpdate(3, 1.0);
  EXPECT_TRUE(c.invalidated.empty());
}

TEST(StatefulRegistryTest, WakeClearsRecordAndChargesControl) {
  Simulator sim;
  Channel ch(&sim, 1000.0);
  StatefulRegistry reg(StatefulMode::kStateful, Sizes());
  reg.SetTransmitSink(
      [&ch](uint64_t bits, TrafficClass cls) { ch.Transmit(bits, cls); });
  FakeClient c;
  const auto id = reg.RegisterClient(
      [&](ItemId i) { c.invalidated.push_back(i); },
      [&] { return c.awake; });
  reg.OnClientCached(id, 3);
  reg.OnClientWake(id);
  EXPECT_EQ(reg.control_messages(), 1u);
  EXPECT_EQ(ch.stats().uplink_query_bits, 128u);
  reg.OnUpdate(3, 1.0);  // record was cleared: no notification
  EXPECT_TRUE(c.invalidated.empty());
  reg.OnClientSleep(id);
  EXPECT_EQ(reg.control_messages(), 2u);
}

TEST(StatefulRegistryTest, IdealIgnoresWakeSleepProtocol) {
  StatefulRegistry reg(StatefulMode::kIdeal, Sizes());
  FakeClient c;
  const auto id = reg.RegisterClient(
      [&](ItemId i) { c.invalidated.push_back(i); },
      [&] { return c.awake; });
  reg.OnClientCached(id, 3);
  reg.OnClientWake(id);
  reg.OnClientSleep(id);
  EXPECT_EQ(reg.control_messages(), 0u);
  reg.OnUpdate(3, 1.0);
  EXPECT_EQ(c.invalidated.size(), 1u);  // record survived
}

TEST(StatefulRegistryTest, MultipleHoldersAllNotified) {
  StatefulRegistry reg(StatefulMode::kIdeal, Sizes());
  FakeClient a, b;
  const auto ida = reg.RegisterClient(
      [&](ItemId i) { a.invalidated.push_back(i); }, [&] { return a.awake; });
  const auto idb = reg.RegisterClient(
      [&](ItemId i) { b.invalidated.push_back(i); }, [&] { return b.awake; });
  reg.OnClientCached(ida, 9);
  reg.OnClientCached(idb, 9);
  reg.OnUpdate(9, 1.0);
  EXPECT_EQ(a.invalidated.size(), 1u);
  EXPECT_EQ(b.invalidated.size(), 1u);
}

TEST(StatefulClientManagerTest, KindFollowsMode) {
  StatefulClientManager ideal(StatefulMode::kIdeal);
  StatefulClientManager stateful(StatefulMode::kStateful);
  EXPECT_EQ(ideal.kind(), StrategyKind::kIdeal);
  EXPECT_EQ(stateful.kind(), StrategyKind::kStateful);
  EXPECT_TRUE(ideal.HasValidBaseline());
}

}  // namespace
}  // namespace mobicache
