#include <vector>

#include <gtest/gtest.h>

#include "core/cache.h"

namespace mobicache {
namespace {

TEST(ClientCacheTest, PutGetPeek) {
  ClientCache cache;
  EXPECT_TRUE(cache.empty());
  cache.Put(1, 100, 5.0);
  ASSERT_NE(cache.Peek(1), nullptr);
  EXPECT_EQ(cache.Peek(1)->value, 100u);
  EXPECT_DOUBLE_EQ(cache.Peek(1)->timestamp, 5.0);
  EXPECT_EQ(cache.Peek(2), nullptr);
  EXPECT_EQ(cache.Get(2), nullptr);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.Contains(1));
}

TEST(ClientCacheTest, PutOverwrites) {
  ClientCache cache;
  cache.Put(1, 100, 5.0);
  cache.Put(1, 200, 6.0);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.Peek(1)->value, 200u);
  EXPECT_DOUBLE_EQ(cache.Peek(1)->timestamp, 6.0);
}

TEST(ClientCacheTest, SetTimestamp) {
  ClientCache cache;
  cache.Put(1, 100, 5.0);
  EXPECT_TRUE(cache.SetTimestamp(1, 9.0));
  EXPECT_DOUBLE_EQ(cache.Peek(1)->timestamp, 9.0);
  EXPECT_EQ(cache.Peek(1)->value, 100u);  // value untouched
  EXPECT_FALSE(cache.SetTimestamp(42, 9.0));
}

TEST(ClientCacheTest, EraseAndClear) {
  ClientCache cache;
  cache.Put(1, 1, 0.0);
  cache.Put(2, 2, 0.0);
  EXPECT_TRUE(cache.Erase(1));
  EXPECT_FALSE(cache.Erase(1));
  EXPECT_EQ(cache.size(), 1u);
  cache.Clear();
  EXPECT_TRUE(cache.empty());
}

TEST(ClientCacheTest, ItemsSorted) {
  ClientCache cache;
  cache.Put(5, 0, 0.0);
  cache.Put(1, 0, 0.0);
  cache.Put(3, 0, 0.0);
  EXPECT_EQ(cache.Items(), (std::vector<ItemId>{1, 3, 5}));
}

TEST(ClientCacheTest, LruEvictsLeastRecentlyUsed) {
  ClientCache cache(2);
  cache.Put(1, 1, 0.0);
  cache.Put(2, 2, 0.0);
  cache.Get(1);       // 1 becomes most recent
  cache.Put(3, 3, 0.0);  // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_EQ(cache.lru_evictions(), 1u);
}

TEST(ClientCacheTest, PeekDoesNotTouchLru) {
  ClientCache cache(2);
  cache.Put(1, 1, 0.0);
  cache.Put(2, 2, 0.0);
  cache.Peek(1);         // no LRU effect: 1 stays least recent
  cache.Put(3, 3, 0.0);  // evicts 1
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

TEST(ClientCacheTest, OverwriteCountsAsUse) {
  ClientCache cache(2);
  cache.Put(1, 1, 0.0);
  cache.Put(2, 2, 0.0);
  cache.Put(1, 10, 1.0);  // refresh 1
  cache.Put(3, 3, 0.0);   // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(ClientCacheTest, UnboundedNeverEvicts) {
  ClientCache cache;
  for (ItemId i = 0; i < 1000; ++i) cache.Put(i, i, 0.0);
  EXPECT_EQ(cache.size(), 1000u);
  EXPECT_EQ(cache.lru_evictions(), 0u);
}

TEST(ClientCacheTest, PutOutsideBoundDomainCopiesItPrivate) {
  // A cache bound to a domain takes an id outside it by copying the domain
  // into a private one; entries, validity stamps and LRU order carry over.
  const std::vector<ItemId> domain{10, 20, 30};
  ClientCache cache(domain, 2);
  cache.Put(10, 1, 1.0);
  cache.Put(20, 2, 2.0);
  ASSERT_NE(cache.Get(10), nullptr);  // 20 becomes least recent
  cache.Put(15, 3, 3.0);              // outside the domain; evicts 20
  EXPECT_EQ(cache.Items(), (std::vector<ItemId>{10, 15}));
  EXPECT_EQ(cache.lru_evictions(), 1u);
  EXPECT_DOUBLE_EQ(cache.Peek(10)->timestamp, 1.0);
  cache.Put(30, 4, 4.0);  // evicts 10, the least recent now
  EXPECT_EQ(cache.Items(), (std::vector<ItemId>{15, 30}));
  EXPECT_EQ(cache.Peek(15)->value, 3u);
  EXPECT_EQ(domain, (std::vector<ItemId>{10, 20, 30}));  // left untouched
}

TEST(ClientCacheTest, IdsOutsideTheDomainMiss) {
  const std::vector<ItemId> domain{5, 6, 7, 100};
  ClientCache cache(domain, 0);
  for (ItemId id : domain) cache.Put(id, id, 1.0);
  for (ItemId id : {ItemId{0}, ItemId{8}, ItemId{99}, ItemId{101}}) {
    EXPECT_EQ(cache.Peek(id), nullptr);
    EXPECT_FALSE(cache.Contains(id));
    EXPECT_FALSE(cache.Erase(id));
    EXPECT_FALSE(cache.SetTimestamp(id, 2.0));
  }
  EXPECT_EQ(cache.size(), domain.size());
}

}  // namespace
}  // namespace mobicache
