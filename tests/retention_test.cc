// Strategy-driven journal retention (db/database.h, server/server.cc):
// every ServerStrategy declares how much update history the server-side
// journal must keep, Server::Start arms the database with the declared
// class (raised by the cell's retention floor when an answer observer needs
// historical ground truth), and the database's per-class representations
// must stay observationally equivalent where the contract says they are:
//
//  * the retention class alone decides each bucket's shape: a kFullWindow
//    floor keeps every bucket raw even through elided quiet stretches, and
//    a kDigestOnly cell's digest-only bucket count ignores quiet elision;
//  * twin databases fed the identical update stream under kFullWindow and
//    kDigestOnly retention answer the same window queries (UpdatedIn /
//    CountUpdatedIn) over any window the report builders use — aligned,
//    partial, inside one bucket, or spanning several — for batched and
//    per-update appends alike;
//  * kNone keeps no journal at all — zero entries, zero bytes, forever;
//  * journal_bytes_peak is a true high-water mark: monotone under appends
//    and unaffected by pruning.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "exp/cell.h"
#include "mu/mobile_unit.h"

namespace mobicache {
namespace {

CellConfig BaseConfig(StrategyKind kind) {
  CellConfig config;
  config.model.n = 400;
  config.model.mu = 0.002;
  config.model.lambda = 0.05;
  config.model.s = 0.6;
  config.model.L = 10.0;
  config.model.k = 8;
  config.strategy = kind;
  config.num_units = 8;
  config.hotspot_size = 25;
  config.seed = 777;
  return config;
}

struct DeclarationCase {
  StrategyKind kind;
  JournalRetention want;
};

class RetentionDeclarationTest
    : public ::testing::TestWithParam<DeclarationCase> {};

TEST_P(RetentionDeclarationTest, ServerStartArmsDeclaredClass) {
  const DeclarationCase param = GetParam();
  Cell cell(BaseConfig(param.kind));
  ASSERT_TRUE(cell.Build().ok());
  ASSERT_TRUE(cell.Run(2, 20).ok());
  EXPECT_EQ(cell.db()->retention(), param.want)
      << JournalRetentionName(cell.db()->retention());
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, RetentionDeclarationTest,
    ::testing::Values(
        DeclarationCase{StrategyKind::kNoCache, JournalRetention::kNone},
        DeclarationCase{StrategyKind::kSig, JournalRetention::kDigestOnly},
        DeclarationCase{StrategyKind::kHybridSig,
                        JournalRetention::kDigestOnly},
        DeclarationCase{StrategyKind::kTs, JournalRetention::kFullWindow},
        DeclarationCase{StrategyKind::kAt, JournalRetention::kFullWindow},
        DeclarationCase{StrategyKind::kGroupedAt,
                        JournalRetention::kFullWindow},
        DeclarationCase{StrategyKind::kAdaptiveTs,
                        JournalRetention::kFullWindow}),
    [](const ::testing::TestParamInfo<DeclarationCase>& param_info) {
      std::string name(StrategyName(param_info.param.kind));
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(RetentionFloorTest, FloorRaisesDeclaredClassButNeverLowersIt) {
  // A digest-only strategy with a kFullWindow floor (the answer-observer
  // case) must end up with raw retention...
  {
    Cell cell(BaseConfig(StrategyKind::kSig));
    ASSERT_TRUE(cell.Build().ok());
    cell.server()->SetRetentionFloor(JournalRetention::kFullWindow);
    ASSERT_TRUE(cell.Run(2, 20).ok());
    EXPECT_EQ(cell.db()->retention(), JournalRetention::kFullWindow);
  }
  // ...while a kNone floor under a full-window strategy changes nothing.
  {
    Cell cell(BaseConfig(StrategyKind::kTs));
    ASSERT_TRUE(cell.Build().ok());
    cell.server()->SetRetentionFloor(JournalRetention::kNone);
    ASSERT_TRUE(cell.Run(2, 20).ok());
    EXPECT_EQ(cell.db()->retention(), JournalRetention::kFullWindow);
  }
}

// The retention class alone decides a bucket's shape, whatever the quiet
// elision does. An answer observer raises SIG and hybrid to kFullWindow, and
// then no bucket may be laid down digest-only — not even while every unit
// sleeps and the broadcasts elide, which is exactly when the audit's
// ValueAt reads need the raw entries. Without the observer (kDigestOnly)
// the digest-only bucket count is the same with elision on and off.
TEST(RetentionFloorTest, RetentionClassAloneDecidesBucketShape) {
  for (StrategyKind kind : {StrategyKind::kSig, StrategyKind::kHybridSig}) {
    for (double s : {0.9, 1.0}) {
      SCOPED_TRACE(std::string(StrategyName(kind)) +
                   " s=" + std::to_string(s));
      CellConfig config = BaseConfig(kind);
      config.model.s = s;
      {
        Cell cell(config);
        ASSERT_TRUE(cell.Build().ok());
        uint64_t answers = 0;
        for (MobileUnit* unit : cell.units()) {
          unit->SetAnswerObserver(
              [&answers](ItemId, uint64_t, SimTime, bool) { ++answers; });
        }
        ASSERT_TRUE(cell.Run(4, 50).ok());
        EXPECT_EQ(cell.db()->retention(), JournalRetention::kFullWindow);
        EXPECT_EQ(cell.db()->elided_journal_buckets(), 0u);
        EXPECT_GT(cell.result().quiet_skipped_intervals, 0u)
            << "no elided broadcast: the case proves nothing";
        if (s == 0.9) {
          EXPECT_GT(answers, 0u);
        }
      }
      uint64_t digest_buckets[2] = {0, 0};
      for (int on = 0; on < 2; ++on) {
        config.quiet_elision = on == 1;
        Cell cell(config);
        ASSERT_TRUE(cell.Build().ok());
        ASSERT_TRUE(cell.Run(4, 50).ok());
        ASSERT_EQ(cell.db()->retention(), JournalRetention::kDigestOnly);
        digest_buckets[on] = cell.db()->elided_journal_buckets();
      }
      EXPECT_EQ(digest_buckets[0], digest_buckets[1]);
      EXPECT_GT(digest_buckets[0], 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Twin databases: identical update stream, different retention class.

constexpr uint64_t kItems = 64;
constexpr double kBucket = 10.0;

// A few thousand updates across ~12 buckets with heavy per-item repetition,
// applied in batches that straddle bucket boundaries on purpose.
void FeedUpdates(Database* db) {
  std::mt19937 rng(99);
  std::uniform_int_distribution<uint32_t> id_dist(0, kItems - 1);
  std::vector<ItemId> ids;
  std::vector<SimTime> times;
  double t = 0.0;
  for (int batch = 0; batch < 40; ++batch) {
    ids.clear();
    times.clear();
    const size_t count = 17 + static_cast<size_t>(batch) * 3;
    for (size_t i = 0; i < count; ++i) {
      t += 0.17;
      ids.push_back(id_dist(rng));
      times.push_back(t);
    }
    db->ApplyUpdateBatch(ids.data(), times.data(), ids.size());
  }
}

struct Window {
  SimTime lo, hi;
};

// Windows the report builders use: bucket-aligned, multi-bucket, partial
// (mid-bucket endpoints), entirely inside one bucket, and empty.
constexpr Window kWindows[] = {
    {0.0, kBucket},  {kBucket, 3 * kBucket}, {0.0, 60.0},   {0.0, 120.0},
    {4.2, 37.9},     {12.5, 47.3},           {20.0, 50.0},  {23.1, 28.9},
    {33.3, 34.4},    {40.0, 41.0},           {55.0, 55.0},  {55.0, 60.0},
    {100.0, 1000.0}};

// Both twins answer every window in kWindows identically.
void ExpectSameWindowAnswers(const Database& full, const Database& digest) {
  for (const Window& w : kWindows) {
    SCOPED_TRACE("window (" + std::to_string(w.lo) + ", " +
                 std::to_string(w.hi) + "]");
    const std::vector<UpdatedItem> a = full.UpdatedIn(w.lo, w.hi);
    const std::vector<UpdatedItem> b = digest.UpdatedIn(w.lo, w.hi);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "entry " << i;
      EXPECT_EQ(a[i].updated_at, b[i].updated_at) << "entry " << i;
    }
    EXPECT_EQ(full.CountUpdatedIn(w.lo, w.hi),
              digest.CountUpdatedIn(w.lo, w.hi));
  }
}

TEST(RetentionTwinTest, DigestOnlyAnswersTheSameWindowQueriesAsFull) {
  Database full(kItems, /*seed=*/5);
  Database digest(kItems, /*seed=*/5);
  full.SetJournalBucketWidth(kBucket);
  digest.SetJournalBucketWidth(kBucket);
  full.SetRetention(JournalRetention::kFullWindow);
  digest.SetRetention(JournalRetention::kDigestOnly);
  FeedUpdates(&full);
  FeedUpdates(&digest);

  ASSERT_EQ(full.total_updates(), digest.total_updates());
  EXPECT_GT(digest.elided_journal_buckets(), 0u);
  EXPECT_EQ(full.elided_journal_buckets(), 0u);
  ExpectSameWindowAnswers(full, digest);

  // Live item state never depends on the journal at all.
  for (ItemId id = 0; id < kItems; ++id) {
    EXPECT_EQ(full.VersionOf(id), digest.VersionOf(id));
    EXPECT_EQ(full.LastUpdateOf(id), digest.LastUpdateOf(id));
    EXPECT_EQ(full.ValueOf(id), digest.ValueOf(id));
  }

  EXPECT_GT(full.journal_bytes(), 0u);
  EXPECT_GT(digest.journal_bytes(), 0u);
}

TEST(RetentionTwinTest, PerUpdateStreamAnswersTheSameWindowQueries) {
  // Single ApplyUpdate calls instead of batches: six buckets of an
  // LCG-derived stream with plenty of repeated ids (dedup inside each
  // digest-only bucket) and cross-bucket repeats (the is-still-latest
  // filter).
  Database full(kItems, /*seed=*/99);
  Database digest(kItems, /*seed=*/99);
  full.SetJournalBucketWidth(kBucket);
  digest.SetJournalBucketWidth(kBucket);
  full.SetRetention(JournalRetention::kFullWindow);
  digest.SetRetention(JournalRetention::kDigestOnly);
  uint64_t x = 12345;
  for (int bucket = 0; bucket < 6; ++bucket) {
    for (int i = 0; i < 40; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const ItemId id = static_cast<ItemId>((x >> 33) % kItems);
      const SimTime t = kBucket * static_cast<double>(bucket) +
                        kBucket * (static_cast<double>(i) + 1.0) / 41.0;
      full.ApplyUpdate(id, t);
      digest.ApplyUpdate(id, t);
    }
  }
  EXPECT_EQ(digest.elided_journal_buckets(), 6u);
  EXPECT_EQ(full.elided_journal_buckets(), 0u);
  EXPECT_EQ(full.journal_size(), digest.journal_size());
  ExpectSameWindowAnswers(full, digest);
}

TEST(RetentionTwinTest, DigestUndercutsRawBytesUnderHeavyRepetition) {
  // One 24-byte digest record per distinct item per bucket vs 12 bytes per
  // raw update: with 4 hot items hammered ~60 times per bucket the digest
  // footprint collapses while the raw journal keeps every event.
  Database full(kItems, /*seed=*/7);
  Database digest(kItems, /*seed=*/7);
  full.SetJournalBucketWidth(kBucket);
  digest.SetJournalBucketWidth(kBucket);
  full.SetRetention(JournalRetention::kFullWindow);
  digest.SetRetention(JournalRetention::kDigestOnly);

  std::vector<ItemId> ids;
  std::vector<SimTime> times;
  double t = 0.0;
  for (int i = 0; i < 2000; ++i) {
    t += 0.17;
    ids.push_back(static_cast<ItemId>(i % 4));
    times.push_back(t);
  }
  full.ApplyUpdateBatch(ids.data(), times.data(), ids.size());
  digest.ApplyUpdateBatch(ids.data(), times.data(), ids.size());

  EXPECT_LT(digest.journal_bytes(), full.journal_bytes());
  EXPECT_LT(digest.journal_bytes_peak(), full.journal_bytes_peak());
  EXPECT_EQ(full.CountUpdatedIn(0.0, t), digest.CountUpdatedIn(0.0, t));
}

TEST(RetentionTwinTest, NoneRetentionKeepsNoJournal) {
  Database none(kItems, /*seed=*/5);
  none.SetJournalBucketWidth(kBucket);
  none.SetRetention(JournalRetention::kNone);
  FeedUpdates(&none);

  // A disabled journal holds nothing; its history readers are off limits
  // (they assert a live journal), so the footprint is the whole check.
  EXPECT_FALSE(none.journal_enabled());
  EXPECT_EQ(none.journal_size(), 0u);
  EXPECT_EQ(none.journal_bytes(), 0u);
  EXPECT_EQ(none.journal_bytes_peak(), 0u);

  // The hot slab is unaffected by retention: live state matches a journaling
  // twin fed the same stream.
  Database full(kItems, /*seed=*/5);
  full.SetJournalBucketWidth(kBucket);
  FeedUpdates(&full);
  for (ItemId id = 0; id < kItems; ++id) {
    EXPECT_EQ(none.VersionOf(id), full.VersionOf(id));
    EXPECT_EQ(none.LastUpdateOf(id), full.LastUpdateOf(id));
  }
}

TEST(RetentionTwinTest, JournalBytesPeakIsAHighWaterMark) {
  Database db(kItems, /*seed=*/11);
  db.SetJournalBucketWidth(kBucket);
  FeedUpdates(&db);

  const uint64_t bytes_before = db.journal_bytes();
  const uint64_t peak_before = db.journal_bytes_peak();
  ASSERT_GT(bytes_before, 0u);
  EXPECT_GE(peak_before, bytes_before);

  // Pruning shrinks the live footprint but must not touch the peak.
  db.PruneJournalBefore(200.0);
  EXPECT_LT(db.journal_bytes(), bytes_before);
  EXPECT_EQ(db.journal_bytes_peak(), peak_before);

  // Appending after the prune grows bytes again; the peak only moves once
  // the live footprint exceeds it. FeedUpdates ends near t = 513, and the
  // journal only takes appends at or after its tail.
  std::vector<ItemId> ids{1, 2, 3};
  std::vector<SimTime> times{600.0, 600.5, 601.0};
  db.ApplyUpdateBatch(ids.data(), times.data(), ids.size());
  EXPECT_GE(db.journal_bytes_peak(), db.journal_bytes());
  EXPECT_EQ(db.journal_bytes_peak(), peak_before);
}

TEST(RetentionTest, ClassNamesAreStable) {
  EXPECT_STREQ(JournalRetentionName(JournalRetention::kNone), "none");
  EXPECT_STREQ(JournalRetentionName(JournalRetention::kDigestOnly), "digest");
  EXPECT_STREQ(JournalRetentionName(JournalRetention::kFullWindow), "full");
}

}  // namespace
}  // namespace mobicache
