// Strategy-driven journal retention (db/database.h, server/server.cc):
// every ServerStrategy declares how much update history the server-side
// journal must keep, and Server::Start arms the database with the declared
// class (raised by the cell's retention floor when an answer observer needs
// historical ground truth):
//
//  * the retention class alone decides whether a journal exists: SIG and
//    hybrid keep none with quiet elision on or off, and a kFullWindow floor
//    keeps raw buckets even through elided quiet stretches;
//  * a kFullWindow database answers every window query the report builders
//    use — aligned, partial, inside one bucket, or spanning several —
//    exactly as a brute-force scan of the same update stream does
//    (UpdatedIn / JournalIn), for batched and per-update appends alike;
//  * kNone keeps no journal at all — zero entries, zero bytes, forever;
//  * journal_bytes_peak is a true high-water mark: monotone under appends
//    and unaffected by pruning.

#include <cstdint>
#include <iterator>
#include <map>
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
        DeclarationCase{StrategyKind::kSig, JournalRetention::kNone},
        DeclarationCase{StrategyKind::kHybridSig, JournalRetention::kNone},
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
  // A journal-less strategy with a kFullWindow floor (the answer-observer
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

// The retention class alone decides whether a journal exists, whatever the
// quiet elision does. Without an observer SIG and hybrid declare kNone and
// keep no journal, with elision on and off. An answer observer raises them
// to kFullWindow, and then the journal keeps raw buckets — even while every
// unit sleeps and the broadcasts elide, which is exactly when the audit's
// ValueAt reads need the raw entries.
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
        EXPECT_GT(cell.db()->journal_bytes_peak(), 0u);
        EXPECT_GT(cell.result().quiet_skipped_intervals, 0u)
            << "no elided broadcast: the case proves nothing";
        if (s == 0.9) {
          EXPECT_GT(answers, 0u);
        }
      }
      for (int on = 0; on < 2; ++on) {
        SCOPED_TRACE(on == 1 ? "elision on" : "elision off");
        config.quiet_elision = on == 1;
        Cell cell(config);
        ASSERT_TRUE(cell.Build().ok());
        ASSERT_TRUE(cell.Run(4, 50).ok());
        EXPECT_EQ(cell.db()->retention(), JournalRetention::kNone);
        EXPECT_FALSE(cell.db()->journal_enabled());
        EXPECT_EQ(cell.db()->journal_bytes_peak(), 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// A kFullWindow database against a brute-force reference over the same
// update stream, and a kNone twin fed that stream.

constexpr uint64_t kItems = 64;
constexpr double kBucket = 10.0;

// A few thousand updates across ~12 buckets with heavy per-item repetition,
// applied in batches that straddle bucket boundaries on purpose. Appends
// every applied (id, time) to `stream` when given.
void FeedUpdates(Database* db, std::vector<UpdatedItem>* stream = nullptr) {
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
      if (stream != nullptr) stream->push_back(UpdatedItem{ids.back(), t});
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

// Brute-force window query over the whole stream (strictly increasing
// times): every item whose latest update lies in (lo, hi], once, at that
// time, ascending by id.
std::vector<UpdatedItem> ReferenceUpdatedIn(
    const std::vector<UpdatedItem>& stream, SimTime lo, SimTime hi) {
  std::map<ItemId, SimTime> last;
  for (const UpdatedItem& u : stream) last[u.id] = u.updated_at;
  std::vector<UpdatedItem> out;
  for (const auto& [id, t] : last) {
    if (t > lo && t <= hi) out.push_back(UpdatedItem{id, t});
  }
  return out;
}

void ExpectSameItems(const std::vector<UpdatedItem>& got,
                     const std::vector<UpdatedItem>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "entry " << i;
    EXPECT_EQ(got[i].updated_at, want[i].updated_at) << "entry " << i;
  }
}

// `db` answers every window in kWindows, plus windows that start or end
// exactly on an update time (the open and closed ends of (lo, hi]), as the
// brute-force scan of `stream` does: UpdatedIn (both spellings) and the
// raw JournalIn. Each window is queried twice, so the second pass also
// checks the sealed buckets' cached digests.
void ExpectReferenceWindowAnswers(const Database& db,
                                  const std::vector<UpdatedItem>& stream) {
  std::vector<Window> windows(std::begin(kWindows), std::end(kWindows));
  for (size_t k = 0; k < stream.size(); k += stream.size() / 7) {
    const SimTime t = stream[k].updated_at;
    windows.push_back(Window{t - 1.5 * kBucket, t});
    windows.push_back(Window{t, t + 0.5 * kBucket});
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (const Window& w : windows) {
      SCOPED_TRACE("pass " + std::to_string(pass) + " window (" +
                   std::to_string(w.lo) + ", " + std::to_string(w.hi) + "]");
      const std::vector<UpdatedItem> want =
          ReferenceUpdatedIn(stream, w.lo, w.hi);
      ExpectSameItems(db.UpdatedIn(w.lo, w.hi), want);
      std::vector<UpdatedItem> into{UpdatedItem{7, 7.0}};  // cleared first
      db.UpdatedIn(w.lo, w.hi, &into);
      ExpectSameItems(into, want);

      std::vector<UpdatedItem> raw;
      for (const UpdatedItem& u : stream) {
        if (u.updated_at > w.lo && u.updated_at <= w.hi) raw.push_back(u);
      }
      ExpectSameItems(db.JournalIn(w.lo, w.hi), raw);
    }
  }
}

TEST(RetentionTwinTest, BatchedStreamMatchesBruteForceReference) {
  Database full(kItems, /*seed=*/5);
  full.SetJournalBucketWidth(kBucket);
  full.SetRetention(JournalRetention::kFullWindow);
  std::vector<UpdatedItem> stream;
  FeedUpdates(&full, &stream);

  ASSERT_EQ(full.total_updates(), stream.size());
  EXPECT_EQ(full.journal_size(), stream.size());
  EXPECT_EQ(full.journal_bytes(),
            stream.size() * (sizeof(SimTime) + sizeof(ItemId)));
  ExpectReferenceWindowAnswers(full, stream);
}

TEST(RetentionTwinTest, PerUpdateStreamAnswersTheSameWindowQueries) {
  // Single ApplyUpdate calls instead of batches: six buckets of an
  // LCG-derived stream with plenty of repeated ids (within a bucket, so
  // sealed digests dedup) and cross-bucket repeats (the is-still-latest
  // filter).
  Database full(kItems, /*seed=*/99);
  full.SetJournalBucketWidth(kBucket);
  full.SetRetention(JournalRetention::kFullWindow);
  std::vector<UpdatedItem> stream;
  uint64_t x = 12345;
  for (int bucket = 0; bucket < 6; ++bucket) {
    for (int i = 0; i < 40; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      const ItemId id = static_cast<ItemId>((x >> 33) % kItems);
      const SimTime t = kBucket * static_cast<double>(bucket) +
                        kBucket * (static_cast<double>(i) + 1.0) / 41.0;
      full.ApplyUpdate(id, t);
      stream.push_back(UpdatedItem{id, t});
    }
  }
  EXPECT_EQ(full.journal_size(), stream.size());
  ExpectReferenceWindowAnswers(full, stream);
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
  EXPECT_STREQ(JournalRetentionName(JournalRetention::kFullWindow), "full");
}

}  // namespace
}  // namespace mobicache
