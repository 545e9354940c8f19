#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "sig/signature.h"
#include "util/random.h"

namespace mobicache {
namespace {

SignatureParams SmallParams() {
  SignatureParams p;
  p.m = 600;
  p.f = 5;
  p.g = 16;
  p.k_threshold = 1.25;
  return p;
}

TEST(SigMathTest, MembershipProbability) {
  EXPECT_DOUBLE_EQ(SubsetMembershipProbability(1), 0.5);
  EXPECT_DOUBLE_EQ(SubsetMembershipProbability(9), 0.1);
}

TEST(SigMathTest, ValidItemMismatchProbabilityApproximation) {
  // p ~= (1/(f+1)) (1 - 1/e) for moderate f and large g.
  const double p = ValidItemMismatchProbability(10, 32);
  EXPECT_NEAR(p, (1.0 / 11.0) * (1.0 - std::exp(-1.0)), 0.01);
  // Increasing g increases p slightly (fewer masked collisions).
  EXPECT_LT(ValidItemMismatchProbability(10, 1),
            ValidItemMismatchProbability(10, 32));
}

TEST(SigMathTest, FalseAlarmBoundShrinksWithM) {
  const double loose = FalseAlarmProbabilityBound(100, 10, 16, 2.0);
  const double tight = FalseAlarmProbabilityBound(2000, 10, 16, 2.0);
  EXPECT_GT(loose, tight);
  EXPECT_GT(tight, 0.0);
  EXPECT_LT(loose, 1.0);
}

TEST(SigMathTest, SizingFormulas) {
  // Eq. 24: m = 6 (f+1)(ln(1/delta) + ln n).
  const uint32_t m = PaperRequiredSignatures(1000, 10, 0.05);
  const double expected = 6.0 * 11.0 * (std::log(20.0) + std::log(1000.0));
  EXPECT_NEAR(static_cast<double>(m), expected, 1.0);
  // The general bound with K = 2 is within a constant of the paper bound.
  const uint32_t general = RequiredSignatures(1000, 10, 16, 0.05, 2.0);
  EXPECT_GT(general, m / 3);
  EXPECT_LT(general, m * 3);
  // More items or smaller delta need more signatures.
  EXPECT_GT(PaperRequiredSignatures(1000000, 10, 0.05), m);
  EXPECT_GT(PaperRequiredSignatures(1000, 10, 0.001), m);
}

TEST(SignatureFamilyTest, SubsetsAreDeterministicAndSorted) {
  SignatureFamily fam(1000, SmallParams(), 77);
  const auto a = fam.SubsetsOf(123);
  const auto b = fam.SubsetsOf(123);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  for (uint32_t j : a) EXPECT_LT(j, SmallParams().m);
}

TEST(SignatureFamilyTest, MembershipFrequencyMatchesProbability) {
  SignatureFamily fam(2000, SmallParams(), 77);
  uint64_t total = 0;
  for (ItemId i = 0; i < 2000; ++i) total += fam.SubsetsOf(i).size();
  const double avg = static_cast<double>(total) / 2000.0;
  const double expected = 600.0 / 6.0;  // m / (f+1)
  EXPECT_NEAR(avg, expected, expected * 0.05);
}

TEST(SignatureFamilyTest, ContainsAgreesWithSubsetsOf) {
  SignatureFamily fam(100, SmallParams(), 77);
  for (ItemId i = 0; i < 20; ++i) {
    const auto subsets = fam.SubsetsOf(i);
    for (uint32_t j : subsets) EXPECT_TRUE(fam.Contains(j, i));
    // Spot-check some non-members.
    uint32_t misses = 0;
    for (uint32_t j = 0; j < 50 && misses < 5; ++j) {
      if (!std::binary_search(subsets.begin(), subsets.end(), j)) {
        EXPECT_FALSE(fam.Contains(j, i));
        ++misses;
      }
    }
  }
}

TEST(SignatureFamilyTest, ItemSignatureRespectsBitWidth) {
  SignatureParams p = SmallParams();
  p.g = 8;
  SignatureFamily fam(100, p, 77);
  for (uint64_t v = 0; v < 1000; ++v) {
    EXPECT_LT(fam.ItemSignature(v * 0x9E3779B9ULL), 256u);
  }
  p.g = 64;
  SignatureFamily fam64(100, p, 77);
  // With 64 bits some signature should exceed 32-bit range.
  bool large_seen = false;
  for (uint64_t v = 0; v < 100; ++v) {
    if (fam64.ItemSignature(v) > 0xFFFFFFFFULL) large_seen = true;
  }
  EXPECT_TRUE(large_seen);
}

TEST(SignatureFamilyTest, ReportBitsIsMTimesG) {
  SignatureFamily fam(100, SmallParams(), 77);
  EXPECT_EQ(fam.ReportBits(), 600u * 16u);
}

TEST(ServerSignatureStateTest, IncrementalMatchesRebuild) {
  Database db(500, 9);
  SignatureFamily fam(500, SmallParams(), 77);
  ServerSignatureState state(&fam, &db);

  // Apply updates, folding each in.
  for (int round = 0; round < 50; ++round) {
    const ItemId id = static_cast<ItemId>((round * 37) % 500);
    db.ApplyUpdate(id, static_cast<double>(round + 1));
    state.OnItemChanged(id);
  }
  // A state rebuilt from scratch must agree.
  ServerSignatureState fresh(&fam, &db);
  EXPECT_EQ(state.Combined(), fresh.Combined());
}

TEST(ServerSignatureStateTest, RepeatedFoldIsIdempotent) {
  Database db(100, 9);
  SignatureFamily fam(100, SmallParams(), 77);
  ServerSignatureState state(&fam, &db);
  db.ApplyUpdate(5, 1.0);
  state.OnItemChanged(5);
  const auto once = state.Combined();
  state.OnItemChanged(5);  // no further change
  EXPECT_EQ(state.Combined(), once);
}

TEST(ClientSignatureViewTest, FirstDiagnosisDropsEverythingAndAdopts) {
  Database db(200, 9);
  SignatureFamily fam(200, SmallParams(), 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3, 4, 5};
  ClientSignatureView view(&fam, interest);
  EXPECT_FALSE(view.has_baseline());
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  EXPECT_EQ(invalid.size(), 3u);
  EXPECT_TRUE(view.has_baseline());
}

TEST(ClientSignatureViewTest, DetectsChangedCachedItems) {
  Database db(200, 9);
  SignatureFamily fam(200, SmallParams(), 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3, 4, 5};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});  // adopt clean baseline

  db.ApplyUpdate(3, 1.0);
  server.OnItemChanged(3);
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  // Item 3 must be diagnosed; 1 and 2 are usually clean (false alarms are
  // possible but rare at these parameters — assert 3 is present).
  EXPECT_NE(std::find(invalid.begin(), invalid.end(), 3), invalid.end());
}

TEST(ClientSignatureViewTest, NoChangesMeansNoInvalidations) {
  Database db(200, 9);
  SignatureFamily fam(200, SmallParams(), 77);
  ServerSignatureState server(&fam, &db);
  ClientSignatureView view(&fam, {1, 2, 3});
  view.DiagnoseAndAdopt(server.Combined(), {});
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  EXPECT_TRUE(invalid.empty());
}

TEST(ClientSignatureViewTest, FalseAlarmRateIsLow) {
  // Many rounds of unrelated-item churn: cached items of this client should
  // rarely be invalidated.
  Database db(2000, 9);
  SignatureParams params;
  params.f = 10;
  params.g = 16;
  params.k_threshold = 1.25;
  params.m = PaperRequiredSignatures(2000, params.f, 0.05);
  SignatureFamily fam(2000, params, 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{10, 20, 30, 40, 50};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});

  uint64_t false_alarms = 0, opportunities = 0;
  double t = 1.0;
  for (int round = 0; round < 200; ++round) {
    // f unrelated items change per round.
    for (uint32_t i = 0; i < params.f; ++i) {
      const ItemId id = static_cast<ItemId>(100 + ((round * 31 + i * 7) %
                                                   1800));
      db.ApplyUpdate(id, t);
      server.OnItemChanged(id);
      t += 1.0;
    }
    const auto invalid = view.DiagnoseAndAdopt(server.Combined(), interest);
    false_alarms += invalid.size();
    opportunities += interest.size();
  }
  const double rate =
      static_cast<double>(false_alarms) / static_cast<double>(opportunities);
  EXPECT_LT(rate, 0.05);
}

TEST(ClientSignatureViewTest, PerItemThresholdDetectsAndSparesReliably) {
  Database db(500, 9);
  SignatureParams params = SmallParams();
  params.per_item_threshold = true;
  params.gamma = 0.8;
  params.m = PaperRequiredSignatures(500, params.f, 0.05);
  SignatureFamily fam(500, params, 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3, 4, 5};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});

  uint64_t missed = 0, false_alarms = 0;
  double t = 1.0;
  for (int round = 0; round < 100; ++round) {
    // One cached item changes plus f-1 unrelated ones.
    db.ApplyUpdate(2, t);
    server.OnItemChanged(2);
    t += 1.0;
    for (uint32_t i = 0; i + 1 < params.f; ++i) {
      const ItemId id = static_cast<ItemId>(100 + (round * 17 + i) % 350);
      db.ApplyUpdate(id, t);
      server.OnItemChanged(id);
      t += 1.0;
    }
    const auto invalid = view.DiagnoseAndAdopt(server.Combined(), interest);
    if (std::find(invalid.begin(), invalid.end(), 2) == invalid.end()) {
      ++missed;
    }
    false_alarms += invalid.size() -
                    (std::find(invalid.begin(), invalid.end(), 2) !=
                             invalid.end()
                         ? 1
                         : 0);
  }
  EXPECT_EQ(missed, 0u);  // a changed item is always diagnosed
  EXPECT_LT(false_alarms, 20u);  // valid items rarely dragged along
}

TEST(ClientSignatureViewTest, DetectionSurvivesManySimultaneousChanges) {
  // More than f items change at once: the scheme may over-invalidate but
  // must still catch the genuinely changed cached item.
  Database db(500, 9);
  SignatureParams params = SmallParams();
  params.m = PaperRequiredSignatures(500, params.f, 0.05);
  SignatureFamily fam(500, params, 77);
  ServerSignatureState server(&fam, &db);
  std::vector<ItemId> interest{1, 2, 3};
  ClientSignatureView view(&fam, interest);
  view.DiagnoseAndAdopt(server.Combined(), {});

  db.ApplyUpdate(2, 1.0);
  server.OnItemChanged(2);
  for (int i = 0; i < 30; ++i) {  // 6x the design point f = 5
    const ItemId id = static_cast<ItemId>(100 + i);
    db.ApplyUpdate(id, 2.0 + i);
    server.OnItemChanged(id);
  }
  const auto invalid = view.DiagnoseAndAdopt(server.Combined(), {1, 2, 3});
  EXPECT_NE(std::find(invalid.begin(), invalid.end(), 2), invalid.end());
}

// ---------------------------------------------------------------------------
// Differential check of the bitset diagnosis against the byte-map algorithm
// it replaced: a flat per-subset mismatch byte-map over the relevant subsets
// (the sorted union of the interest items' SubsetsOf), and a per-item count
// of mismatching subsets walked through SubsetsOf.

class ByteMapSignatureView {
 public:
  ByteMapSignatureView(const SignatureFamily* family,
                       const std::vector<ItemId>& interest)
      : family_(family) {
    std::unordered_set<uint32_t> seen;
    for (ItemId item : interest) {
      for (uint32_t j : family_->SubsetsOf(item)) seen.insert(j);
    }
    relevant_.assign(seen.begin(), seen.end());
    std::sort(relevant_.begin(), relevant_.end());
    stored_.assign(relevant_.size(), 0);
  }

  std::vector<ItemId> DiagnoseAndAdopt(
      const std::vector<uint64_t>& broadcast,
      const std::vector<ItemId>& cached_items) {
    std::vector<ItemId> invalid;
    if (!has_baseline_) {
      invalid = cached_items;
    } else {
      if (mismatch_bits_.size() != broadcast.size()) {
        mismatch_bits_.assign(broadcast.size(), 0);
      }
      bool any_mismatch = false;
      for (size_t r = 0; r < relevant_.size(); ++r) {
        if (stored_[r] != broadcast[relevant_[r]]) {
          mismatch_bits_[relevant_[r]] = 1;
          any_mismatch = true;
        }
      }
      if (any_mismatch) {
        const SignatureParams& params = family_->params();
        const double global_threshold =
            params.k_threshold *
            ValidItemMismatchProbability(params.f, params.g) *
            static_cast<double>(params.m);
        for (ItemId item : cached_items) {
          const std::vector<uint32_t>& subsets = family_->SubsetsOf(item);
          uint32_t count = 0;
          for (uint32_t j : subsets) count += mismatch_bits_[j];
          const double threshold =
              params.per_item_threshold
                  ? params.gamma * static_cast<double>(subsets.size())
                  : global_threshold;
          if (static_cast<double>(count) > threshold) invalid.push_back(item);
        }
        for (size_t r = 0; r < relevant_.size(); ++r) {
          mismatch_bits_[relevant_[r]] = 0;
        }
      }
    }
    for (size_t r = 0; r < relevant_.size(); ++r) {
      stored_[r] = broadcast[relevant_[r]];
    }
    has_baseline_ = true;
    return invalid;
  }

  size_t cached_signature_count() const { return relevant_.size(); }

 private:
  const SignatureFamily* family_;
  std::vector<uint32_t> relevant_;
  std::vector<uint64_t> stored_;
  std::vector<uint8_t> mismatch_bits_;
  bool has_baseline_ = false;
};

/// `count` draws from [0, n), duplicates allowed, in draw order.
std::vector<ItemId> RandomIds(Rng& rng, uint64_t n, uint64_t count) {
  std::vector<ItemId> ids;
  for (uint64_t i = 0; i < count; ++i) {
    ids.push_back(static_cast<ItemId>(rng.NextUint64(n)));
  }
  return ids;
}

/// A cache-like id list: mostly interest items plus a few outsiders, sorted
/// and distinct half the time (as the strategies pass it), otherwise in
/// draw order with repeats.
std::vector<ItemId> RandomCached(Rng& rng, const std::vector<ItemId>& interest,
                                 uint64_t n) {
  std::vector<ItemId> cached;
  for (ItemId id : interest) {
    if (rng.Bernoulli(0.7)) cached.push_back(id);
  }
  const uint64_t outsiders = rng.NextUint64(4);
  for (uint64_t i = 0; i < outsiders; ++i) {
    cached.push_back(static_cast<ItemId>(rng.NextUint64(n)));
  }
  if (rng.Bernoulli(0.5)) {
    std::sort(cached.begin(), cached.end());
    cached.erase(std::unique(cached.begin(), cached.end()), cached.end());
  } else {
    for (size_t i = cached.size(); i > 1; --i) {
      std::swap(cached[i - 1], cached[rng.NextUint64(i)]);
    }
  }
  return cached;
}

TEST(ClientSignatureViewTest, BitsetDiagnosisMatchesByteMapReference) {
  constexpr uint64_t kItems = 300;
  const uint32_t ms[] = {1, 63, 64, 65, 654, 4096};
  const uint32_t gs[] = {1, 16, 64};
  const double ks[] = {0.25, 1.25, 2.0};
  uint64_t invalidations = 0;
  uint64_t outsider_checks = 0;
  for (uint32_t m : ms) {
    for (uint32_t g : gs) {
      for (bool per_item : {false, true}) {
        SCOPED_TRACE("m=" + std::to_string(m) + " g=" + std::to_string(g) +
                     " per_item=" + std::to_string(per_item));
        Rng rng(1000003ULL * m + 101ULL * g + (per_item ? 1 : 0));
        SignatureParams params;
        params.m = m;
        params.f = 1 + static_cast<uint32_t>(rng.NextUint64(10));
        params.g = g;
        params.k_threshold = ks[rng.NextUint64(3)];
        params.per_item_threshold = per_item;
        Database db(kItems, /*seed=*/m + g);
        SignatureFamily family(kItems, params, /*seed=*/7 * m + g);
        ServerSignatureState server(&family, &db);

        // Unsorted interest list with repeats.
        const std::vector<ItemId> interest =
            RandomIds(rng, kItems, 5 + rng.NextUint64(30));
        ClientSignatureView view(&family, interest);
        ByteMapSignatureView reference(&family, interest);
        ASSERT_EQ(view.cached_signature_count(),
                  reference.cached_signature_count());

        SimTime t = 0.0;
        for (int round = 0; round < 40; ++round) {
          // Updates land on interest items and elsewhere alike.
          const uint64_t updates = rng.NextUint64(4);
          for (uint64_t u = 0; u < updates; ++u) {
            const ItemId id =
                rng.Bernoulli(0.5)
                    ? interest[rng.NextUint64(interest.size())]
                    : static_cast<ItemId>(rng.NextUint64(kItems));
            t += 1.0;
            db.ApplyUpdate(id, t);
            server.OnItemChanged(id);
          }
          // Round 0 is the first report (no baseline); later rounds skip a
          // report now and then, as a dozing client does.
          if (round > 0 && rng.Bernoulli(0.25)) continue;
          const std::vector<ItemId> cached =
              RandomCached(rng, interest, kItems);
          for (ItemId id : cached) {
            if (std::find(interest.begin(), interest.end(), id) ==
                interest.end()) {
              ++outsider_checks;
            }
          }
          const std::vector<ItemId> want =
              reference.DiagnoseAndAdopt(server.Combined(), cached);
          const std::vector<ItemId>& got =
              view.DiagnoseAndAdopt(server.Combined(), cached);
          ASSERT_EQ(got, want) << "round " << round;
          EXPECT_TRUE(view.has_baseline());
          if (round > 0) invalidations += got.size();
        }
        EXPECT_EQ(view.cached_signature_count(),
                  reference.cached_signature_count());
      }
    }
  }
  // The matrix must reach the counting path, not only clean reports.
  EXPECT_GT(invalidations, 0u);
  EXPECT_GT(outsider_checks, 0u);
}

}  // namespace
}  // namespace mobicache
