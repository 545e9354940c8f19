#include "sig/signature.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/bits.h"
#include "util/random.h"

namespace mobicache {

double SubsetMembershipProbability(uint32_t f) {
  assert(f >= 1);
  return 1.0 / (static_cast<double>(f) + 1.0);
}

double ValidItemMismatchProbability(uint32_t f, uint32_t g) {
  const double q = SubsetMembershipProbability(f);
  const double sig_collision = std::pow(2.0, -static_cast<double>(g));
  // Eq. 21: member * (some changed item in the set and its signature shows)
  return q * (1.0 - std::pow(1.0 - q, static_cast<double>(f))) *
         (1.0 - sig_collision);
}

double FalseAlarmProbabilityBound(uint32_t m, uint32_t f, uint32_t g,
                                  double k_threshold) {
  const double p = ValidItemMismatchProbability(f, g);
  const double km1 = k_threshold - 1.0;
  // Eq. 22 (Chernoff): Pr[X > K m p] <= exp(-(K-1)^2 m p / 3).
  return std::exp(-km1 * km1 * static_cast<double>(m) * p / 3.0);
}

uint32_t RequiredSignatures(uint64_t n, uint32_t f, uint32_t g, double delta,
                            double k_threshold) {
  assert(n >= 1);
  assert(delta > 0.0 && delta < 1.0);
  assert(k_threshold > 1.0);
  const double p = ValidItemMismatchProbability(f, g);
  const double km1 = k_threshold - 1.0;
  // Eq. 23: m >= 3 (ln(1/delta) + ln(n)) / (p (K-1)^2).
  const double m = 3.0 *
                   (std::log(1.0 / delta) + std::log(static_cast<double>(n))) /
                   (p * km1 * km1);
  return static_cast<uint32_t>(std::ceil(m));
}

uint32_t PaperRequiredSignatures(uint64_t n, uint32_t f, double delta) {
  assert(n >= 1);
  assert(delta > 0.0 && delta < 1.0);
  // Eq. 24: m >= 6 (f+1) (ln(1/delta) + ln(n)).
  const double m = 6.0 * (static_cast<double>(f) + 1.0) *
                   (std::log(1.0 / delta) + std::log(static_cast<double>(n)));
  return static_cast<uint32_t>(std::ceil(m));
}

SignatureFamily::SignatureFamily(uint64_t n, SignatureParams params,
                                 uint64_t seed)
    : n_(n), params_(params), seed_(seed) {
  assert(n >= 1);
  assert(params_.m >= 1);
  assert(params_.f >= 1);
  assert(params_.g >= 1 && params_.g <= 64);
  sig_mask_ = params_.g == 64 ? ~0ULL : ((1ULL << params_.g) - 1);
  member_prob_ = SubsetMembershipProbability(params_.f);
  log1m_member_ = std::log1p(-member_prob_);
  mismatch_threshold_ = params_.k_threshold *
                        ValidItemMismatchProbability(params_.f, params_.g) *
                        static_cast<double>(params_.m);
}

uint64_t SignatureFamily::ItemSignature(uint64_t value) const {
  uint64_t state = value ^ seed_ ^ 0xA5A5A5A55A5A5A5AULL;
  return SplitMix64(&state) & sig_mask_;
}

std::vector<uint32_t> SignatureFamily::ComputeSubsetsOf(ItemId item) const {
  // Runs once per item: SubsetsOf memoizes the result (under
  // kMemoBudgetBytes), so steady-state queries never reach this.
  // detlint:allow-function(alloc-event-path)
  // Geometric skipping over subset indices: each subset contains `item`
  // independently with probability 1/(f+1); the gap between consecutive
  // member indices is geometric. The stream is a pure function of
  // (seed, item), so all parties agree on the family without communication.
  std::vector<uint32_t> out;
  out.reserve(static_cast<size_t>(member_prob_ * params_.m * 1.5) + 4);
  uint64_t state = seed_ ^ (0x6C62272E07BB0142ULL * (item + 1));
  double j = -1.0;
  while (true) {
    // u in (0, 1]: avoids log(0).
    const double u =
        (static_cast<double>(SplitMix64(&state) >> 11) + 1.0) * 0x1.0p-53;
    j += 1.0 + std::floor(std::log(u) / log1m_member_);
    if (j >= static_cast<double>(params_.m)) break;
    out.push_back(static_cast<uint32_t>(j));
  }
  return out;
}

const std::vector<uint32_t>& SignatureFamily::SubsetsOf(ItemId item) const {
  const auto it = memo_.find(item);
  if (it != memo_.end()) return it->second;
  std::vector<uint32_t> subsets = ComputeSubsetsOf(item);
  const size_t bytes = subsets.capacity() * sizeof(uint32_t);
  if (memo_bytes_ + bytes <= kMemoBudgetBytes) {
    memo_bytes_ += bytes;
    // One-time memo insertion per item, capped by kMemoBudgetBytes.
    // detlint:allow(alloc-event-path)
    return memo_.emplace(item, std::move(subsets)).first->second;
  }
  scratch_ = std::move(subsets);
  return scratch_;
}

bool SignatureFamily::Contains(uint32_t subset, ItemId item) const {
  const std::vector<uint32_t>& subsets = SubsetsOf(item);
  return std::binary_search(subsets.begin(), subsets.end(), subset);
}

ServerSignatureState::ServerSignatureState(const SignatureFamily* family,
                                           const Database* db,
                                           const std::vector<ItemId>* excluded)
    : family_(family), db_(db) {
  if (excluded != nullptr) {
    excluded_ = *excluded;
    assert(std::is_sorted(excluded_.begin(), excluded_.end()));
  }
  combined_.assign(family_->params().m, 0);
  incorporated_.resize(db_->size());
  for (uint64_t i = 0; i < db_->size(); ++i) {
    const ItemId id = static_cast<ItemId>(i);
    if (IsExcluded(id)) continue;
    const uint64_t sig = family_->ItemSignature(db_->ValueOf(id));
    incorporated_[i] = sig;
    for (uint32_t j : family_->SubsetsOf(id)) combined_[j] ^= sig;
  }
}

bool ServerSignatureState::IsExcluded(ItemId id) const {
  return std::binary_search(excluded_.begin(), excluded_.end(), id);
}

void ServerSignatureState::OnItemChanged(ItemId id) {
  assert(id < incorporated_.size());
  if (IsExcluded(id)) return;
  const uint64_t fresh = family_->ItemSignature(db_->ValueOf(id));
  const uint64_t delta = fresh ^ incorporated_[id];
  if (delta == 0) return;
  for (uint32_t j : family_->SubsetsOf(id)) combined_[j] ^= delta;
  incorporated_[id] = fresh;
}

ClientSignatureView::ClientSignatureView(const SignatureFamily* family,
                                         const std::vector<ItemId>& interest)
    : family_(family),
      words_((static_cast<size_t>(family->params().m) + 63) / 64),
      interest_(interest) {
  std::sort(interest_.begin(), interest_.end());
  interest_.erase(std::unique(interest_.begin(), interest_.end()),
                  interest_.end());
  masks_.assign(interest_.size() * words_, 0);
  relevant_.assign(words_, 0);
  for (size_t k = 0; k < interest_.size(); ++k) {
    uint64_t* mask = &masks_[k * words_];
    for (uint32_t j : family_->SubsetsOf(interest_[k])) {
      mask[j >> 6] |= uint64_t{1} << (j & 63);
    }
    for (size_t w = 0; w < words_; ++w) relevant_[w] |= mask[w];
  }
  for (uint64_t word : relevant_) relevant_count_ += PopCount64(word);
  stored_.assign(family_->params().m, 0);
  mismatch_.assign(words_, 0);
}

const std::vector<ItemId>& ClientSignatureView::DiagnoseAndAdopt(
    const std::vector<uint64_t>& broadcast,
    const std::vector<ItemId>& cached_items) {
  const size_t m = stored_.size();
  assert(broadcast.size() == m);
  invalid_.clear();
  if (!has_baseline_) {
    // Nothing to compare against yet: conservatively treat every cached item
    // as suspect and adopt this broadcast as the baseline. Reused member
    // storage; it grows only to the largest cache diagnosed.
    // detlint:allow(alloc-event-path)
    invalid_.assign(cached_items.begin(), cached_items.end());
    std::copy(broadcast.begin(), broadcast.end(), stored_.begin());
    has_baseline_ = true;
    return invalid_;
  }

  // One pass over the m signatures: mismatch bit j is set when relevant
  // subset j's signature changed (the alpha_j = 1 entries of §3.3), and the
  // broadcast is adopted as the new baseline on the way. Four signatures
  // per step give the core independent compares to overlap and replace a
  // variable shift per signature with constant ones.
  uint64_t any_mismatch = 0;
  for (size_t w = 0; w < words_; ++w) {
    const size_t base = w * 64;
    const size_t width = std::min<size_t>(64, m - base);
    uint64_t* old_sig = &stored_[base];
    const uint64_t* new_sig = &broadcast[base];
    uint64_t bits = 0;
    size_t i = 0;
    for (; i + 4 <= width; i += 4) {
      const uint64_t s0 = new_sig[i];
      const uint64_t s1 = new_sig[i + 1];
      const uint64_t s2 = new_sig[i + 2];
      const uint64_t s3 = new_sig[i + 3];
      const uint64_t nibble = static_cast<uint64_t>(old_sig[i] != s0) |
                              static_cast<uint64_t>(old_sig[i + 1] != s1) << 1 |
                              static_cast<uint64_t>(old_sig[i + 2] != s2) << 2 |
                              static_cast<uint64_t>(old_sig[i + 3] != s3) << 3;
      old_sig[i] = s0;
      old_sig[i + 1] = s1;
      old_sig[i + 2] = s2;
      old_sig[i + 3] = s3;
      bits |= nibble << i;
    }
    for (; i < width; ++i) {
      bits |= static_cast<uint64_t>(old_sig[i] != new_sig[i]) << i;
      old_sig[i] = new_sig[i];
    }
    bits &= relevant_[w];
    mismatch_[w] = bits;
    any_mismatch |= bits;
  }
  if (any_mismatch == 0) return invalid_;

  const SignatureParams& params = family_->params();
  const double global_threshold = family_->MismatchThreshold();

  // Interest lookups resume where the previous one ended while the cached
  // ids ascend, so a sorted list walks interest_ once; a cache holding
  // consecutive interest items finds each at the cursor without a search.
  size_t lo = 0;
  ItemId prev = 0;
  for (ItemId item : cached_items) {
    if (item < prev) lo = 0;
    prev = item;
    if (lo != interest_.size() && interest_[lo] < item) ++lo;
    if (lo == interest_.size() || interest_[lo] != item) {
      lo = static_cast<size_t>(
          std::lower_bound(interest_.begin() + static_cast<std::ptrdiff_t>(lo),
                           interest_.end(), item) -
          interest_.begin());
    }
    uint32_t count = 0;
    uint32_t subsets = 0;
    if (lo != interest_.size() && interest_[lo] == item) {
      const uint64_t* mask = &masks_[lo * words_];
      for (size_t w = 0; w < words_; ++w) {
        count += PopCount64(mask[w] & mismatch_[w]);
      }
      if (params.per_item_threshold) {
        for (size_t w = 0; w < words_; ++w) subsets += PopCount64(mask[w]);
      }
    } else {
      // Outside the interest set: only relevant subsets can mismatch.
      const std::vector<uint32_t>& list = family_->SubsetsOf(item);
      for (uint32_t j : list) {
        count += static_cast<uint32_t>((mismatch_[j >> 6] >> (j & 63)) & 1);
      }
      subsets = static_cast<uint32_t>(list.size());
    }
    const double threshold =
        params.per_item_threshold
            ? params.gamma * static_cast<double>(subsets)
            : global_threshold;
    // Reused member storage sized by actual mismatches; empty on the
    // (overwhelmingly common) clean report. detlint:allow(alloc-event-path)
    if (static_cast<double>(count) > threshold) invalid_.push_back(item);
  }
  return invalid_;
}

}  // namespace mobicache
