#include "db/update_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "util/wall_timer.h"

namespace mobicache {

namespace {

/// Updates staged per ApplyUpdateBatch call. Large enough that the per-call
/// overhead (virtual-free, but a call and a couple of branch misses)
/// amortizes away, small enough that the staging arrays stay L1-resident.
constexpr size_t kBatchChunk = 1024;

}  // namespace

UpdateGenerator::UpdateGenerator(Simulator* sim, Database* db,
                                 double mu_per_item, uint64_t seed)
    : sim_(sim), db_(db), rng_(seed), uniform_rate_(mu_per_item) {
  assert(mu_per_item >= 0.0);
  total_rate_ = mu_per_item * static_cast<double>(db_->size());
  look_raw_.resize(kLookahead);
  look_time_.resize(kLookahead);
  look_item_.resize(kLookahead);
}

UpdateGenerator::UpdateGenerator(Simulator* sim, Database* db,
                                 std::vector<double> rates, uint64_t seed)
    : sim_(sim), db_(db), rng_(seed), rates_(std::move(rates)) {
  assert(rates_.size() == db_->size());
  rate_cdf_.resize(rates_.size());
  double acc = 0.0;
  for (size_t i = 0; i < rates_.size(); ++i) {
    assert(rates_[i] >= 0.0);
    acc += rates_[i];
    rate_cdf_[i] = acc;
  }
  total_rate_ = acc;
  batch_ids_.resize(kBatchChunk);
  batch_times_.resize(kBatchChunk);
}

UpdateGenerator::~UpdateGenerator() { Stop(); }

Status UpdateGenerator::Start() {
  if (active_) return Status::FailedPrecondition("generator already started");
  active_ = true;
  if (total_rate_ > 0.0) Prime();
  return Status::OK();
}

void UpdateGenerator::Stop() {
  if (!active_) return;
  // A run that stops at Now() has seen every update with time <= Now().
  GenerateIntervalUpdates(sim_->Now(), /*inclusive=*/true);
  active_ = false;
}

double UpdateGenerator::RateOf(ItemId id) const {
  assert(id < db_->size());
  return rates_.empty() ? uniform_rate_ : rates_[id];
}

void UpdateGenerator::Prime() {
  const double gap = rng_.Exponential(total_rate_);
  next_item_ = SampleItem();
  db_->PrefetchItem(next_item_);
  next_time_ = sim_->Now() + gap;
  if (rates_.empty()) {
    // Seed the lookahead queue with the pending pair so the drain loop's
    // invariant (the queue head *is* the pending update) holds from the
    // first pump.
    look_item_[0] = next_item_;
    look_time_[0] = next_time_;
    look_pos_ = 0;
    look_len_ = 1;
  }
}

void UpdateGenerator::RefillLookahead() {
  // Only called with the queue fully consumed; the last decoded time (the
  // just-applied tail) anchors the new block's accumulation chain.
  assert(look_pos_ == look_len_ && look_len_ >= 1);
  Rng rng = rng_;  // draw through a register-resident copy
  uint64_t* const raw = look_raw_.data();
  ItemId* const items = look_item_.data();
  const uint64_t n = db_->size();
  // Pass 1: raw draws in stream order — gap bits, then item bits, one pair
  // per future update. NextUint64's rare rejection redraws stay inside the
  // pair, exactly where the on-demand order has them.
  for (size_t j = 0; j < kLookahead; ++j) {
    raw[j] = rng.NextBits();
    items[j] = static_cast<ItemId>(rng.NextUint64(n));
    // The slab line this item will dirty is known a whole block before the
    // apply loop reaches it — enough lead time for a far (T1-hint)
    // prefetch to land without evicting the apply loop's L1 working set.
    db_->PrefetchItemFar(items[j]);
  }
  rng_ = rng;
  // Pass 2: decode the gaps and accumulate absolute event times. Identical
  // arithmetic to Exponential(rate) on the same bits — u = 1 -
  // (bits>>11)*2^-53, gap = -log(u)/rate — and the same repeated `+= gap`
  // addition chain an on-demand draw performs, so every decoded time is
  // bit-identical to it; the log calls still pipeline
  // back-to-back (each accumulate only waits on its own log result).
  double* const times = look_time_.data();
  const double rate = total_rate_;
  double t = times[look_len_ - 1];
  for (size_t j = 0; j < kLookahead; ++j) {
    const double u = 1.0 - static_cast<double>(raw[j] >> 11) * 0x1.0p-53;
    t += -std::log(u) / rate;
    times[j] = t;
  }
  look_pos_ = 0;
  look_len_ = kLookahead;
}

void UpdateGenerator::GenerateIntervalUpdates(SimTime through, bool inclusive) {
  if (!active_ || total_rate_ <= 0.0) return;
  if (inclusive ? next_time_ > through : next_time_ >= through) return;
  WallTimer timer(&update_wall_seconds_);
  if (!rates_.empty()) {
    GenerateIntervalUpdatesWeighted(through, inclusive);
    return;
  }
  // The queue [look_pos_, look_len_) is drawn-but-unapplied with absolute
  // times; each due run feeds ApplyUpdateBatch directly from the lookahead
  // arrays — the former staging copy is gone.
  for (;;) {
    const double* const times = look_time_.data();
    size_t end = look_pos_;
    while (end < look_len_ &&
           (inclusive ? times[end] <= through : times[end] < through)) {
      ++end;
    }
    if (end > look_pos_) {
      const size_t count = end - look_pos_;
      db_->ApplyUpdateBatch(look_item_.data() + look_pos_, times + look_pos_,
                            count);
      updates_generated_ += count;
      look_pos_ = end;
    }
    if (look_pos_ < look_len_) break;  // head exists and is not due
    RefillLookahead();
  }
  next_item_ = look_item_[look_pos_];
  next_time_ = look_time_[look_pos_];
  // The pending pair outlives the pump; give its slab line the span until
  // the next pump point to arrive.
  db_->PrefetchItem(next_item_);
}

void UpdateGenerator::GenerateIntervalUpdatesWeighted(SimTime through,
                                                      bool inclusive) {
  ItemId* const ids = batch_ids_.data();
  SimTime* const times = batch_times_.data();
  size_t count = 0;
  for (;;) {
    ids[count] = next_item_;
    times[count] = next_time_;
    ++count;
    next_time_ += rng_.Exponential(total_rate_);
    next_item_ = SampleItem();
    const bool due = inclusive ? next_time_ <= through : next_time_ < through;
    if (count == kBatchChunk || !due) {
      db_->ApplyUpdateBatch(ids, times, count);
      updates_generated_ += count;
      count = 0;
      if (!due) break;
    }
  }
  db_->PrefetchItem(next_item_);
}

ItemId UpdateGenerator::SampleItem() {
  if (rates_.empty()) {
    return static_cast<ItemId>(rng_.NextUint64(db_->size()));
  }
  const double u = rng_.NextDouble() * total_rate_;
  auto it = std::lower_bound(rate_cdf_.begin(), rate_cdf_.end(), u);
  if (it == rate_cdf_.end()) --it;
  return static_cast<ItemId>(it - rate_cdf_.begin());
}

std::vector<double> ZipfUpdateRates(uint64_t n, double mu_mean, double theta) {
  assert(n >= 1);
  std::vector<double> rates(n);
  double norm = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    rates[i] = 1.0 / std::pow(static_cast<double>(i + 1), theta);
    norm += rates[i];
  }
  const double scale = mu_mean * static_cast<double>(n) / norm;
  for (auto& r : rates) r *= scale;
  return rates;
}

}  // namespace mobicache
