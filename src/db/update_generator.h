// Poisson update workload driving the server database. The paper's model
// updates every item independently at rate mu; we simulate the equivalent
// superposed process (one exponential clock at rate n*mu, uniform item
// choice), which also generalizes to non-uniform per-item weights (Zipf)
// for the weighted-signature / adaptive-window extensions.
//
// Updates reach the database in interval batches. The generator holds the
// predrawn next (time, item) pair, and GenerateIntervalUpdates drains
// everything due before a pump point in one tight loop through
// Database::ApplyUpdateBatch, with no scheduler traffic. Readers observe the
// database only at the pump points: the server's broadcast head, the cell's
// window barrier (before any shard answers an uplink) and the end-of-run
// drain in Stop(). So every reader sees the trajectory of applying each
// update at its own instant — values, journal buckets, observer call
// order, timestamps.
//
// The RNG draw order is one (gap, item) pair per update, drawn one update
// ahead of its application; event times accumulate by repeated `+= gap`
// addition from the start time.

#ifndef MOBICACHE_DB_UPDATE_GENERATOR_H_
#define MOBICACHE_DB_UPDATE_GENERATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "db/database.h"
#include "sim/simulator.h"
#include "util/random.h"
#include "util/status.h"

namespace mobicache {

/// Streams updates into a Database according to independent per-item Poisson
/// processes.
class UpdateGenerator {
 public:
  /// Uniform profile: every item updates at rate `mu_per_item` (>= 0).
  /// Both constructors preallocate the drain's buffers, so no pump ever
  /// allocates.
  UpdateGenerator(Simulator* sim, Database* db, double mu_per_item,
                  uint64_t seed);

  /// Weighted profile: item i updates at rate `rates[i]` (all >= 0); the
  /// vector size must equal db->size().
  UpdateGenerator(Simulator* sim, Database* db, std::vector<double> rates,
                  uint64_t seed);

  UpdateGenerator(const UpdateGenerator&) = delete;
  UpdateGenerator& operator=(const UpdateGenerator&) = delete;
  ~UpdateGenerator();

  /// Begins generating updates from the current simulation time. Returns
  /// FailedPrecondition if already started. A zero total rate is legal and
  /// generates nothing.
  Status Start();

  /// Stops generating, after draining the updates due at or before the
  /// current simulation time. Idempotent; the destructor calls it, so the
  /// database must outlive the generator.
  void Stop();

  /// Applies every pending update with time < `through` (<= `through` when
  /// `inclusive`) via Database::ApplyUpdateBatch. No-op before Start(),
  /// after Stop(), or when nothing is due — callers pump unconditionally
  /// from every observation point.
  void GenerateIntervalUpdates(SimTime through, bool inclusive);

  /// Per-item rate for `id`.
  double RateOf(ItemId id) const;

  /// Sum of all per-item rates.
  double total_rate() const { return total_rate_; }

  uint64_t updates_generated() const { return updates_generated_; }

  /// Wall time spent inside GenerateIntervalUpdates over the whole run
  /// (diagnostic, like the cell's phase walls).
  double update_wall_seconds() const { return update_wall_seconds_; }

 private:
  /// Future (gap, item) pairs decoded ahead of consumption in the uniform
  /// profile's drain loop (see RefillLookahead).
  static constexpr size_t kLookahead = 512;

  ItemId SampleItem();
  /// Draws the first (gap, item) pair: the pending update.
  void Prime();
  /// Refills the decoded lookahead: one block of raw draws in stream order
  /// (gap bits, then item bits, per pair), then a decode pass that turns
  /// the gap bits into *absolute* event times by the same repeated `+= gap`
  /// addition Prime() started. Buffer contents are a pure function of the
  /// RNG stream position, so every pair is bit-identical to an
  /// on-demand draw; undrawn pairs simply wait for a later pump.
  void RefillLookahead();
  /// Drain loop for the weighted (CDF-sampled) profile — a draw-as-you-go
  /// loop, kept separate so the uniform path stays tight.
  void GenerateIntervalUpdatesWeighted(SimTime through, bool inclusive);

  /// The item of the *pending* update, drawn one update ahead of its
  /// ApplyUpdate so its state line can be prefetched until the next pump.
  ItemId next_item_ = 0;
  /// Absolute time of the pending update, advanced by repeated `+= gap`
  /// addition.
  SimTime next_time_ = 0.0;

  Simulator* sim_;
  Database* db_;
  Rng rng_;
  double uniform_rate_ = 0.0;       // used when rates_ is empty
  std::vector<double> rates_;       // per-item rates (weighted profile)
  std::vector<double> rate_cdf_;    // cumulative rates for weighted sampling
  double total_rate_ = 0.0;
  bool active_ = false;
  uint64_t updates_generated_ = 0;
  double update_wall_seconds_ = 0.0;
  /// Staging arrays for one ApplyUpdateBatch chunk (weighted profile only;
  /// preallocated by the constructor, written through raw pointers).
  std::vector<ItemId> batch_ids_;
  std::vector<SimTime> batch_times_;
  /// Decoded lookahead (uniform profile only; preallocated by the
  /// constructor). look_raw_ holds the gap draws' raw bits between the
  /// draw pass and the log pass; look_item_/look_time_ hold decoded pairs
  /// with *absolute* event times, so due runs feed ApplyUpdateBatch in
  /// place — no per-update copy into staging. Entries [look_pos_,
  /// look_len_) are drawn but unapplied; the head is the pending update,
  /// mirrored in next_item_/next_time_.
  std::vector<uint64_t> look_raw_;
  std::vector<double> look_time_;
  std::vector<ItemId> look_item_;
  size_t look_pos_ = 0;
  size_t look_len_ = 0;
};

/// Builds a per-item rate vector whose ranks follow Zipf(theta) and whose
/// total equals `n * mu_mean` (so uniform-rate formulas stay comparable).
/// Rank 0 (the hottest updater) is item 0.
std::vector<double> ZipfUpdateRates(uint64_t n, double mu_mean, double theta);

}  // namespace mobicache

#endif  // MOBICACHE_DB_UPDATE_GENERATOR_H_
