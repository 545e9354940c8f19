// Full-cell experiment assembly: one stationary server, its database and
// Poisson update stream, the shared wireless channel, and a population of
// mobile units running one invalidation strategy. This is the measurement
// rig behind every simulated series in bench/ — it reports the measured hit
// ratio and report size and pushes them through the paper's Eq. 9/10 to get
// throughput and effectiveness directly comparable with the analytic model.
//
// There is one engine, interval-lockstep: the unit population is split
// across `num_shards` shards (1 by default) — each with its own Simulator,
// SoA hot state, and the units' existing per-unit RNGs — and every
// broadcast interval runs as three phases:
//
//   server phase   the server simulator runs to just before the next
//                  interval boundary: broadcast ticks build and "transmit"
//                  reports (captured as immutable shared_ptr<const Report>
//                  deliveries via Server::SetDeliverySink), the update
//                  stream mutates the database, and — for the stateful /
//                  asynchronous baselines — the update trace is recorded.
//   shard phase    every shard (in parallel, one lane per shard) schedules
//                  the window's deliveries and trace events into its own
//                  simulator and runs to the same boundary. Uplink queries
//                  are answered shard-side from the quiescent database and
//                  logged; stateful-registry charges are logged through a
//                  transmit sink.
//   barrier        the per-shard chronological logs are k-way-merged by
//                  (time, shard) — which at equal times equals the global
//                  unit order, because the partition is contiguous — and
//                  replayed onto the real server strategy and channel. The
//                  merge is a loser tree (util/merge.h); at >= 4 shards the
//                  gang first pair-merges adjacent shards' logs in parallel,
//                  which halves the serial merge's source count and moves
//                  half its comparisons off the barrier's critical path.
//                  Pair p = shards {2p, 2p+1} keeps (time, pair) order equal
//                  to (time, shard) order: the in-pair merge ties toward the
//                  lower shard and pair ranks are shard-ordered.
//
// MUs never interact with each other, only with the per-interval broadcast
// and the (single-writer, shard-phase-quiescent) database, so sharding is
// not an approximation: for any shard count the per-unit statistics,
// aggregate CellResult (minus sim_events), and channel bit counters are
// byte-identical, gated by tests/megacell_test.cc against goldens recorded
// from the retired per-event engine and by the committed sweep goldens.
//
// Uplink semantics. An uplink fetch answers with the item's value at the
// fetch instant, as the paper's uplink does. Under kFullWindow retention the
// shard reads it from the journal (Database::ValueAt at the shard clock).
// kNone retention keeps no journal, so the shard serves the value as of the
// window cut instead — up to one interval newer — and no statistic can
// tell: SIG and hybrid clients are validated by reports, so any update in
// (fetch, cut) invalidates the copy at the next report before it can answer
// a hit, and no-caching never hits. An answer observer
// (the only reader of answered values) raises the retention floor to
// kFullWindow for the run, so audits always see fetch-instant values.
//
// Known non-identities, documented here and in EXPERIMENTS.md:
//  * sim_events counts per-shard dispatches (delivery fan-out and replay
//    events are per shard), so it depends on the shard count.
//  * With a jittered delivery model, channel busy_seconds accumulates in
//    barrier replay order (an interval's transmits are batched), which can
//    move the final double by an ulp against a per-event interleaving; it
//    is byte-identical across shard counts.

#ifndef MOBICACHE_EXP_CELL_H_
#define MOBICACHE_EXP_CELL_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "analysis/model.h"
#include "core/adaptive.h"
#include "core/coherency.h"
#include "core/stateful.h"
#include "core/strategy.h"
#include "db/database.h"
#include "db/update_generator.h"
#include "mu/mobile_unit.h"
#include "net/channel.h"
#include "net/delivery.h"
#include "server/server.h"
#include "sig/signature.h"
#include "sim/simulator.h"
#include "util/merge.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace mobicache {

struct CellConfig {
  /// Workload parameters; reuses the analytic model's parameter block so an
  /// analytic curve and a simulation are always configured identically.
  ModelParams model;
  StrategyKind strategy = StrategyKind::kTs;

  uint64_t num_units = 20;
  uint64_t hotspot_size = 20;
  /// true: all units query the same hot spot (the paper's homogeneous-cell
  /// picture); false: each unit gets an independent random hot spot.
  bool shared_hotspot = true;
  /// Explicit per-unit hot spots (e.g. grid neighbourhoods). When non-empty
  /// it must have num_units entries of valid item ids and overrides
  /// hotspot_size / shared_hotspot.
  std::vector<std::vector<ItemId>> custom_hotspots;
  size_t cache_capacity = 0;  ///< 0 = unbounded.
  uint64_t seed = 1;

  /// SIG: operating threshold K (detection requires K < ~1.58; see sig/).
  double sig_k_threshold = 1.25;
  /// SIG extension: per-item syndrome threshold (see SignatureParams).
  bool sig_per_item_threshold = false;
  double sig_gamma = 0.8;

  /// Adaptive TS options (strategy == kAdaptiveTs).
  AdaptiveTsOptions adaptive;

  /// Grouped-report option (strategy == kGroupedAt): number of blocks G.
  uint32_t num_groups = 32;

  /// Hybrid-SIG option (strategy == kHybridSig): the individually-broadcast
  /// hot set (sorted). Empty = the shared contiguous hot spot [0,
  /// hotspot_size).
  std::vector<ItemId> hybrid_hot_set;

  /// Quasi-copy options (strategy == kQuasiAt).
  uint64_t quasi_alpha_intervals = 4;   ///< Delay condition: alpha = j*L.
  bool quasi_arithmetic = false;        ///< Use the arithmetic condition.
  double quasi_epsilon = 1.0;           ///< Arithmetic tolerance.
  double numeric_step_scale = 1.0;      ///< Random-walk step bound.

  /// Report delivery substrate (§9).
  DeliveryModelKind delivery = DeliveryModelKind::kIdealPeriodic;
  double mean_jitter_seconds = 0.0;

  /// Sleep-model extension: use renewal on/off periods instead of the
  /// paper's per-interval Bernoulli(s).
  bool renewal_sleep = false;
  double mean_awake_seconds = 60.0;
  double mean_sleep_seconds = 60.0;

  /// Query-workload extension: Zipf exponent for popularity within each
  /// unit's hot spot (0 = the paper's uniform model).
  double query_zipf_theta = 0.0;

  /// Update-workload extension: explicit per-item update rates (size n).
  /// When non-empty this overrides the uniform rate model.mu; the weighted
  /// and adaptive benches use it for hot/cold item mixes.
  std::vector<double> update_rates;

  /// Quiet-interval elision (see ServerConfig::quiet_elision). On by
  /// default; the equivalence tests run both settings and require
  /// byte-identical results.
  bool quiet_elision = true;
};

struct CellResult {
  // Measured quantities.
  double hit_ratio = 0.0;
  double avg_report_bits = 0.0;
  uint64_t queries_answered = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  double mean_answer_latency = 0.0;
  uint64_t reports_broadcast = 0;
  uint64_t reports_heard = 0;
  uint64_t reports_missed = 0;
  /// Measured intervals whose report delivery found every unit asleep
  /// (pure downlink waste: a report that lands in a fully sleeping cell).
  uint64_t quiet_report_intervals = 0;
  /// The subset of quiet intervals whose report delivery and fan-out the
  /// server skipped (quiet-interval elision; the report is still built, so
  /// the strategy advances as in any interval). Always <=
  /// quiet_report_intervals: a quiet interval still counts there even when
  /// its report had to be delivered (jittered delivery, or a wake that may
  /// land while the report is on the air).
  uint64_t quiet_skipped_intervals = 0;
  double measured_sleep_fraction = 0.0;
  uint64_t items_invalidated = 0;
  double listen_seconds_total = 0.0;
  /// Simulated events over the whole run (warmup included); the bench
  /// harness's events/sec denominator. Counts every event the server and
  /// shard simulators dispatched plus every update applied (updates drain
  /// in batches outside the scheduler; each counts as one event).
  uint64_t sim_events = 0;
  /// Updates applied to the database over the whole run.
  uint64_t updates_applied = 0;
  ChannelStats channel;

  // Derived through Eq. 9/10 from the measured hit ratio and report size.
  double throughput = 0.0;
  double effectiveness = 0.0;
  bool feasible = true;
};

/// Per-shard run accounting, for the bench JSON's wall-time breakdown.
struct CellShardStats {
  uint64_t num_units = 0;
  uint64_t sim_events = 0;    ///< Events the shard's simulator dispatched.
  double wall_seconds = 0.0;  ///< Wall time spent advancing this shard.
};

struct MegaCellConfig;

/// One cell simulation. Build once, run once.
class Cell {
 public:
  /// `num_shards` splits the unit population into that many lockstep
  /// shards (and threads); it must be >= 1 and <= config.num_units, which
  /// Build() checks.
  explicit Cell(CellConfig config, uint32_t num_shards = 1);
  /// The same engine, configured through exp/megacell.h's config pair.
  explicit Cell(MegaCellConfig config);
  ~Cell();

  Cell(const Cell&) = delete;
  Cell& operator=(const Cell&) = delete;

  /// Validates the configuration (including the shard/unit combination) and
  /// constructs the server side plus every shard. Per-unit seeds are drawn
  /// in global unit order, independent of the partition, so every unit's
  /// RNG stream is the same at any shard count. Must be called exactly once
  /// before Run().
  Status Build();

  /// Runs `warmup_intervals` intervals, resets all statistics, then runs
  /// `measure_intervals` more and freezes the result. Lockstep windows cut
  /// at every interval boundary (exclusive: boundary events belong to the
  /// next window, so an uplink logged at t < T_i is replayed into the server
  /// strategy before the T_i report is built).
  Status Run(uint64_t warmup_intervals, uint64_t measure_intervals);

  /// Result of the measurement phase; valid after Run(). Identical at every
  /// shard count except sim_events (see file comment).
  CellResult result() const;

  /// Folded statistics of one unit by *global* index: the unit's own stats
  /// plus its SoA broadcast-counter lanes and settled missed count. A
  /// unit's own stats() lack those three fields.
  MobileUnitStats UnitStats(uint64_t global_index) const;

  /// Every unit, in global order — for attaching answer observers before
  /// Run(). Read statistics through UnitStats().
  std::vector<MobileUnit*> units();

  const std::vector<CellShardStats>& shard_stats() const {
    return shard_stats_;
  }

  // Per-phase wall accounting over the whole run (warmup included — these
  // are run-lifetime diagnostics, not measurement-phase statistics, so
  // ResetAllStats leaves them alone). shard_phase is the wall of the
  // fork-join gang call — the phase's critical path, not the per-lane sum
  // (that lives in shard_stats) — so server + shard_phase + replay
  // approximates the full Run() wall on any core count.
  /// Wall time in the serial server phases.
  double server_wall_seconds() const { return server_wall_seconds_; }
  /// Wall time in the parallel shard phases (critical path per window).
  double shard_phase_wall_seconds() const { return shard_phase_wall_seconds_; }
  /// Wall time in the barrier replay-merges (pre-merge + serial replay).
  double replay_wall_seconds() const { return replay_wall_seconds_; }
  /// Records replayed at the barriers (shard log entries + async trace
  /// broadcasts), warmup included.
  uint64_t replay_records() const { return replay_records_; }
  /// Wall time draining the update stream — a sub-account of the server
  /// phase (pumps run inside it).
  double update_wall_seconds() const {
    return updates_ == nullptr ? 0.0 : updates_->update_wall_seconds();
  }

  // Stateful/async counter sums across shard replicas (0 for other modes).
  uint64_t registry_control_messages() const;
  uint64_t registry_invalidations_sent() const;
  uint64_t registry_invalidations_missed_asleep() const;
  uint64_t async_messages_broadcast() const { return async_messages_; }
  uint64_t async_deliveries() const;

  /// The server-side simulator (broadcast schedule). Tests pre-schedule
  /// deterministic database updates (ApplyUpdate calls) on it before Run();
  /// such a cell needs mu = 0, because the update stream drains only at
  /// pump points and would apply its earlier updates after a scheduled one.
  Simulator* sim() { return sim_.get(); }
  Database* db() { return db_.get(); }
  Server* server() { return server_.get(); }
  Channel* channel() { return channel_.get(); }
  UpdateGenerator* updates() { return updates_.get(); }
  const CellConfig& config() const { return config_; }
  uint32_t num_shards() const { return num_shards_; }

 private:
  struct Shard;

  /// Advances server and shards to `cut` and replays the window's logs.
  /// `inclusive` runs events at exactly `cut` too (the warmup/measure end
  /// points, which sit mid-interval); boundary cuts are exclusive.
  void AdvanceWindow(SimTime cut, bool inclusive);
  void ReplayWindow();
  void ResetAllStats();

  CellConfig config_;
  uint32_t num_shards_ = 1;
  MessageSizes sizes_;
  bool built_ = false;
  bool ran_ = false;
  bool stateful_mode_ = false;
  bool async_mode_ = false;
  bool trace_updates_ = false;  ///< stateful or async: capture update trace.

  // Server side (single-threaded phases only).
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<UpdateGenerator> updates_;
  std::unique_ptr<Channel> channel_;
  std::unique_ptr<DeliveryModel> delivery_;
  std::unique_ptr<SignatureFamily> family_;  ///< Server-strategy replica.
  std::unique_ptr<NumericWalk> walk_;
  std::unique_ptr<Server> server_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<uint64_t> shard_offset_;  ///< Global index of each shard's
                                        ///< first unit, plus a final sentinel.
  std::unique_ptr<LockstepGang> gang_;

  // Window buffers (cleared every barrier).
  std::vector<Server::ReportDelivery> pending_deliveries_;
  struct TraceRecord {
    SimTime time;
    ItemId id;
  };
  std::vector<TraceRecord> update_trace_;
  /// Current window bounds, stashed as members so the shard-phase gang
  /// lambda captures only `this` (a by-value capture would overflow
  /// std::function's inline buffer and allocate every window).
  SimTime window_cut_ = 0.0;
  bool window_inclusive_ = false;

  // Barrier replay state, reused across windows so the replay path stops
  // allocating once capacities are warm.
  /// Reference into a shard log: pre-merged pairs carry (time, shard,
  /// index) instead of copied records — a LogRecord copy would drag the
  /// uplink info's heap payload with it.
  struct MergedRef {
    SimTime time;
    uint32_t shard;
    uint32_t index;
  };
  LoserTreeMerger merger_;
  std::vector<size_t> replay_heads_;  ///< Per-source consume cursor.
  std::vector<std::vector<MergedRef>> premerged_;  ///< One per shard pair.

  uint64_t measure_intervals_ = 0;
  uint64_t async_messages_ = 0;
  /// Deliveries no shard's slice heard (summed at the barrier).
  uint64_t quiet_report_intervals_ = 0;
  /// Quiet intervals the server elided outright (null-report deliveries).
  uint64_t quiet_skipped_intervals_ = 0;
  /// Report deliveries completed since the last stats reset (elided ones
  /// included); per-unit reports_missed = deliveries_completed_ - heard.
  uint64_t deliveries_completed_ = 0;
  std::vector<CellShardStats> shard_stats_;
  double server_wall_seconds_ = 0.0;
  double shard_phase_wall_seconds_ = 0.0;
  double replay_wall_seconds_ = 0.0;
  uint64_t replay_records_ = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_EXP_CELL_H_
