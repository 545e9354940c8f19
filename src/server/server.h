// The stationary data server of one cell (the MSS-attached server of §1-§2):
// owns the broadcast schedule, builds reports through its ServerStrategy,
// transmits them on the shared channel (optionally through a §9 delivery
// model with contention jitter), and serves uplink cache-miss queries.
//
// Broadcast cost tracks *listeners*, not wall intervals: with a WakeIndex
// attached the server fans reports out over the awake bitmap only, recycles
// report storage through a small arena, and — when every attached unit
// sleeps through an interval's entire transmission — elides the report
// build and fan-out altogether while keeping every statistic, channel
// counter, and strategy state byte-identical (quiet-interval elision; see
// Broadcast()). Every interval still runs as its own broadcast tick and
// consumption event, elided or not, and elision never touches the journal:
// how each journal bucket is stored is fixed by the retention class Start()
// arms (see JournalRetention).

#ifndef MOBICACHE_SERVER_SERVER_H_
#define MOBICACHE_SERVER_SERVER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/report.h"
#include "core/strategy.h"
#include "db/database.h"
#include "mu/mobile_unit.h"
#include "mu/uplink_service.h"
#include "mu/wake_index.h"
#include "net/channel.h"
#include "net/delivery.h"
#include "sim/simulator.h"
#include "util/stats.h"
#include "util/status.h"

namespace mobicache {

class UpdateGenerator;

struct ServerConfig {
  SimTime latency = 10.0;  ///< L: broadcast period in seconds.
  MessageSizes sizes;      ///< Bit costs of the message vocabulary.
  /// Extra journal history retained beyond the strategy's horizon, in
  /// intervals (safety margin for observers).
  uint64_t journal_slack_intervals = 2;
  /// Broadcast intervals between journal prunes (>= 1). Skipping a prune
  /// only retains extra history — no window query reads beyond the horizon —
  /// so pruning in batches is identity-free and amortizes the bucket walk.
  uint64_t journal_prune_period_intervals = 8;
  /// Quiet-interval elision (requires an attached WakeIndex): skip report
  /// materialization and fan-out for intervals no attached unit can hear.
  /// Observable behaviour is byte-identical either way; the equivalence
  /// tests force it off to prove that.
  bool quiet_elision = true;
};

struct ServerStats {
  uint64_t reports_broadcast = 0;
  uint64_t uplink_queries_served = 0;
  /// Report deliveries nobody heard: every attached unit was asleep when the
  /// transmission completed. The paper's energy argument hinges on these —
  /// a report that lands in a fully sleeping cell is pure downlink waste.
  uint64_t quiet_report_intervals = 0;
  /// The subset of quiet_report_intervals whose report build + fan-out the
  /// server skipped outright (quiet-interval elision). Always <=
  /// quiet_report_intervals: a quiet interval still counts there even when
  /// its report had to be materialized (observer attached, jittered
  /// delivery, or a strategy without a cheap advance).
  uint64_t quiet_skipped_intervals = 0;
  OnlineStats report_bits;       ///< Per-report size distribution (Bc).
  OnlineStats report_air_seconds;///< Per-report airtime.
};

class Server : public UplinkService {
 public:
  /// `delivery` may be null, meaning ideal periodic timing with zero jitter.
  Server(Simulator* sim, Database* db, Channel* channel,
         std::unique_ptr<ServerStrategy> strategy, DeliveryModel* delivery,
         ServerConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() override;

  /// Subscribes a unit to the broadcast. Units must outlive the server's
  /// run. Call before Start().
  void AttachUnit(MobileUnit* unit);

  /// Registers a wake index covering attached units. With at least one
  /// index attached the server (a) fans deliveries out over the awake
  /// bitmap — slot order must equal AttachUnit order — instead of bouncing
  /// off sleeping units, and (b) elides fully-quiet intervals. Per-unit
  /// reports_missed is then settled at the end of the run
  /// (SettleUnitStats) instead of per delivery. The cell driver attaches
  /// one index over all units; the sharded engine attaches one per shard
  /// (aggregated for the wake horizon only — fan-out happens shard-side).
  /// Call before Start().
  void AttachWakeIndex(const WakeIndex* index);

  /// Attaches a batched update generator as the server's update pump. The
  /// server then drains pending updates at every point a reader can first
  /// observe database state — the broadcast head (before the report build),
  /// each uplink fetch, and the delivery-consumption instant — so the
  /// database trajectory every reader sees is identical to the per-event
  /// interleaving. The sharded engine adds one more pump at its window
  /// barrier. Call before Start().
  void SetUpdatePump(UpdateGenerator* pump);

  /// Raises the journal retention class Start() arms beyond what the
  /// strategy declares (never lowers it). Cell drivers call this with
  /// kFullWindow when external instrumentation — a test's answer observer
  /// auditing values against historical ground truth — needs raw journal
  /// reads the strategy itself never issues. Call before Start().
  void SetRetentionFloor(JournalRetention floor) {
    if (floor > retention_floor_) retention_floor_ = floor;
  }

  /// Schedules periodic broadcasts at T_i = i*L starting at the current
  /// simulation time.
  Status Start();
  void Stop();

  /// Finalizes per-unit reports_missed counters: in wake-index mode
  /// sleepers never observe deliveries, so their missed counts are settled
  /// here as deliveries_completed() - heard. Call after the run, before
  /// reading unit stats. No-op without a wake index (the legacy fan-out
  /// counts misses per delivery).
  void SettleUnitStats();

  FetchResult FetchItem(const UplinkQueryInfo& info) override;

  /// Performs the server-side bookkeeping of one uplink query — strategy
  /// notification, uplink/answer channel charges, stats — without reading
  /// the item value. FetchItem() is AccountUplinkQuery() plus the database
  /// read; the sharded cell engine replays shard-logged queries through this
  /// at the interval barrier (values were already served shard-side).
  void AccountUplinkQuery(const UplinkQueryInfo& info);

  /// One completed report transmission, as observed at the instant units
  /// would consume it. `report` is null for an elided quiet interval (no
  /// unit could hear it; the sink owner counts it quiet and skipped).
  struct ReportDelivery {
    std::shared_ptr<const Report> report;
    double listen_seconds = 0.0;  ///< Tuning cost for a unit that listens.
    SimTime done = 0.0;           ///< Transmission-complete time.
  };

  /// Invoked for every report when its transmission completes, before any
  /// unit processes it. Tests use this to snapshot ground truth at T_i.
  /// Attaching an observer disables quiet-interval elision (every report
  /// must materialize for it).
  void SetReportObserver(std::function<void(const Report&)> observer) {
    report_observer_ = std::move(observer);
    RecomputeDeliveryPath();
  }

  /// Installs a delivery sink. When set, completed report transmissions are
  /// handed to the sink *instead of* being fanned out to attached units —
  /// the sharded cell engine uses this to collect each interval's delivery
  /// and replay it inside every shard's own simulator. The sink runs inside
  /// the delivery-completion event (after the report observer), at
  /// Now() == delivery.done.
  void SetDeliverySink(std::function<void(ReportDelivery)> sink) {
    delivery_sink_ = std::move(sink);
    RecomputeDeliveryPath();
  }

  /// Zeroes the accumulated statistics (used after warm-up).
  void ResetStats() {
    stats_ = ServerStats();
    deliveries_completed_ = 0;
  }

  /// Report transmissions consumed (fan-out or sink) since the last
  /// ResetStats — elided quiet intervals included. The per-unit identity
  /// `missed = deliveries_completed - heard` is what SettleUnitStats uses.
  uint64_t deliveries_completed() const { return deliveries_completed_; }

  ServerStrategy* strategy() { return strategy_.get(); }
  const ServerStats& stats() const { return stats_; }
  const ServerConfig& config() const { return config_; }

  /// Wall time spent in the broadcast path — report build/elide plus the
  /// consumption event (fan-out or sink hand-off) — over the whole run.
  /// Run-lifetime diagnostic like MegaCell's phase walls: warmup included,
  /// ResetStats leaves it alone. Costs two clock reads per interval.
  double broadcast_wall_seconds() const { return broadcast_wall_seconds_; }

 private:
  /// Who consumes a completed delivery; recomputed when observers change so
  /// the per-interval consumption event tests one byte instead of two
  /// std::function bools (the common kFanOut case touches neither).
  enum class DeliveryPath : uint8_t {
    kFanOut,   ///< No observer, no sink: fan out to attached units.
    kSink,     ///< Delivery sink only (the sharded engine).
    kGeneral,  ///< Report observer attached (with or without a sink).
  };

  void Broadcast(uint64_t interval);
  /// Transmits and schedules consumption. `report` may be null (elided
  /// quiet interval: all bookkeeping, no fan-out). `duration` is
  /// channel_->Duration(bits), computed once in Broadcast.
  void Deliver(std::shared_ptr<const Report> report, uint64_t bits,
               double jitter, double duration);
  /// The delivery-consumption event: drains updates due before `done`, then
  /// hands the report to its consumer (fan-out, sink, or observer). Runs as
  /// the event Deliver scheduled, at Now() == done.
  void ConsumeDelivery(std::shared_ptr<const Report> report, double listen,
                       SimTime done);
  /// Fans one report out to the attached units; returns how many heard it.
  /// Iterates the awake bitmap when a wake index is attached, else the
  /// legacy all-units loop.
  uint64_t FanOutReport(const Report& report, double listen_seconds);
  /// Grabs a free arena slot (use_count == 1 means no in-flight delivery
  /// still references it), growing the arena only until the steady state's
  /// maximum in-flight count is covered.
  std::shared_ptr<Report>& AcquireReportSlot();
  void RecomputeDeliveryPath();

  Simulator* sim_;
  Database* db_;
  Channel* channel_;
  std::unique_ptr<ServerStrategy> strategy_;
  DeliveryModel* delivery_;
  ServerConfig config_;
  std::vector<MobileUnit*> units_;
  std::vector<const WakeIndex*> wake_indexes_;
  std::unique_ptr<PeriodicProcess> broadcaster_;
  ServerStats stats_;
  std::function<void(const Report&)> report_observer_;
  std::function<void(ReportDelivery)> delivery_sink_;
  DeliveryPath delivery_path_ = DeliveryPath::kFanOut;
  /// Recycled report storage: one slot per concurrently in-flight report
  /// (steady state: one). Handed out as shared_ptr<const Report> aliases,
  /// so a slot frees itself when its last consumer drops the reference.
  std::vector<std::shared_ptr<Report>> report_arena_;
  uint64_t deliveries_completed_ = 0;
  uint64_t intervals_since_prune_ = 0;
  double broadcast_wall_seconds_ = 0.0;
  UpdateGenerator* update_pump_ = nullptr;
  JournalRetention retention_floor_ = JournalRetention::kNone;
};

}  // namespace mobicache

#endif  // MOBICACHE_SERVER_SERVER_H_
