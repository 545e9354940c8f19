// The stationary data server of one cell (the MSS-attached server of §1-§2):
// owns the broadcast schedule, builds reports through its ServerStrategy,
// transmits them on the shared channel (optionally through a §9 delivery
// model with contention jitter), hands each completed transmission to a
// delivery sink, and accounts uplink cache-miss queries.
//
// Broadcast cost tracks *listeners*, not wall intervals: the server recycles
// report storage through a small arena and — when the attached wake indexes
// show every unit sleeping through an interval's entire transmission —
// elides the report build altogether while keeping every statistic, channel
// counter, and strategy state byte-identical (quiet-interval elision; see
// Broadcast()). Every interval still runs as its own broadcast tick and
// consumption event, elided or not, and elision never touches the journal:
// how each journal bucket is stored is fixed by the retention class Start()
// arms (see JournalRetention).

#ifndef MOBICACHE_SERVER_SERVER_H_
#define MOBICACHE_SERVER_SERVER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/report.h"
#include "core/strategy.h"
#include "db/database.h"
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
  /// materialization for intervals no attached unit can hear.
  /// Observable behaviour is byte-identical either way; the equivalence
  /// tests force it off to prove that.
  bool quiet_elision = true;
};

struct ServerStats {
  uint64_t reports_broadcast = 0;
  uint64_t uplink_queries_served = 0;
  OnlineStats report_bits;       ///< Per-report size distribution (Bc).
  OnlineStats report_air_seconds;///< Per-report airtime.
};

class Server {
 public:
  /// `delivery` may be null, meaning ideal periodic timing with zero jitter.
  Server(Simulator* sim, Database* db, Channel* channel,
         std::unique_ptr<ServerStrategy> strategy, DeliveryModel* delivery,
         ServerConfig config);

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server();

  /// Registers a wake index over some of the cell's units. The server
  /// elides an interval when the attached indexes together show every unit
  /// asleep through its transmission. The cell attaches one index per
  /// shard. Call before Start().
  void AttachWakeIndex(const WakeIndex* index);

  /// Attaches a batched update generator as the server's update pump. The
  /// server then drains pending updates at every point a server-phase
  /// reader can first observe database state — the broadcast head (before
  /// the report build) and the delivery-consumption instant — so every
  /// reader sees the database trajectory of the per-event interleaving. The
  /// cell adds one more pump at its window barrier. Call before Start().
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

  /// Performs the server-side bookkeeping of one uplink query — strategy
  /// notification, uplink/answer channel charges, stats — without reading
  /// the item value. The cell replays shard-logged queries through this at
  /// the interval barrier (values were already served shard-side).
  void AccountUplinkQuery(const UplinkQueryInfo& info);

  /// One completed report transmission, as observed at the instant units
  /// consume it. `report` is null for an elided quiet interval (no unit
  /// could hear it; the sink owner counts it quiet and skipped).
  struct ReportDelivery {
    std::shared_ptr<const Report> report;
    double listen_seconds = 0.0;  ///< Tuning cost for a unit that listens.
    SimTime done = 0.0;           ///< Transmission-complete time.
  };

  /// Installs the delivery sink: every completed report transmission is
  /// handed to it. The cell collects each interval's deliveries this way
  /// and replays them inside every shard's own simulator. The sink runs
  /// inside the delivery-completion event, at Now() == delivery.done.
  void SetDeliverySink(std::function<void(ReportDelivery)> sink) {
    delivery_sink_ = std::move(sink);
  }

  /// Zeroes the accumulated statistics (used after warm-up).
  void ResetStats() { stats_ = ServerStats(); }

  ServerStrategy* strategy() { return strategy_.get(); }
  const ServerStats& stats() const { return stats_; }
  const ServerConfig& config() const { return config_; }

 private:
  void Broadcast(uint64_t interval);
  /// Transmits and schedules consumption. `report` may be null (elided
  /// quiet interval: all bookkeeping, nothing to hear). `duration` is
  /// channel_->Duration(bits), computed once in Broadcast.
  void Deliver(std::shared_ptr<const Report> report, uint64_t bits,
               double jitter, double duration);
  /// The delivery-consumption event: drains updates due before `done`, then
  /// hands the delivery to the sink. Runs as the event Deliver scheduled,
  /// at Now() == done.
  void ConsumeDelivery(std::shared_ptr<const Report> report, double listen,
                       SimTime done);
  /// Grabs a free arena slot (use_count == 1 means no in-flight delivery
  /// still references it), growing the arena only until the steady state's
  /// maximum in-flight count is covered.
  std::shared_ptr<Report>& AcquireReportSlot();

  Simulator* sim_;
  Database* db_;
  Channel* channel_;
  std::unique_ptr<ServerStrategy> strategy_;
  DeliveryModel* delivery_;
  ServerConfig config_;
  std::vector<const WakeIndex*> wake_indexes_;
  std::unique_ptr<PeriodicProcess> broadcaster_;
  ServerStats stats_;
  std::function<void(ReportDelivery)> delivery_sink_;
  /// Recycled report storage: one slot per concurrently in-flight report
  /// (steady state: one). Handed out as shared_ptr<const Report> aliases,
  /// so a slot frees itself when its last consumer drops the reference.
  std::vector<std::shared_ptr<Report>> report_arena_;
  uint64_t intervals_since_prune_ = 0;
  UpdateGenerator* update_pump_ = nullptr;
  JournalRetention retention_floor_ = JournalRetention::kNone;
};

}  // namespace mobicache

#endif  // MOBICACHE_SERVER_SERVER_H_
