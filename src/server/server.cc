#include "server/server.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "db/update_generator.h"

namespace mobicache {

Server::Server(Simulator* sim, Database* db, Channel* channel,
               std::unique_ptr<ServerStrategy> strategy,
               DeliveryModel* delivery, ServerConfig config)
    : sim_(sim),
      db_(db),
      channel_(channel),
      strategy_(std::move(strategy)),
      delivery_(delivery),
      config_(config) {
  assert(config_.latency > 0.0);
  assert(config_.journal_prune_period_intervals >= 1);
}

Server::~Server() { Stop(); }

void Server::AttachWakeIndex(const WakeIndex* index) {
  assert(index != nullptr);
  assert(broadcaster_ == nullptr && "attach wake indexes before Start()");
  wake_indexes_.push_back(index);
}

void Server::SetUpdatePump(UpdateGenerator* pump) {
  assert(broadcaster_ == nullptr && "attach the update pump before Start()");
  update_pump_ = pump;
}

Status Server::Start() {
  if (broadcaster_ != nullptr) {
    return Status::FailedPrecondition("server already started");
  }
  // Bucket the journal by broadcast interval so report builders splice
  // sealed per-interval digests instead of re-scanning their window, and
  // let incremental strategies tap the update stream directly.
  db_->SetJournalBucketWidth(config_.latency);
  // Arm the retention class the strategy declared (possibly raised by an
  // instrumentation floor): no journal at all for strategies that never
  // read update history, full raw retention otherwise.
  db_->SetRetention(std::max(strategy_->retention(), retention_floor_));
  strategy_->AttachUpdateFeed(db_);
  broadcaster_ = std::make_unique<PeriodicProcess>(
      sim_, sim_->Now(), config_.latency,
      [this](uint64_t interval) { Broadcast(interval); });
  return broadcaster_->Start();
}

void Server::Stop() {
  if (broadcaster_ != nullptr) broadcaster_->Stop();
}

std::shared_ptr<Report>& Server::AcquireReportSlot() {
  // use_count == 1 means only the arena holds the slot: the previous
  // delivery's consumption event has dropped its reference, so the Report's
  // payload vectors (their heap capacity intact) can be refilled in place.
  for (std::shared_ptr<Report>& slot : report_arena_) {
    if (slot.use_count() == 1) return slot;
  }
  // One-time arena growth, cold by construction: every warm interval finds
  // a reusable slot above. detlint:allow(alloc-event-path)
  report_arena_.push_back(std::make_shared<Report>());
  return report_arena_.back();
}

void Server::Broadcast(uint64_t interval) {
  // Update drain: everything strictly before this broadcast instant
  // becomes visible before the report builds.
  if (update_pump_ != nullptr) {
    update_pump_->GenerateIntervalUpdates(sim_->Now(), /*inclusive=*/false);
  }
  const SimTime now = sim_->Now();
  // The jitter draw moved ahead of the report build: the delivery model owns
  // a private RNG stream, so the draw order relative to the (draw-free)
  // build is unobservable — and elision needs the jitter before deciding.
  const double jitter = delivery_ == nullptr ? 0.0 : delivery_->SampleJitter();

  // Keep as much journal as the strategy's window needs, plus slack. Pruning
  // is batched (journal_prune_period_intervals): the cutoff always trails the
  // build window, so pruning less often — or before the build — only retains
  // extra history and changes no windowed read.
  if (++intervals_since_prune_ >= config_.journal_prune_period_intervals) {
    intervals_since_prune_ = 0;
    const SimTime horizon =
        strategy_->JournalHorizonSeconds() +
        config_.latency * static_cast<double>(config_.journal_slack_intervals);
    if (now > horizon) db_->PruneJournalBefore(now - horizon);
  }

  // Quiet-interval elision (the "sleepers" fast path): if every attached
  // unit is asleep now and none wakes before this transmission completes,
  // the report is pure downlink accounting — no unit or jittered
  // re-delivery will ever read it. The report is still built (the strategy
  // advances exactly as in a heard interval and the bit size is exact), so
  // every counter stays byte-identical to the delivered run; only the
  // delivery and its fan-out are skipped.
  bool quiet_candidate = config_.quiet_elision && jitter <= 0.0 &&
                         !wake_indexes_.empty();
  SimTime wake_horizon = std::numeric_limits<SimTime>::infinity();
  if (quiet_candidate) {
    uint64_t awake = 0;
    for (const WakeIndex* index : wake_indexes_) {
      awake += index->awake_count();
      wake_horizon = std::min(wake_horizon, index->NextWakeFrom(interval));
    }
    quiet_candidate = awake == 0;
  }

  std::shared_ptr<Report>& slot = AcquireReportSlot();
  strategy_->BuildReportInto(now, interval, slot.get());
  const uint64_t bits = ReportSizeBits(*slot, config_.sizes);
  const double duration = channel_->Duration(bits);

  ++stats_.reports_broadcast;
  stats_.report_bits.Add(static_cast<double>(bits));
  stats_.report_air_seconds.Add(duration);

  // A unit that wakes mid-transmission (or exactly at its end) still hears
  // the report, so only a first wake past the end lets the server hand the
  // sink a null one.
  if (quiet_candidate && wake_horizon > now + duration) {
    Deliver(nullptr, bits, 0.0, duration);
  } else if (jitter <= 0.0) {
    Deliver(slot, bits, 0.0, duration);
  } else {
    std::shared_ptr<const Report> report = slot;
    sim_->ScheduleAfter(jitter, [this, report = std::move(report), bits,
                                 jitter, duration] {
      Deliver(report, bits, jitter, duration);
    });
  }
}

void Server::Deliver(std::shared_ptr<const Report> report, uint64_t bits,
                     double jitter, double duration) {
  // The server owns the downlink schedule: the report claims the head of
  // the interval rather than queueing behind pending query traffic. An
  // elided (null) report still transmits — channel accounting is identical
  // whether anyone listens or not.
  const SimTime done =
      channel_->Transmit(bits, TrafficClass::kReport, /*preempt=*/true);
  const double listen =
      delivery_ == nullptr ? duration
                           : delivery_->ListenSeconds(jitter, duration);
  // Units consume the report when its transmission completes. Elided
  // intervals reach the sink through this event too, so stats resets and
  // run-end truncation bin them exactly like materialized ones.
  sim_->ScheduleAt(done, [this, report = std::move(report), listen, done] {
    if (delivery_sink_) delivery_sink_(ReportDelivery{report, listen, done});
  });
}

void Server::AccountUplinkQuery(const UplinkQueryInfo& info) {
  assert(info.id < db_->size());
  strategy_->OnUplinkQuery(info);
  const uint64_t extra = strategy_->UplinkExtraBits(info);
  channel_->Transmit(config_.sizes.bq + extra, TrafficClass::kUplinkQuery);
  channel_->Transmit(config_.sizes.ba, TrafficClass::kDownlinkAnswer);
  ++stats_.uplink_queries_served;
}

}  // namespace mobicache
