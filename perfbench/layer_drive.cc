#include "layer_drive.h"

#include <algorithm>
#include <memory>
#include <variant>
#include <vector>

#include "core/cache.h"
#include "core/report.h"
#include "db/database.h"
#include "exp/strategy_factory.h"
#include "mu/hotspot.h"
#include "sig/signature.h"
#include "sim/simulator.h"
#include "util/random.h"

namespace perfbench {

using mobicache::CellConfig;
using mobicache::ClientCache;
using mobicache::ClientCacheManager;
using mobicache::ClientSignatureView;
using mobicache::Database;
using mobicache::ItemId;
using mobicache::Report;
using mobicache::Rng;
using mobicache::ServerStrategy;
using mobicache::SignatureFamily;
using mobicache::SigReport;
using mobicache::SimTime;
using mobicache::Simulator;

namespace {

// Every part runs at least this many calls, however short `part_seconds`.
constexpr uint64_t kMinIntervals = 2;
constexpr uint64_t kDrawBatch = 1 << 16;

/// One strategy's server/client pair, fed by a shared database.
struct StrategyPair {
  CellConfig config;
  std::unique_ptr<SignatureFamily> family;
  std::unique_ptr<ServerStrategy> server;
  std::unique_ptr<ClientCacheManager> client;
  ClientCache cache;
  Report report;
  double build_s = 0.0;
  double client_s = 0.0;
};

/// Builds reports interval by interval for TS, AT and SIG over one database
/// whose Poisson update stream runs at the workload's rate, and applies
/// each report to an always-awake client holding its whole hot spot.
mobicache::Status DriveStrategies(const Workload& w, uint64_t seed,
                                  double part_seconds, Tracer* tracer,
                                  LayerDriveResult* out) {
  ScopedSpan span(tracer, "layer_drive.strategies");
  const ModelParams& m = w.model;
  Database db(m.n, seed);
  db.SetJournalBucketWidth(m.L);
  // TS and AT read raw journal windows; SIG reads its update feed.
  db.SetRetention(mobicache::JournalRetention::kFullWindow);
  const std::vector<ItemId> hotspot =
      mobicache::ContiguousHotSpot(m.n, 0, w.hotspot_size);

  const StrategyKind kinds[3] = {StrategyKind::kTs, StrategyKind::kAt,
                                 StrategyKind::kSig};
  std::vector<std::unique_ptr<StrategyPair>> pairs;
  SimTime horizon = 0.0;
  for (StrategyKind kind : kinds) {
    auto p = std::make_unique<StrategyPair>();
    p->config.model = m;
    p->config.strategy = kind;
    p->config.num_units = 1;
    p->config.hotspot_size = w.hotspot_size;
    p->config.seed = seed;
    MOBICACHE_RETURN_IF_ERROR(mobicache::NormalizeCellConfig(&p->config));
    p->family = mobicache::MakeSignatureFamilyForCell(p->config, seed + 1);
    mobicache::StrategyFactoryContext ctx;
    ctx.config = &p->config;
    ctx.sizes = mobicache::ComputeMessageSizes(m);
    ctx.db = &db;
    ctx.family = p->family.get();
    p->server = mobicache::MakeServerStrategy(ctx);
    p->server->AttachUpdateFeed(&db);
    p->client = mobicache::MakeClientManager(ctx, hotspot);
    horizon = std::max(horizon, p->server->JournalHorizonSeconds());
    pairs.push_back(std::move(p));
  }
  ClientSignatureView diagnose_view(pairs[2]->family.get(), hotspot);
  double diagnose_s = 0.0;

  Rng rng(seed ^ 0x5bd1e995ULL);
  const double update_rate = m.mu * static_cast<double>(m.n);
  SimTime next_update = rng.Exponential(update_rate);
  std::vector<ItemId> ids;
  std::vector<SimTime> times;
  const double start = NowSeconds();
  uint64_t intervals = 0;
  while (intervals < kMinIntervals || NowSeconds() - start < part_seconds) {
    ++intervals;
    const SimTime now = static_cast<double>(intervals) * m.L;
    ids.clear();
    times.clear();
    while (next_update < now) {
      ids.push_back(static_cast<ItemId>(rng.NextUint64(m.n)));
      times.push_back(next_update);
      next_update += rng.Exponential(update_rate);
    }
    db.ApplyUpdateBatch(ids.data(), times.data(), ids.size());

    for (auto& p : pairs) {
      double t0 = NowSeconds();
      p->server->BuildReportInto(now, intervals, &p->report);
      p->build_s += NowSeconds() - t0;
      t0 = NowSeconds();
      p->client->OnReport(p->report, &p->cache);
      p->client_s += NowSeconds() - t0;
      if (const auto* sig = std::get_if<SigReport>(&p->report)) {
        t0 = NowSeconds();
        diagnose_view.DiagnoseAndAdopt(sig->combined, hotspot);
        diagnose_s += NowSeconds() - t0;
      }
      for (ItemId id : hotspot) {
        if (p->cache.Get(id) == nullptr) {
          p->client->OnUplinkFetch(id, db.ValueOf(id), now, &p->cache);
        }
      }
    }
    if (intervals % 8 == 0) db.PruneJournalBefore(now - horizon);
  }
  db.SetUpdateObserver(nullptr);
  db.ClearExtraObservers();

  const double per_call_ns = 1e9 / static_cast<double>(intervals);
  for (size_t k = 0; k < pairs.size(); ++k) {
    out->build_report_ns[k] = pairs[k]->build_s * per_call_ns;
    out->client_report_ns[k] = pairs[k]->client_s * per_call_ns;
  }
  out->sig_diagnose_ns = diagnose_s * per_call_ns;
  return mobicache::Status::OK();
}

/// Hold model: `pending` events stay queued; each one, when dispatched,
/// schedules its successor an exponential gap later.
struct HoldState {
  Simulator* sim;
  Rng rng;
  uint64_t dispatched = 0;
};

struct HoldEvent {
  HoldState* state;
  void operator()() const {
    ++state->dispatched;
    state->sim->ScheduleAt(state->sim->Now() + state->rng.Exponential(1.0),
                           HoldEvent{state});
  }
};

void DriveDispatch(const Workload& w, uint64_t seed, double part_seconds,
                   Tracer* tracer, LayerDriveResult* out) {
  ScopedSpan span(tracer, "layer_drive.dispatch");
  // One engine's heap holds a ticker and at most one arrival per unit.
  const uint64_t pending = std::max<uint64_t>(1, 2 * w.units / w.shards);
  Simulator sim;
  sim.Reserve(pending + 16);
  HoldState state{&sim, Rng(seed), 0};
  for (uint64_t i = 0; i < pending; ++i) {
    sim.ScheduleAt(state.rng.Exponential(1.0), HoldEvent{&state});
  }
  // Each unit of simulated time dispatches ~`pending` events; advance in
  // steps of ~64K events.
  const double step = 65536.0 / static_cast<double>(pending);
  double horizon = 0.0;
  double busy_s = 0.0;
  const double start = NowSeconds();
  while (state.dispatched < kMinIntervals * 65536 ||
         NowSeconds() - start < part_seconds) {
    horizon += step;
    const double t0 = NowSeconds();
    sim.RunUntil(horizon);
    busy_s += NowSeconds() - t0;
  }
  out->dispatch_ns = busy_s * 1e9 / static_cast<double>(state.dispatched);
}

volatile double g_draw_sink = 0.0;

void DriveExponential(const Workload& w, uint64_t seed, double part_seconds,
                      Tracer* tracer, LayerDriveResult* out) {
  ScopedSpan span(tracer, "layer_drive.exp_draw");
  // A unit's arrival rate over its hot spot.
  const double rate =
      w.model.lambda * static_cast<double>(w.hotspot_size);
  Rng rng(seed);
  double sum = 0.0;
  uint64_t draws = 0;
  const double start = NowSeconds();
  double elapsed = 0.0;
  while (draws < kMinIntervals * kDrawBatch || elapsed < part_seconds) {
    for (uint64_t i = 0; i < kDrawBatch; ++i) sum += rng.Exponential(rate);
    draws += kDrawBatch;
    elapsed = NowSeconds() - start;
  }
  g_draw_sink = sum;
  out->exp_draw_ns = elapsed * 1e9 / static_cast<double>(draws);
}

}  // namespace

mobicache::Status RunLayerDrive(const Workload& w, uint64_t seed,
                                double part_seconds, Tracer* tracer,
                                LayerDriveResult* out) {
  MOBICACHE_RETURN_IF_ERROR(
      DriveStrategies(w, seed, part_seconds, tracer, out));
  DriveDispatch(w, seed, part_seconds, tracer, out);
  DriveExponential(w, seed, part_seconds, tracer, out);
  return mobicache::Status::OK();
}

}  // namespace perfbench
