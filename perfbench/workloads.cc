#include "workloads.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "exp/megacell.h"
#include "exp/sweep.h"

namespace perfbench {

using mobicache::Cell;
using mobicache::CellConfig;
using mobicache::Database;
using mobicache::ItemId;
using mobicache::MegaCell;
using mobicache::MegaCellConfig;
using mobicache::MobileUnit;
using mobicache::ScenarioParams;
using mobicache::SimTime;
using mobicache::StatusOr;
using mobicache::SweepOptions;
using mobicache::SweepResult;

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

int Tracer::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_s = NowSeconds();
  span.parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int id) {
  spans_[static_cast<size_t>(id)].end_s = NowSeconds();
  open_.pop_back();
}

namespace {

/// The cell workloads share the workload shape of bench/sleepers and
/// bench/megacell: a 10^4-item database, an 8-item shared hot spot and
/// ~0.8 queries per awake unit-interval.
ModelParams FleetModel() {
  ModelParams m;
  m.n = 10000;
  m.lambda = 0.01;
  m.mu = 1e-4;
  m.L = 10.0;
  return m;
}

CellConfig FleetCellConfig(const Workload& w, double s, uint64_t seed) {
  CellConfig cc;
  cc.model = w.model;
  cc.model.s = s;
  cc.strategy = StrategyKind::kTs;
  cc.num_units = w.units;
  cc.hotspot_size = w.hotspot_size;
  cc.seed = seed;
  return cc;
}

CellOutcome Outcome(const Workload& w, const CellResult& r, uint64_t units) {
  CellOutcome c;
  c.result = r;
  c.units = units;
  c.intervals = w.warmup + w.measure;
  c.digest = CellDigest(r);
  return c;
}

void RunSweepRep(const Workload& w, uint64_t seed, const RepSettings& settings,
                 Tracer* tracer, RepResult* rep) {
  SweepOptions o;
  o.points = w.points;
  o.warmup_intervals = w.warmup;
  o.measure_intervals = w.measure;
  o.num_units = w.units;
  o.hotspot_size = w.hotspot_size;
  o.seed = seed;
  o.threads = settings.threads;
  o.shards = static_cast<int>(settings.shards);
  o.analytic_only = w.analytic_only;

  const uint64_t allocs0 = HeapAllocations();
  const double t0 = NowSeconds();
  StatusOr<SweepResult> sweep = [&] {
    ScopedSpan span(tracer, "RunScenarioSweep");
    return mobicache::RunScenarioSweep(w.scenario, w.kinds, o);
  }();
  rep->acct.run_s = NowSeconds() - t0;
  rep->acct.heap_allocs = HeapAllocations() - allocs0;
  if (!sweep.ok()) {
    rep->status = sweep.status();
    return;
  }
  // Grid order: strategy-major, then sweep point — the order of
  // cell_timings as well.
  for (const auto& series : sweep->series) {
    for (const auto& measured : series.measured) {
      if (measured.has_value()) {
        rep->cells.push_back(Outcome(w, *measured, w.units));
      }
    }
  }
  for (const SweepResult::CellTiming& t : sweep->cell_timings) {
    rep->acct.setup_s += t.wall_seconds - t.server_seconds - t.shard_seconds -
                         t.replay_seconds;
    rep->acct.server_phase_s += t.server_seconds;
    rep->acct.shard_phase_s += t.shard_seconds;
    rep->acct.replay_s += t.replay_seconds;
    rep->acct.update_drain_s += t.update_seconds;
    rep->acct.replay_records += t.replay_records;
    rep->acct.journal_bytes_peak =
        std::max(rep->acct.journal_bytes_peak, t.journal_bytes_peak);
  }
  if (rep->cells.size() != sweep->cell_timings.size()) {
    rep->status = mobicache::Status::Internal("sweep cell count mismatch");
  }
}

/// Counts cache hits whose answered value differs from the database's value
/// at the answer's validity time (as tests/integration_test.cc does).
void AttachAnswerAudit(Cell* cell, CellOutcome* counts) {
  Database* db = cell->db();
  for (MobileUnit* unit : cell->units()) {
    unit->SetAnswerObserver(
        [db, counts](ItemId id, uint64_t value, SimTime validity_ts, bool hit) {
          if (!hit) return;
          ++counts->audited_hits;
          if (value != db->ValueAt(id, validity_ts)) ++counts->stale_answers;
        });
  }
}

void RunCellRep(const Workload& w, uint64_t seed, const RepSettings& settings,
                Tracer* tracer, RepResult* rep) {
  for (double s : w.sleep_probs) {
    CellConfig config = FleetCellConfig(w, s, seed);
    if (settings.audit_answers) {
      // The shared hot spot is items [0, hotspot_size).
      config.update_rates.assign(config.model.n, config.model.mu);
      std::fill_n(config.update_rates.begin(), w.hotspot_size,
                  kAuditHotUpdateRate);
    }
    Cell cell(std::move(config));
    double t0 = NowSeconds();
    Status st = [&] {
      ScopedSpan span(tracer, "Cell::Build");
      return cell.Build();
    }();
    rep->acct.setup_s += NowSeconds() - t0;
    if (!st.ok()) {
      rep->status = st;
      return;
    }
    CellOutcome audit;
    if (settings.audit_answers) AttachAnswerAudit(&cell, &audit);
    const uint64_t allocs0 = HeapAllocations();
    t0 = NowSeconds();
    st = [&] {
      ScopedSpan span(tracer, "Cell::Run");
      return cell.Run(w.warmup, w.measure);
    }();
    rep->acct.run_s += NowSeconds() - t0;
    rep->acct.heap_allocs += HeapAllocations() - allocs0;
    if (!st.ok()) {
      rep->status = st;
      return;
    }
    rep->acct.server_phase_s += cell.server_wall_seconds();
    rep->acct.update_drain_s += cell.update_wall_seconds();
    rep->acct.journal_bytes_peak =
        std::max(rep->acct.journal_bytes_peak, cell.db()->journal_bytes_peak());
    rep->cells.push_back(Outcome(w, cell.result(), w.units));
    rep->cells.back().audited_hits = audit.audited_hits;
    rep->cells.back().stale_answers = audit.stale_answers;
  }
}

void RunMegaCellRep(const Workload& w, uint64_t seed,
                    const RepSettings& settings, Tracer* tracer,
                    RepResult* rep) {
  for (double s : w.sleep_probs) {
    MegaCellConfig mc;
    mc.cell = FleetCellConfig(w, s, seed);
    mc.num_shards = settings.shards;
    MegaCell cell(std::move(mc));
    double t0 = NowSeconds();
    Status st = [&] {
      ScopedSpan span(tracer, "MegaCell::Build");
      return cell.Build();
    }();
    rep->acct.setup_s += NowSeconds() - t0;
    if (!st.ok()) {
      rep->status = st;
      return;
    }
    const uint64_t allocs0 = HeapAllocations();
    t0 = NowSeconds();
    st = [&] {
      ScopedSpan span(tracer, "MegaCell::Run");
      return cell.Run(w.warmup, w.measure);
    }();
    rep->acct.run_s += NowSeconds() - t0;
    rep->acct.heap_allocs += HeapAllocations() - allocs0;
    if (!st.ok()) {
      rep->status = st;
      return;
    }
    rep->acct.server_phase_s += cell.server_wall_seconds();
    rep->acct.shard_phase_s += cell.shard_phase_wall_seconds();
    rep->acct.replay_s += cell.replay_wall_seconds();
    rep->acct.update_drain_s += cell.update_wall_seconds();
    rep->acct.replay_records += cell.replay_records();
    double lane_sum = 0.0;
    for (const auto& shard : cell.shard_stats()) lane_sum += shard.wall_seconds;
    const auto lanes = static_cast<double>(cell.shard_stats().size());
    rep->acct.shard_wait_s +=
        cell.shard_phase_wall_seconds() - (lanes > 0 ? lane_sum / lanes : 0.0);
    rep->acct.journal_bytes_peak =
        std::max(rep->acct.journal_bytes_peak, cell.db()->journal_bytes_peak());
    rep->cells.push_back(Outcome(w, cell.result(), w.units));
  }
}

}  // namespace

std::vector<Workload> AllWorkloads(bool smoke) {
  std::vector<Workload> out;

  // Client-bound: the Fig. 3 strategy comparison. Nearly all of its wall is
  // the shard (client) phase, SIG cells most of all.
  Workload fig3;
  fig3.name = "fig3-client";
  fig3.engine = Engine::kSweep;
  fig3.scenario = PaperScenario::kScenario1;
  fig3.model = ScenarioParams(fig3.scenario);
  fig3.kinds = {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
                StrategyKind::kNoCache};
  fig3.points = smoke ? 2 : 11;
  fig3.units = smoke ? 4 : 20;
  fig3.warmup = smoke ? 2 : 50;
  fig3.measure = smoke ? 10 : 1500;
  fig3.threads = smoke ? 2 : 4;
  out.push_back(fig3);

  // Update-bound: Fig. 6's no-caching cells over a 10^6-item database,
  // whose wall is almost entirely the batched update drain. SIG and AT stay
  // analytic-only, as in bench/fig6_scenario4; TS is infeasible.
  Workload fig6;
  fig6.name = "fig6-update";
  fig6.engine = Engine::kSweep;
  fig6.scenario = PaperScenario::kScenario4;
  fig6.model = ScenarioParams(fig6.scenario);
  fig6.kinds = {StrategyKind::kTs, StrategyKind::kAt, StrategyKind::kSig,
                StrategyKind::kNoCache};
  fig6.analytic_only = {StrategyKind::kSig, StrategyKind::kAt};
  fig6.points = smoke ? 2 : 6;
  fig6.units = 10;
  fig6.warmup = smoke ? 1 : 2;
  fig6.measure = smoke ? 2 : 10;
  // One worker: the drain is memory-bound, and parallel cells contending
  // for memory bandwidth make the wall far noisier.
  fig6.threads = 1;
  out.push_back(fig6);

  // Sleep and fan-out bound: a large TS population on the classic Cell
  // engine, across three awake shares.
  Workload fleet;
  fleet.name = "sleepers-fleet";
  fleet.engine = Engine::kCell;
  fleet.model = FleetModel();
  fleet.sleep_probs = {0.5, 0.9, 0.99};
  fleet.units = smoke ? 1000 : 100000;
  fleet.hotspot_size = 8;
  fleet.warmup = smoke ? 1 : 2;
  fleet.measure = smoke ? 4 : 10;
  out.push_back(fleet);

  // Intra-cell scaling: one large cell on the lockstep shard gang, the only
  // workload that runs the barrier replay-merge at more than 1 shard.
  // 5 x 10^5 units keep the process under ~1 GB.
  Workload mega;
  mega.name = "megacell-4shard";
  mega.engine = Engine::kMegaCell;
  mega.model = FleetModel();
  mega.sleep_probs = {0.3};
  mega.units = smoke ? 2000 : 500000;
  mega.hotspot_size = 8;
  mega.warmup = smoke ? 1 : 2;
  mega.measure = smoke ? 3 : 6;
  mega.shards = 4;
  out.push_back(mega);

  return out;
}

RepSettings TimedSettings(const Workload& w) {
  RepSettings s;
  s.threads = w.threads;
  s.shards = w.shards;
  return s;
}

RepResult RunRep(const Workload& w, uint64_t seed, const RepSettings& settings,
                 Tracer* tracer) {
  RepResult rep;
  switch (w.engine) {
    case Engine::kSweep:
      RunSweepRep(w, seed, settings, tracer, &rep);
      break;
    case Engine::kCell:
      RunCellRep(w, seed, settings, tracer, &rep);
      break;
    case Engine::kMegaCell:
      RunMegaCellRep(w, seed, settings, tracer, &rep);
      break;
  }
  return rep;
}

uint64_t CellDigest(const CellResult& r) {
  // FNV-1a over the deterministic counters, in a fixed order.
  const uint64_t fields[] = {
      r.queries_answered,
      r.hits,
      r.misses,
      r.reports_heard,
      r.reports_missed,
      r.items_invalidated,
      r.updates_applied,
      r.channel.report_bits,
      r.channel.uplink_query_bits,
      r.channel.downlink_answer_bits,
      r.channel.report_count,
      r.channel.uplink_query_count,
      r.channel.downlink_answer_count,
  };
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t v : fields) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

std::vector<std::string> CheckCell(const CellOutcome& cell) {
  const CellResult& r = cell.result;
  std::vector<std::string> bad;
  if (r.hits + r.misses != r.queries_answered) {
    bad.push_back("hits + misses != queries answered");
  }
  if (r.updates_applied == 0) bad.push_back("no update applied");
  if (r.quiet_skipped_intervals > r.quiet_report_intervals) {
    bad.push_back("more quiet intervals skipped than seen");
  }
  if (r.channel.report_count != r.reports_broadcast) {
    bad.push_back("channel report count != reports broadcast");
  }
  // Every unit hears or misses each completed delivery once. A report still
  // on the air when a phase ends (a long TS report on a narrow channel) is
  // delivered in the next phase, so deliveries and broadcasts can differ by
  // one.
  const uint64_t decisions = r.reports_heard + r.reports_missed;
  const uint64_t deliveries = decisions / cell.units;
  if (decisions % cell.units != 0 || deliveries + 1 < r.reports_broadcast ||
      deliveries > r.reports_broadcast + 1) {
    bad.push_back("reports heard + missed != one per unit per delivery");
  }
  if (!(r.hit_ratio >= 0.0 && r.hit_ratio <= 1.0)) {
    bad.push_back("hit ratio outside [0, 1]");
  }
  if (cell.stale_answers > 0) {
    bad.push_back(std::to_string(cell.stale_answers) + " of " +
                  std::to_string(cell.audited_hits) + " audited hits stale");
  }
  return bad;
}

}  // namespace perfbench
