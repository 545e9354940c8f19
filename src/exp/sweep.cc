#include "exp/sweep.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "exp/cell.h"
#include "util/table.h"
#include "util/thread_pool.h"

namespace mobicache {

StrategyEval EvalStrategyModel(StrategyKind kind, const ModelParams& params) {
  switch (kind) {
    case StrategyKind::kTs:
    case StrategyKind::kAdaptiveTs:
      return EvalTs(params);
    case StrategyKind::kAt:
    case StrategyKind::kQuasiAt:
    case StrategyKind::kAsync:  // equivalent cost/behaviour to AT (§3.2)
      return EvalAt(params);
    case StrategyKind::kGroupedAt:
      // Per-group analytics need G; callers wanting them use EvalGroupedAt
      // directly. The per-item AT model is the G = n limit.
      return EvalAt(params);
    case StrategyKind::kSig:
    case StrategyKind::kHybridSig:  // approximate: cold-dominated workloads
      return EvalSig(params);
    case StrategyKind::kNoCache:
      return EvalNoCache(params);
    case StrategyKind::kIdeal:
    case StrategyKind::kStateful: {
      // The ideal strategy *defines* Tmax: effectiveness 1 at MHR.
      StrategyEval eval;
      eval.hit_ratio = MaximalHitRatio(params);
      eval.report_bits = 0.0;
      eval.throughput = MaxThroughput(params);
      eval.effectiveness = 1.0;
      return eval;
    }
  }
  return StrategyEval{};
}

StatusOr<SweepResult> RunScenarioSweep(PaperScenario scenario,
                                       const std::vector<StrategyKind>& kinds,
                                       const SweepOptions& options) {
  return RunScenarioSweepWithIdBits(scenario, kinds, options, /*id_bits=*/0);
}

namespace {

// One feasible (strategy, point) simulation cell, ready to run. Jobs are
// fully independent: the seed is a pure function of the grid position (kind,
// point index), and each job writes only its own slot in the results grid,
// so the parallel engine reproduces the sequential run byte for byte at any
// thread count.
struct SweepJob {
  size_t series_index = 0;
  size_t point_index = 0;
  CellConfig config;
};

// Builds, runs, and harvests one cell. `slot`/`status`/`timing` belong
// exclusively to this job. The cell's result is the same at every shard
// count (see exp/cell.h), and it reports the per-phase wall breakdown the
// bench JSON carries.
void RunSweepJob(const SweepJob& job, uint64_t warmup_intervals,
                 uint64_t measure_intervals, int shards,
                 std::optional<CellResult>* slot,
                 SweepResult::CellTiming* timing, Status* status) {
  const auto t0 = std::chrono::steady_clock::now();
  Cell cell(job.config, static_cast<uint32_t>(shards));
  Status s = cell.Build();
  if (s.ok()) s = cell.Run(warmup_intervals, measure_intervals);
  if (s.ok()) slot->emplace(cell.result());
  timing->wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  timing->server_seconds = cell.server_wall_seconds();
  timing->shard_seconds = cell.shard_phase_wall_seconds();
  timing->replay_seconds = cell.replay_wall_seconds();
  timing->replay_records = cell.replay_records();
  timing->update_seconds = cell.update_wall_seconds();
  if (slot->has_value()) timing->updates_applied = (*slot)->updates_applied;
  // A failed Build() leaves the cell without a database.
  if (Database* db = cell.db()) {
    timing->retention_class = JournalRetentionName(db->retention());
    timing->journal_bytes_peak = db->journal_bytes_peak();
  }
  if (!s.ok()) *status = std::move(s);
}

}  // namespace

StatusOr<SweepResult> RunScenarioSweepWithIdBits(
    PaperScenario scenario, const std::vector<StrategyKind>& kinds,
    const SweepOptions& options, uint64_t id_bits) {
  if (options.points < 2) {
    return Status::InvalidArgument("sweep needs at least 2 points");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0");
  }
  if (options.shards < 1) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  SweepResult result;
  result.scenario = scenario;
  const ScenarioSweep spec = ScenarioSweepSpec(scenario);
  result.sweeps_sleep = spec.sweeps_sleep;

  for (int i = 0; i < options.points; ++i) {
    const double x = spec.lo + (spec.hi - spec.lo) * static_cast<double>(i) /
                                   static_cast<double>(options.points - 1);
    result.xs.push_back(x);
  }

  // Pass 1 (serial, cheap): the analytic series, which also decides which
  // cells are feasible to simulate. Pre-sizes the measured grid so parallel
  // jobs can write their slots without coordination.
  std::vector<SweepJob> jobs;
  for (StrategyKind kind : kinds) {
    StrategySeries series;
    series.kind = kind;
    const bool analytic_only =
        std::find(options.analytic_only.begin(), options.analytic_only.end(),
                  kind) != options.analytic_only.end();
    for (size_t i = 0; i < result.xs.size(); ++i) {
      ModelParams params = ScenarioParams(scenario);
      params.id_bits_override = id_bits;
      if (spec.sweeps_sleep) {
        params.s = result.xs[i];
      } else {
        params.mu = result.xs[i];
      }
      series.analytic.push_back(EvalStrategyModel(kind, params));
      series.measured.emplace_back(std::nullopt);

      // Infeasible configurations (report larger than the interval's
      // capacity, e.g. TS in Scenarios 3-4) are not simulated: the protocol
      // cannot operate there, which is exactly why the paper omits them.
      if (!options.simulate || analytic_only ||
          !series.analytic.back().feasible) {
        continue;
      }
      SweepJob job;
      job.series_index = result.series.size();
      job.point_index = i;
      job.config.model = params;
      job.config.strategy = kind;
      job.config.num_units = options.num_units;
      job.config.hotspot_size = options.hotspot_size;
      job.config.seed = options.seed + 1000003ULL * i +
                        7919ULL * static_cast<uint64_t>(kind);
      SweepResult::CellTiming timing;
      timing.kind = kind;
      timing.x = result.xs[i];
      result.cell_timings.push_back(timing);
      jobs.push_back(std::move(job));
    }
    result.series.push_back(std::move(series));
  }

  // Pass 2: run the cells, fanned across the pool when it pays. Statuses are
  // collected per job and examined in grid order, so error reporting is as
  // deterministic as the results themselves. When each cell is itself
  // sharded across a LockstepGang, the cross-cell pool is narrowed so the
  // total thread count stays at `threads`.
  std::vector<Status> statuses(jobs.size());
  unsigned threads = options.threads == 0 ? ThreadPool::DefaultThreadCount()
                                          : static_cast<unsigned>(options.threads);
  if (options.shards > 1) {
    threads = std::max(1u, threads / static_cast<unsigned>(options.shards));
  }
  if (threads <= 1 || jobs.size() <= 1) {
    for (size_t j = 0; j < jobs.size(); ++j) {
      const SweepJob& job = jobs[j];
      RunSweepJob(job, options.warmup_intervals, options.measure_intervals,
                  options.shards,
                  &result.series[job.series_index].measured[job.point_index],
                  &result.cell_timings[j], &statuses[j]);
      if (!statuses[j].ok()) return statuses[j];
    }
  } else {
    ThreadPool pool(threads);
    for (size_t j = 0; j < jobs.size(); ++j) {
      const SweepJob& job = jobs[j];
      std::optional<CellResult>* slot =
          &result.series[job.series_index].measured[job.point_index];
      SweepResult::CellTiming* timing = &result.cell_timings[j];
      Status* status = &statuses[j];
      pool.Submit([&job, &options, slot, timing, status] {
        RunSweepJob(job, options.warmup_intervals, options.measure_intervals,
                    options.shards, slot, timing, status);
      });
    }
    pool.WaitAll();
    for (const Status& s : statuses) {
      if (!s.ok()) return s;
    }
  }

  for (const StrategySeries& series : result.series) {
    for (const auto& measured : series.measured) {
      if (!measured.has_value()) continue;
      ++result.simulated_cells;
      result.sim_events += measured->sim_events;
      result.quiet_report_intervals += measured->quiet_report_intervals;
      result.quiet_skipped_intervals += measured->quiet_skipped_intervals;
    }
  }
  return result;
}

void PrintSweepTables(const SweepResult& result, std::ostream& os) {
  const std::string x_name = result.sweeps_sleep ? "s" : "mu";
  bool has_sim = false;
  for (const StrategySeries& s : result.series) {
    for (const auto& m : s.measured) {
      if (m.has_value()) has_sim = true;
    }
  }

  auto build = [&](const char* what, auto analytic_of, auto measured_of) {
    std::vector<std::string> header{x_name};
    for (const StrategySeries& s : result.series) {
      const std::string name(StrategyName(s.kind));
      header.push_back(name + ".model");
      if (has_sim) header.push_back(name + ".sim");
    }
    TablePrinter table(std::move(header));
    for (size_t i = 0; i < result.xs.size(); ++i) {
      std::vector<std::string> row{TablePrinter::Num(result.xs[i], 6)};
      for (const StrategySeries& s : result.series) {
        row.push_back(analytic_of(s.analytic[i]));
        if (has_sim) {
          row.push_back(s.measured[i].has_value()
                            ? measured_of(*s.measured[i])
                            : std::string("-"));
        }
      }
      table.AddRow(std::move(row));
    }
    os << what << "\n";
    table.RenderText(os);
    os << "\n";
  };

  build(
      "Effectiveness e = T / Tmax",
      [](const StrategyEval& e) {
        return e.feasible ? TablePrinter::Num(e.effectiveness)
                          : std::string("infeasible");
      },
      [](const CellResult& r) {
        return r.feasible ? TablePrinter::Num(r.effectiveness)
                          : std::string("infeasible");
      });
  build(
      "Hit ratio h",
      [](const StrategyEval& e) { return TablePrinter::Num(e.hit_ratio); },
      [](const CellResult& r) { return TablePrinter::Num(r.hit_ratio); });
}

void WriteSweepCsv(const SweepResult& result, std::ostream& os) {
  std::vector<std::string> header{result.sweeps_sleep ? "s" : "mu"};
  for (const StrategySeries& s : result.series) {
    const std::string name(StrategyName(s.kind));
    for (const char* metric : {"e", "h", "bc"}) {
      header.push_back(name + ".model." + metric);
      header.push_back(name + ".sim." + metric);
    }
  }
  TablePrinter table(std::move(header));
  for (size_t i = 0; i < result.xs.size(); ++i) {
    std::vector<std::string> row{TablePrinter::Num(result.xs[i], 8)};
    for (const StrategySeries& s : result.series) {
      const StrategyEval& model = s.analytic[i];
      const auto& sim = s.measured[i];
      auto cell = [](bool ok, double v) {
        return ok ? TablePrinter::Num(v, 8) : std::string();
      };
      row.push_back(cell(model.feasible, model.effectiveness));
      row.push_back(cell(sim.has_value(), sim ? sim->effectiveness : 0));
      row.push_back(cell(true, model.hit_ratio));
      row.push_back(cell(sim.has_value(), sim ? sim->hit_ratio : 0));
      row.push_back(cell(true, model.report_bits));
      row.push_back(cell(sim.has_value(), sim ? sim->avg_report_bits : 0));
    }
    table.AddRow(std::move(row));
  }
  table.RenderCsv(os);
}

}  // namespace mobicache
