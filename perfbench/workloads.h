// Workload definitions and the single-repetition driver of the perfbench
// runner. Each workload drives the simulator through one public entry point
// (RunScenarioSweep, Cell or MegaCell) with parameters chosen to stress one
// regime of the paper; see README.md for why each one exists.

#ifndef MOBICACHE_PERFBENCH_WORKLOADS_H_
#define MOBICACHE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/model.h"
#include "analysis/scenarios.h"
#include "core/strategy.h"
#include "exp/cell.h"
#include "util/status.h"

namespace perfbench {

using mobicache::CellResult;
using mobicache::ModelParams;
using mobicache::PaperScenario;
using mobicache::Status;
using mobicache::StrategyKind;

/// Heap allocations made through the global operator new so far (the
/// runner installs a counting allocator).
uint64_t HeapAllocations();

/// Seconds on the steady clock since an arbitrary process-wide origin.
double NowSeconds();

/// In-memory span recorder: name, start, end and the enclosing span. Spans
/// are recorded only around calls the benchmark itself makes.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  int Begin(std::string name);
  void End(int id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

enum class Engine { kSweep, kCell, kMegaCell };

struct Workload {
  std::string name;
  Engine engine = Engine::kSweep;

  // kSweep: a paper scenario sweep.
  PaperScenario scenario = PaperScenario::kScenario1;
  std::vector<StrategyKind> kinds;
  std::vector<StrategyKind> analytic_only;
  int points = 0;

  /// The workload's model parameters. Sweeps take theirs from the scenario
  /// (and vary s); the cell workloads run one TS cell per sleep probability.
  ModelParams model;
  std::vector<double> sleep_probs;

  uint64_t units = 0;
  uint64_t hotspot_size = 20;
  uint64_t warmup = 0;
  uint64_t measure = 0;
  /// Sweep worker threads for timed repetitions.
  int threads = 1;
  /// Intra-cell shards (MegaCell; 1 for the others).
  uint32_t shards = 1;
};

/// The four benchmark workloads, at full size or at the smoke-test size.
std::vector<Workload> AllWorkloads(bool smoke);

/// One simulated cell of a repetition.
struct CellOutcome {
  CellResult result;
  uint64_t units = 0;
  uint64_t intervals = 0;  ///< Warm-up plus measured.
  uint64_t digest = 0;
  /// Answer audit (RepSettings::audit_answers): cache hits checked against
  /// the database's value history, and those that were stale.
  uint64_t audited_hits = 0;
  uint64_t stale_answers = 0;
};

/// Wall-time and counter accounts of one repetition, summed over its cells.
struct RepAccounts {
  double run_s = 0.0;    ///< Wall of the simulation calls.
  double setup_s = 0.0;  ///< Build() walls (sweeps: wall minus phases).
  double server_phase_s = 0.0;
  double shard_phase_s = 0.0;
  double replay_s = 0.0;
  double update_drain_s = 0.0;
  double shard_wait_s = 0.0;
  uint64_t replay_records = 0;
  uint64_t journal_bytes_peak = 0;  ///< Max over the cells.
  uint64_t heap_allocs = 0;         ///< Allocations made during run_s.
};

struct RepResult {
  Status status;
  std::vector<CellOutcome> cells;
  RepAccounts acct;
};

/// Update rate of each hot-spot item in the answer audit. At the fleet
/// workloads' own rate their 8-item hot spot sees ~0.1 updates per run, too
/// few for a stale answer to occur; at this rate it sees ~4 per interval.
constexpr double kAuditHotUpdateRate = 0.05;

struct RepSettings {
  int threads = 1;
  uint32_t shards = 1;
  /// Cell workloads only: observe every answer and count stale hits, with
  /// the hot spot's items updating at kAuditHotUpdateRate.
  bool audit_answers = false;
};

/// Settings the timed repetitions use.
RepSettings TimedSettings(const Workload& w);

/// Runs the workload once at `seed`.
RepResult RunRep(const Workload& w, uint64_t seed, const RepSettings& settings,
                 Tracer* tracer);

/// Hash of a cell's deterministic result fields. sim_events is left out: it
/// depends on the engine and the shard count (see exp/megacell.h).
uint64_t CellDigest(const CellResult& r);

/// Seed-independent checks on one cell; returns the violated ones.
std::vector<std::string> CheckCell(const CellOutcome& cell);

}  // namespace perfbench

#endif  // MOBICACHE_PERFBENCH_WORKLOADS_H_
