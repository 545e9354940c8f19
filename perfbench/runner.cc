// perfbench runner: runs one workload for a fixed wall budget and prints
// its metrics. The last line of standard output is one JSON object with the
// keys correct, attempted, failed and metrics.
//
//   perfbench_runner --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                    [--smoke] [--expect-digests HEX,HEX,...] [--spans PATH]
//
// --trace 0 times repeated runs of the workload and reports the end-to-end
// metrics (medians over the repetitions). --trace 1 reports the per-layer
// metrics: a layer drive, alternating traced and untraced repetitions, and
// the seed-independent audits. Every repetition's cells are checked; a cell
// fails on a non-OK Status, a failed check, a digest that differs from the
// run's first repetition, or one that differs from --expect-digests.

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "layer_drive.h"
#include "util/simd.h"
#include "workloads.h"

// Counting global allocator for the mu.heap_allocs metric.
namespace {
std::atomic<uint64_t> g_new_calls{0};
}  // namespace

// noinline keeps the malloc/free bodies opaque at new/delete expression
// sites, which would otherwise trip GCC's -Wmismatched-new-delete.
#define PERFBENCH_NOINLINE __attribute__((noinline))

PERFBENCH_NOINLINE void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
PERFBENCH_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
PERFBENCH_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
PERFBENCH_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
PERFBENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
PERFBENCH_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace perfbench {

uint64_t HeapAllocations() {
  return g_new_calls.load(std::memory_order_relaxed);
}

namespace {

// At least this many timed repetitions, however short --seconds is.
constexpr int kMinReps = 3;

struct Args {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  bool smoke = false;
  std::vector<uint64_t> expect_digests;
  std::string spans_path;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "%s\nusage: perfbench_runner --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] "
               "[--expect-digests HEX,...] [--spans PATH]\n",
               why);
  std::exit(2);
}

uint64_t ParseU64(const std::string& s, int base) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, base);
  if (s.empty() || *end != '\0' || s[0] == '-' || errno == ERANGE) {
    Usage(("invalid number: " + s).c_str());
  }
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = ParseU64(value, 10);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(ParseU64(value, 10));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      a.trace = value == "1" ? 1 : 0;
    } else if (flag == "--expect-digests") {
      std::stringstream ss(value);
      std::string item;
      while (std::getline(ss, item, ',')) {
        a.expect_digests.push_back(ParseU64(item, 16));
      }
    } else if (flag == "--spans") {
      a.spans_path = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) Usage("--workload is required");
  return a;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

/// The process's peak resident memory (VmHWM). getrusage's ru_maxrss is
/// not used: Linux carries the parent's resident set over exec into it, so
/// it reports the launcher's size for small workloads.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Cell-level pass/fail bookkeeping shared by every repetition of a run.
class Checker {
 public:
  explicit Checker(std::vector<uint64_t> expected)
      : expected_(std::move(expected)) {}

  /// Checks one repetition's cells. With `compare_digests`, every digest
  /// must match the run's first repetition and the recorded default-seed
  /// digests; a repetition that simulates other cells (the answer audit)
  /// passes false.
  void Score(const char* what, const RepResult& rep,
             bool compare_digests = true) {
    const size_t expected_cells =
        std::max<size_t>(1, std::max(rep.cells.size(), first_.size()));
    if (!rep.status.ok()) {
      Fail(what, expected_cells, rep.status.ToString());
      return;
    }
    std::vector<uint64_t> digests;
    for (const CellOutcome& c : rep.cells) digests.push_back(c.digest);
    if (first_.empty()) first_ = digests;
    if (rep.cells.empty()) {
      Fail(what, 1, "no cell simulated");
      return;
    }
    attempted_ += rep.cells.size();
    // A cell whose units all slept (s = 1) answers nothing; a repetition
    // that answers nothing at all is broken.
    uint64_t answered = 0;
    for (const CellOutcome& c : rep.cells) {
      answered += c.result.queries_answered;
    }
    for (size_t i = 0; i < rep.cells.size(); ++i) {
      std::vector<std::string> bad = CheckCell(rep.cells[i]);
      if (i == 0 && answered == 0) bad.push_back("no query answered");
      if (compare_digests &&
          (first_.size() != digests.size() || first_[i] != digests[i])) {
        bad.push_back("digest differs from the run's first repetition");
      }
      if (compare_digests && !expected_.empty() &&
          (expected_.size() != digests.size() || expected_[i] != digests[i])) {
        bad.push_back("digest differs from the recorded default-seed digest");
      }
      if (!bad.empty()) {
        ++failed_;
        Report(what, i, bad.front());
      }
    }
  }

  /// Counts `cells` attempted cells that all failed for one reason.
  void Fail(const char* what, size_t cells, const std::string& why) {
    attempted_ += cells;
    failed_ += cells;
    Report(what, 0, why);
  }

  void Pass(size_t cells) { attempted_ += cells; }

  const std::vector<uint64_t>& first_digests() const { return first_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  void Report(const char* what, size_t cell, const std::string& why) {
    if (++reports_ <= 10) {
      std::fprintf(stderr, "FAILED %s cell %zu: %s\n", what, cell,
                   why.c_str());
    }
  }

  std::vector<uint64_t> expected_;
  std::vector<uint64_t> first_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t reports_ = 0;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  bool integral = false;
};

void PrintResult(const Checker& checker, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %.6g (%" PRIu64 " of %" PRIu64 " cells)\n",
              "failed_frac",
              checker.attempted() == 0
                  ? 0.0
                  : static_cast<double>(checker.failed()) /
                        static_cast<double>(checker.attempted()),
              checker.failed(), checker.attempted());
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    char num[40];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    if (m.integral) {
      std::snprintf(num, sizeof(num), "%" PRIu64, static_cast<uint64_t>(v));
    } else {
      std::snprintf(num, sizeof(num), "%.17g", v);
    }
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

uint64_t UnitIntervals(const RepResult& rep) {
  uint64_t total = 0;
  for (const CellOutcome& c : rep.cells) total += c.units * c.intervals;
  return total;
}

uint64_t QueriesAnswered(const RepResult& rep) {
  uint64_t total = 0;
  for (const CellOutcome& c : rep.cells) total += c.result.queries_answered;
  return total;
}

void PrintDigests(const Args& args, const std::vector<uint64_t>& digests) {
  uint64_t combined = 0xcbf29ce484222325ULL;
  std::string list;
  for (uint64_t d : digests) {
    combined = (combined ^ d) * 0x100000001b3ULL;
    list += (list.empty() ? "" : ",") + Hex(d);
  }
  std::printf("digest %s seed=%" PRIu64 " cells=%zu combined=%s\n",
              args.workload.c_str(), args.seed, digests.size(),
              Hex(combined).c_str());
  std::printf("cell_digests %s\n", list.c_str());
}

void LogRep(const char* kind, const RepResult& rep) {
  std::fprintf(stderr, "  %-9s run %.4fs setup %.4fs cells %zu\n", kind,
               rep.acct.run_s, rep.acct.setup_s, rep.cells.size());
}

int RunTimed(const Args& args, const Workload& w) {
  Checker checker(args.expect_digests);
  const RepSettings settings = TimedSettings(w);
  std::vector<double> run_s;
  std::vector<double> setup_s;
  RepResult last;
  double peak_rss_mb = 0.0;
  const double start = NowSeconds();
  // The first repetition warms caches and the allocator; it is checked but
  // not timed. Peak memory is read after it: later repetitions inherit
  // whatever the allocator kept from earlier ones, so their peak depends on
  // how many ran.
  for (int rep_index = 0;; ++rep_index) {
    RepResult rep = RunRep(w, args.seed, settings, nullptr);
    checker.Score(rep_index == 0 ? "warm-up" : "timed", rep);
    LogRep(rep_index == 0 ? "warm-up" : "timed", rep);
    if (rep_index == 0) {
      peak_rss_mb = PeakRssMb();
    } else {
      run_s.push_back(rep.acct.run_s);
      setup_s.push_back(rep.acct.setup_s);
      last = std::move(rep);
    }
    if (rep_index >= kMinReps && NowSeconds() - start >= args.seconds) break;
  }
  PrintDigests(args, checker.first_digests());
  const double run = Median(run_s);
  const uint64_t queries = QueriesAnswered(last);
  std::printf("%s: %zu timed repetitions, run_s min %.4f max %.4f\n",
              args.workload.c_str(), run_s.size(),
              *std::min_element(run_s.begin(), run_s.end()),
              *std::max_element(run_s.begin(), run_s.end()));
  PrintResult(checker,
              {
                  {"run_s", run, "s"},
                  {"unit_intervals_per_s",
                   static_cast<double>(UnitIntervals(last)) / run,
                   "unit-intervals/s"},
                  {"ns_per_query",
                   queries == 0 ? 0.0
                                : run * 1e9 / static_cast<double>(queries),
                   "ns"},
                  {"setup_s", Median(setup_s), "s"},
                  {"peak_rss_mb", peak_rss_mb, "MB"},
              });
  return 0;
}

void WriteSpans(const std::string& path, const Tracer& tracer) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  const auto& spans = tracer.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    out << "{\"id\": " << i << ", \"parent\": " << spans[i].parent
        << ", \"name\": \"" << spans[i].name
        << "\", \"start_s\": " << spans[i].start_s
        << ", \"end_s\": " << spans[i].end_s << "}\n";
  }
}

int RunTraced(const Args& args, const Workload& w) {
  Checker checker(args.expect_digests);
  Tracer tracer;
  const double start = NowSeconds();

  LayerDriveResult drive;
  const double part_seconds = std::clamp(args.seconds / 20.0, 0.05, 1.0);
  const Status drive_status =
      RunLayerDrive(w, args.seed, part_seconds, &tracer, &drive);
  if (drive_status.ok()) {
    checker.Pass(1);
  } else {
    checker.Fail("layer drive", 1, drive_status.ToString());
  }

  // Sweeps run their cells one at a time here, so the per-cell layer walls
  // add up to the sweep's wall.
  RepSettings settings = TimedSettings(w);
  if (w.engine == Engine::kSweep) settings.threads = 1;
  std::vector<double> untraced_s;
  std::vector<RepResult> traced;
  while (traced.empty() || NowSeconds() - start < 0.6 * args.seconds) {
    RepResult plain = RunRep(w, args.seed, settings, nullptr);
    checker.Score("untraced", plain);
    LogRep("untraced", plain);
    untraced_s.push_back(plain.acct.run_s);
    RepResult rep = [&] {
      ScopedSpan span(&tracer, "traced_rep");
      return RunRep(w, args.seed, settings, &tracer);
    }();
    checker.Score("traced", rep);
    LogRep("traced", rep);
    traced.push_back(std::move(rep));
  }
  std::sort(traced.begin(), traced.end(),
            [](const RepResult& a, const RepResult& b) {
              return a.acct.run_s < b.acct.run_s;
            });
  const RepResult& rep = traced[(traced.size() - 1) / 2];
  const RepAccounts& a = rep.acct;
  const double untraced_run = Median(untraced_s);

  // Audits.
  double scaling_eff = 1.0;
  if (w.engine == Engine::kMegaCell) {
    // The same population on one shard must reproduce every counter.
    RepSettings one = settings;
    one.shards = 1;
    RepResult single = [&] {
      ScopedSpan span(&tracer, "audit.one_shard");
      return RunRep(w, args.seed, one, &tracer);
    }();
    checker.Score("1-shard audit", single);
    scaling_eff = single.acct.run_s /
                  (static_cast<double>(settings.shards) * untraced_run);
  } else if (w.engine == Engine::kSweep) {
    // Cross-cell pool efficiency at the timed worker count.
    const RepSettings timed = TimedSettings(w);
    RepResult wide = [&] {
      ScopedSpan span(&tracer, "audit.timed_threads");
      return RunRep(w, args.seed, timed, &tracer);
    }();
    checker.Score("timed-threads audit", wide);
    scaling_eff = untraced_run /
                  (static_cast<double>(timed.threads) * wide.acct.run_s);
  } else {
    // TS must never answer from a stale cache entry.
    RepSettings audit = settings;
    audit.audit_answers = true;
    RepResult audited = [&] {
      ScopedSpan span(&tracer, "audit.stale_answers");
      return RunRep(w, args.seed, audit, &tracer);
    }();
    checker.Score("answer audit", audited, /*compare_digests=*/false);
    uint64_t hits = 0, stale = 0;
    for (const CellOutcome& c : audited.cells) {
      hits += c.audited_hits;
      stale += c.stale_answers;
    }
    std::printf("answer audit: %" PRIu64 " hits checked, %" PRIu64 " stale\n",
                hits, stale);
    if (audited.status.ok() && hits == 0) {
      checker.Fail("answer audit", 1, "no cache hit was audited");
    }
  }
  PrintDigests(args, checker.first_digests());
  if (!args.spans_path.empty()) WriteSpans(args.spans_path, tracer);

  uint64_t updates = 0, sim_events = 0, quiet = 0, skipped = 0;
  uint64_t report_bits = 0, report_count = 0, hits = 0, answered = 0;
  for (const CellOutcome& c : rep.cells) {
    const CellResult& r = c.result;
    updates += r.updates_applied;
    sim_events += r.sim_events;
    quiet += r.quiet_report_intervals;
    skipped += r.quiet_skipped_intervals;
    report_bits += r.channel.report_bits;
    report_count += r.channel.report_count;
    hits += r.hits;
    answered += r.hits + r.misses;
  }
  // Layer self-times that lie inside run_s: set-up (sweeps only; Cell and
  // MegaCell build outside Run), then the engine's phase walls. The update
  // drain is a sub-account of the server phase.
  double accounted = a.server_phase_s + a.shard_phase_s + a.replay_s;
  if (w.engine == Engine::kSweep) accounted += a.setup_s;
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };
  const double unit_intervals = static_cast<double>(UnitIntervals(rep));
  const std::vector<Metric> metrics = {
      {"trace.run_s", a.run_s, "s"},
      {"trace.overhead_frac", a.run_s / untraced_run - 1.0, "frac"},
      {"exp.setup_s", a.setup_s, "s"},
      {"exp.server_phase_s", a.server_phase_s, "s"},
      {"exp.shard_phase_s", a.shard_phase_s, "s"},
      {"exp.replay_s", a.replay_s, "s"},
      {"exp.replay_records", static_cast<double>(a.replay_records), "count",
       true},
      {"exp.shard_wait_s", a.shard_wait_s, "s"},
      {"exp.scaling_eff", scaling_eff, "ratio"},
      {"exp.unaccounted_s", a.run_s - accounted, "s"},
      {"db.update_drain_s", a.update_drain_s, "s"},
      {"db.updates_applied", static_cast<double>(updates), "count", true},
      {"db.ns_per_update",
       ratio(a.update_drain_s * 1e9, static_cast<double>(updates)), "ns"},
      {"db.journal_bytes_peak", static_cast<double>(a.journal_bytes_peak),
       "B", true},
      {"server.broadcast_s", a.server_phase_s, "s"},
      {"server.quiet_intervals", static_cast<double>(quiet), "count", true},
      {"server.quiet_skipped", static_cast<double>(skipped), "count", true},
      {"server.quiet_skip_ratio",
       ratio(static_cast<double>(skipped), static_cast<double>(quiet)),
       "ratio"},
      {"core.ts.build_report_ns", drive.build_report_ns[0], "ns"},
      {"core.at.build_report_ns", drive.build_report_ns[1], "ns"},
      {"core.sig.build_report_ns", drive.build_report_ns[2], "ns"},
      {"core.ts.client_report_ns", drive.client_report_ns[0], "ns"},
      {"core.at.client_report_ns", drive.client_report_ns[1], "ns"},
      {"core.sig.client_report_ns", drive.client_report_ns[2], "ns"},
      {"sig.diagnose_ns", drive.sig_diagnose_ns, "ns"},
      {"mu.heap_allocs", static_cast<double>(a.heap_allocs), "count", true},
      {"mu.allocs_per_unit_interval",
       ratio(static_cast<double>(a.heap_allocs), unit_intervals), "ratio"},
      {"mu.queries_answered", static_cast<double>(answered), "count", true},
      {"mu.hit_ratio",
       ratio(static_cast<double>(hits), static_cast<double>(answered)),
       "ratio"},
      {"sim.dispatched_events", static_cast<double>(sim_events - updates),
       "count", true},
      {"sim.dispatch_ns", drive.dispatch_ns, "ns"},
      {"util.exp_draw_ns", drive.exp_draw_ns, "ns"},
      {"net.report_bits", static_cast<double>(report_bits), "bit", true},
      {"net.avg_report_bits",
       ratio(static_cast<double>(report_bits),
             static_cast<double>(report_count)),
       "bit"},
  };
  std::printf("%s traced: %zu traced + %zu untraced repetitions\n",
              args.workload.c_str(), traced.size(), untraced_s.size());
  PrintResult(checker, metrics);
  return 0;
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // A fixed mmap threshold (glibc otherwise raises it as large blocks are
  // freed) returns every block of 4 MB or more, such as a 10^6-item
  // database slab, to the system when it is freed. Peak RSS then tracks
  // live memory instead of how freed slabs happened to fragment the heap.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
  const std::vector<Workload> all = AllWorkloads(args.smoke);
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == args.workload;
  });
  if (it == all.end()) Usage(("unknown workload " + args.workload).c_str());
  std::printf(
      "build: {\"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"simd_kernel\": \"%s\"}\n",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
      mobicache::simd::ActiveKernelName());
  std::fflush(stdout);
  return args.trace == 1 ? RunTraced(args, *it) : RunTimed(args, *it);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
