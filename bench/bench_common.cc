#include "bench_common.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <fstream>
#include <new>
#include <string>

#include "bench_json.h"
#include "util/flags.h"
#include "util/simd.h"
#include "util/thread_pool.h"

// Counting global allocator: every bench linking bench_common reports its
// heap allocation count in the BENCH record, so an allocation regression on
// a hot path shows up as a step in the per-commit artifact trail, not just
// as a throughput wobble.
namespace {
std::atomic<uint64_t> g_new_calls{0};
}  // namespace

// noinline keeps the malloc/free bodies opaque at new/delete expression
// sites, which would otherwise trip GCC's -Wmismatched-new-delete.
#if defined(__GNUC__)
#define MOBICACHE_BENCH_NOINLINE __attribute__((noinline))
#else
#define MOBICACHE_BENCH_NOINLINE
#endif

MOBICACHE_BENCH_NOINLINE void* operator new(std::size_t size) {
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
MOBICACHE_BENCH_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}
MOBICACHE_BENCH_NOINLINE void operator delete(void* p) noexcept {
  std::free(p);
}
MOBICACHE_BENCH_NOINLINE void operator delete[](void* p) noexcept {
  std::free(p);
}
MOBICACHE_BENCH_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
MOBICACHE_BENCH_NOINLINE void operator delete[](void* p,
                                                std::size_t) noexcept {
  std::free(p);
}

namespace mobicache {

uint64_t BenchHeapAllocations() {
  return g_new_calls.load(std::memory_order_relaxed);
}

namespace {

/// Matches --<name>=<value> and parses the value as a non-negative integer.
/// Exits with a diagnostic on garbage ("--points=abc"), a negative sign, an
/// empty value, trailing junk ("--points=12x"), or overflow: strtoull alone
/// reports none of these, it just yields 0 or wraps, which used to surface
/// as a misleading downstream error.
bool ParseFlag(const char* arg, const char* name, uint64_t* out) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  const char* value = arg + len + 1;
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  if (end == value || *end != '\0' || value[0] == '-' || errno == ERANGE) {
    std::fprintf(stderr, "invalid value for %s: '%s' (expected a "
                 "non-negative integer)\n", name, value);
    std::exit(2);
  }
  *out = parsed;
  return true;
}

/// Narrows a parsed flag to int, rejecting values an int cannot hold.
int ToIntFlag(const char* name, uint64_t value) {
  if (value > static_cast<uint64_t>(INT_MAX)) {
    std::fprintf(stderr, "value for %s is too large: %llu (max %d)\n", name,
                 static_cast<unsigned long long>(value), INT_MAX);
    std::exit(2);
  }
  return static_cast<int>(value);
}

std::string BenchNameFromArgv0(const char* argv0) {
  std::string name(argv0);
  const size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  return name.empty() ? std::string("bench") : name;
}

}  // namespace

SweepOptions ParseSweepArgs(int argc, char** argv, SweepOptions defaults,
                            std::string* csv_path, std::string* json_path) {
  SweepOptions options = defaults;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    uint64_t value = 0;
    if (std::strcmp(arg, "--no-sim") == 0) {
      options.simulate = false;
    } else if (std::strncmp(arg, "--csv=", 6) == 0) {
      if (csv_path != nullptr) *csv_path = arg + 6;
    } else if (std::strcmp(arg, "--json") == 0) {
      if (json_path != nullptr) *json_path = "auto";
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      if (json_path != nullptr) *json_path = arg + 7;
    } else if (ParseFlag(arg, "--points", &value)) {
      options.points = ToIntFlag("--points", value);
    } else if (ParseFlag(arg, "--measure", &value)) {
      options.measure_intervals = value;
    } else if (ParseFlag(arg, "--warmup", &value)) {
      options.warmup_intervals = value;
    } else if (ParseFlag(arg, "--units", &value)) {
      options.num_units = value;
    } else if (ParseFlag(arg, "--hotspot", &value)) {
      options.hotspot_size = value;
    } else if (ParseFlag(arg, "--seed", &value)) {
      options.seed = value;
    } else if (ParseFlag(arg, "--threads", &value)) {
      options.threads = ToIntFlag("--threads", value);
    } else if (ParseFlag(arg, "--shards", &value)) {
      options.shards = ToIntFlag("--shards", value);
      if (options.shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1 (got %d)\n",
                     options.shards);
        std::exit(2);
      }
    } else {
      std::fprintf(stderr,
                   "unknown flag %s\nusage: %s [--points=N] [--measure=N] "
                   "[--warmup=N] [--units=N] [--hotspot=N] [--seed=N] "
                   "[--threads=N] [--shards=N] [--no-sim] [--csv=PATH] "
                   "[--json[=PATH]]\n",
                   arg, argv[0]);
      std::exit(2);
    }
  }
  return options;
}

int RunWithoutFlags(int argc, char** argv, const std::string& description,
                    int (*run)()) {
  FlagParser flags(description + "\nTakes no flags.");
  if (Status st = flags.Parse(argc, argv); !st.ok()) {
    std::cerr << st.ToString() << "\n\n" << flags.Usage();
    return 2;
  }
  if (flags.help_requested()) {
    std::cout << flags.Usage();
    return 0;
  }
  return run();
}

int RunFigureBench(PaperScenario scenario,
                   const std::vector<StrategyKind>& strategies, int argc,
                   char** argv, SweepOptions defaults) {
  std::string csv_path;
  std::string json_path;
  const SweepOptions options =
      ParseSweepArgs(argc, argv, defaults, &csv_path, &json_path);
  const ModelParams p = ScenarioParams(scenario);
  const ScenarioSweep spec = ScenarioSweepSpec(scenario);
  const int threads_used = options.threads == 0
                               ? static_cast<int>(ThreadPool::DefaultThreadCount())
                               : options.threads;

  std::cout << ScenarioLabel(scenario) << "\n";
  std::printf(
      "lambda=%g mu=%g L=%g n=%llu W=%g bT=%llu k=%llu f=%u g=%u; sweeping "
      "%s in [%g, %g]\n",
      p.lambda, p.mu, p.L, static_cast<unsigned long long>(p.n), p.W,
      static_cast<unsigned long long>(p.bT),
      static_cast<unsigned long long>(p.k), p.f, p.g,
      spec.sweeps_sleep ? "s" : "mu", spec.lo, spec.hi);
  if (options.simulate) {
    std::printf(
        "simulation: %llu units, hotspot %llu, %llu+%llu intervals, seed "
        "%llu, %d thread%s\n\n",
        static_cast<unsigned long long>(options.num_units),
        static_cast<unsigned long long>(options.hotspot_size),
        static_cast<unsigned long long>(options.warmup_intervals),
        static_cast<unsigned long long>(options.measure_intervals),
        static_cast<unsigned long long>(options.seed), threads_used,
        threads_used == 1 ? "" : "s");
  } else {
    std::printf("analytic model only (--no-sim)\n\n");
  }

  const auto start = std::chrono::steady_clock::now();
  const uint64_t allocs_before = BenchHeapAllocations();
  const StatusOr<SweepResult> result =
      RunScenarioSweep(scenario, strategies, options);
  const uint64_t sweep_allocations = BenchHeapAllocations() - allocs_before;
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (!result.ok()) {
    std::cerr << "sweep failed: " << result.status().ToString() << "\n";
    return 1;
  }
  PrintSweepTables(*result, std::cout);
  std::printf("wall %.3fs  cells %llu  events %llu  (%.3g events/s)\n",
              wall_seconds,
              static_cast<unsigned long long>(result->simulated_cells),
              static_cast<unsigned long long>(result->sim_events),
              wall_seconds > 0.0
                  ? static_cast<double>(result->sim_events) / wall_seconds
                  : 0.0);
  double update_seconds = 0.0;
  uint64_t updates_applied = 0;
  uint64_t journal_peak = 0;
  uint64_t retention_cells[2] = {0, 0};  // none, full
  for (const SweepResult::CellTiming& t : result->cell_timings) {
    update_seconds += t.update_seconds;
    updates_applied += t.updates_applied;
    journal_peak += t.journal_bytes_peak;
    if (std::strcmp(t.retention_class, "none") == 0) {
      ++retention_cells[0];
    } else {
      ++retention_cells[1];
    }
  }
  if (updates_applied > 0) {
    std::printf("updates %llu  (%.3fs batched drain, %.1f%% of wall)  "
                "kernel %s\n",
                static_cast<unsigned long long>(updates_applied),
                update_seconds,
                wall_seconds > 0.0 ? 100.0 * update_seconds / wall_seconds
                                   : 0.0,
                simd::ActiveKernelName());
  }
  if (!result->cell_timings.empty()) {
    std::printf(
        "journal peak %.2f MB summed over cells  "
        "(retention: %llu full, %llu none)\n",
        static_cast<double>(journal_peak) / (1024.0 * 1024.0),
        static_cast<unsigned long long>(retention_cells[1]),
        static_cast<unsigned long long>(retention_cells[0]));
  }
  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "cannot open " << csv_path << "\n";
      return 1;
    }
    WriteSweepCsv(*result, csv);
    std::cout << "CSV written to " << csv_path << "\n";
  }
  if (!json_path.empty()) {
    const std::string bench_name = BenchNameFromArgv0(argv[0]);
    const std::string path =
        json_path == "auto" ? "BENCH_" + bench_name + ".json" : json_path;
    BenchRecord record =
        MakeBenchRecord(bench_name, std::string(ScenarioLabel(scenario)),
                        *result, options, threads_used, wall_seconds);
    record.heap_allocations = sweep_allocations;
    const Status st = WriteBenchJson(record, path);
    if (!st.ok()) {
      std::cerr << st.ToString() << "\n";
      return 1;
    }
    std::cout << "bench record written to " << path << "\n";
  }
  return 0;
}

}  // namespace mobicache
