// Structure-of-arrays hot state for a shard's mobile-unit population. The
// sharded cell engine fans each report delivery out to 10^5+ units; with the
// hot per-unit fields packed into parallel arrays the fan-out loop streams a
// few contiguous lanes instead of pointer-chasing through
// unique_ptr<MobileUnit>.
//
// The awake *set* itself lives in the shard's WakeIndex bitmap (see
// wake_index.h) — fan-out iterates awake units directly, so sleepers are
// never visited and need no missed-report lane: reports_missed is settled at
// harvest time as deliveries_completed - reports_heard.
//
// The SoA owns the broadcast counters (reports heard, listen seconds): the
// engine's fan-out loop writes them and a unit never touches its own stats_
// copies, so harvesting folds `stats_ + soa` without double counting.

#ifndef MOBICACHE_MU_HOT_STATE_H_
#define MOBICACHE_MU_HOT_STATE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mobicache {

struct MuHotSoA {
  std::vector<uint64_t> reports_heard;
  std::vector<double> listen_seconds;

  size_t size() const { return reports_heard.size(); }

  void Resize(size_t n) {
    reports_heard.assign(n, 0);
    listen_seconds.assign(n, 0.0);
  }

  /// Zeroes the stat lanes (after warm-up).
  void ResetStats() {
    reports_heard.assign(reports_heard.size(), 0);
    listen_seconds.assign(listen_seconds.size(), 0.0);
  }
};

}  // namespace mobicache

#endif  // MOBICACHE_MU_HOT_STATE_H_
