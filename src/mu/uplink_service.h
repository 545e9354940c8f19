// Interface a mobile unit uses to send a cache-miss query uplink. The
// cell's implementation (exp/cell.cc) returns the item value at the fetch
// instant stamped with the shard clock, and logs the query so the barrier
// replay charges its channel bits (bq + strategy extras uplink, ba
// downlink) through Server::AccountUplinkQuery.

#ifndef MOBICACHE_MU_UPLINK_SERVICE_H_
#define MOBICACHE_MU_UPLINK_SERVICE_H_

#include <cstdint>

#include "core/strategy.h"
#include "sim/simulator.h"

namespace mobicache {

class UplinkService {
 public:
  virtual ~UplinkService() = default;

  struct FetchResult {
    uint64_t value = 0;
    SimTime server_time = 0.0;  ///< Timestamp assigned to the fetched copy.
  };

  /// Processes one uplink query (a cache miss). `info.local_hit_times`
  /// carries any piggybacked feedback; implementations forward it to the
  /// server strategy and charge its extra bits.
  virtual FetchResult FetchItem(const UplinkQueryInfo& info) = 0;
};

}  // namespace mobicache

#endif  // MOBICACHE_MU_UPLINK_SERVICE_H_
