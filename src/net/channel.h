// Wireless cell channel model. The paper's cost model is purely in bits on a
// shared narrow-band channel of bandwidth W: invalidation reports and query
// answers go downlink, cache-miss queries go uplink, and all of them draw on
// the same L*W bits of per-interval capacity (Eq. 9). The Channel serializes
// transmissions FIFO on the shared medium and accounts bits per traffic
// class, per interval and cumulatively.

#ifndef MOBICACHE_NET_CHANNEL_H_
#define MOBICACHE_NET_CHANNEL_H_

#include <cstdint>

#include "sim/simulator.h"

namespace mobicache {

/// Bit costs of the message vocabulary (paper notation).
struct MessageSizes {
  uint64_t bq = 128;    ///< Uplink query size in bits.
  uint64_t ba = 1024;   ///< Downlink answer size in bits.
  uint64_t bT = 512;    ///< Timestamp size in bits (paper scenarios use 512).
  uint64_t id_bits = 10;  ///< Item identifier size: ceil(log2(n)) bits.
  uint64_t sig_bits = 16; ///< Combined-signature size g in bits.
};

/// What a transmission carries, for accounting purposes.
enum class TrafficClass {
  kReport,          ///< Periodic invalidation report (downlink broadcast).
  kUplinkQuery,     ///< Cache-miss query (uplink).
  kDownlinkAnswer,  ///< Server answer to an uplink query (downlink).
};

/// Cumulative channel accounting.
struct ChannelStats {
  uint64_t report_bits = 0;
  uint64_t uplink_query_bits = 0;
  uint64_t downlink_answer_bits = 0;
  uint64_t report_count = 0;
  uint64_t uplink_query_count = 0;
  uint64_t downlink_answer_count = 0;
  double busy_seconds = 0.0;

  uint64_t total_bits() const {
    return report_bits + uplink_query_bits + downlink_answer_bits;
  }
};

/// Shared-medium channel: one transmission at a time, FIFO.
class Channel {
 public:
  /// `bandwidth` in bits/second, must be > 0.
  Channel(Simulator* sim, double bandwidth);

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Reserves airtime for `bits` starting no earlier than now and no earlier
  /// than the end of the previous transmission. Returns the completion time.
  /// A zero-bit transmission completes immediately and is still counted.
  ///
  /// With `preempt` the transmission starts exactly now regardless of the
  /// backlog (the server owns the downlink schedule and places the
  /// invalidation report at the head of every interval, as in the paper's
  /// capacity split L*W = Bc + query traffic).
  SimTime Transmit(uint64_t bits, TrafficClass cls, bool preempt = false);

  /// Seconds a transmission of `bits` occupies the medium.
  double Duration(uint64_t bits) const {
    return static_cast<double>(bits) / bandwidth_;
  }

  /// Earliest time a new transmission could start.
  SimTime BusyUntil() const { return busy_until_; }

  double bandwidth() const { return bandwidth_; }
  const ChannelStats& stats() const { return stats_; }

  /// Zeroes the counters (the medium reservation state is kept).
  void ResetStats() { stats_ = ChannelStats(); }

 private:
  Simulator* sim_;
  double bandwidth_;
  SimTime busy_until_ = 0.0;
  ChannelStats stats_;
};

}  // namespace mobicache

#endif  // MOBICACHE_NET_CHANNEL_H_
