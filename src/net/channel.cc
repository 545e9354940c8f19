#include "net/channel.h"

#include <algorithm>
#include <cassert>

namespace mobicache {

Channel::Channel(Simulator* sim, double bandwidth)
    : sim_(sim), bandwidth_(bandwidth) {
  assert(bandwidth > 0.0);
}

SimTime Channel::Transmit(uint64_t bits, TrafficClass cls, bool preempt) {
  const SimTime start =
      preempt ? sim_->Now() : std::max(sim_->Now(), busy_until_);
  const double duration = Duration(bits);
  const SimTime done = start + duration;
  busy_until_ = std::max(busy_until_, done);
  stats_.busy_seconds += duration;
  switch (cls) {
    case TrafficClass::kReport:
      stats_.report_bits += bits;
      ++stats_.report_count;
      break;
    case TrafficClass::kUplinkQuery:
      stats_.uplink_query_bits += bits;
      ++stats_.uplink_query_count;
      break;
    case TrafficClass::kDownlinkAnswer:
      stats_.downlink_answer_bits += bits;
      ++stats_.downlink_answer_count;
      break;
  }
  return done;
}

}  // namespace mobicache
