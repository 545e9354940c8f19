// Stateful-server baselines (§2, §4.1). The server tracks which clients
// cache which items and sends targeted invalidation messages as updates
// happen. Two modes:
//
//  * kIdeal    — the unattainable reference of §4.1: invalidations are
//    instantaneous, reach even sleeping clients, and cost zero bits. A cell
//    running kIdeal measures the maximal hit ratio MHR = lambda/(lambda+mu)
//    and defines Tmax.
//  * kStateful — an AFS/Coda-style attainable server: each invalidation is a
//    real downlink message (id_bits), it only reaches awake clients, and a
//    client that slept must drop its cache upon reconnection (disconnection
//    loses the cache); sleep/wake transitions cost a control message uplink.

#ifndef MOBICACHE_CORE_STATEFUL_H_
#define MOBICACHE_CORE_STATEFUL_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/strategy.h"
#include "db/database.h"
#include "net/channel.h"

namespace mobicache {

enum class StatefulMode { kIdeal, kStateful };

/// Server-side registry of client cache contents. Wire it to the database
/// with db->SetUpdateObserver([&](ItemId id, SimTime t) { reg.OnUpdate(id, t); }).
class StatefulRegistry {
 public:
  using ClientId = uint32_t;

  /// kStateful mode transmits, so it needs a transmit sink installed before
  /// the first client activity (see SetTransmitSink); kIdeal sends nothing.
  StatefulRegistry(StatefulMode mode, MessageSizes sizes);

  /// Routes every channel charge (control messages, invalidation sends) to
  /// `sink`. The cell gives each shard its own registry replica with a sink
  /// that logs (bits, class) records for chronologically-merged replay onto
  /// the real channel at the interval barrier — message *counters* stay
  /// per-replica and exact, and the bit totals are order-invariant.
  void SetTransmitSink(std::function<void(uint64_t, TrafficClass)> sink) {
    transmit_sink_ = std::move(sink);
  }

  /// Registers a client. `invalidate` is called when a cached item changes
  /// and the client is reachable; `is_awake` gates reachability in
  /// kStateful mode.
  ClientId RegisterClient(std::function<void(ItemId)> invalidate,
                          std::function<bool()> is_awake);

  /// Bookkeeping mirrors of the client's cache content.
  void OnClientCached(ClientId client, ItemId id);
  void OnClientDropped(ClientId client, ItemId id);

  /// kStateful: reconnection protocol — the server forgets the client's
  /// cache record (the client must drop its cache) and a control message is
  /// charged. No-op in kIdeal mode.
  void OnClientWake(ClientId client);
  /// kStateful: elective-disconnection notification (control message).
  void OnClientSleep(ClientId client);

  /// Reacts to one database update: notifies every client caching the item.
  void OnUpdate(ItemId id, SimTime now);

  StatefulMode mode() const { return mode_; }

  /// Zeroes the message counters (used after warm-up); the cache-content
  /// records are untouched.
  void ResetStats() {
    invalidations_sent_ = 0;
    invalidations_missed_asleep_ = 0;
    control_messages_ = 0;
  }

  uint64_t invalidations_sent() const { return invalidations_sent_; }
  uint64_t invalidations_missed_asleep() const {
    return invalidations_missed_asleep_;
  }
  uint64_t control_messages() const { return control_messages_; }

 private:
  struct ClientRecord {
    std::function<void(ItemId)> invalidate;
    std::function<bool()> is_awake;
    std::unordered_set<ItemId> cached;
  };

  void ChargeControlMessage();
  /// Routes one charge to the transmit sink.
  void TransmitBits(uint64_t bits, TrafficClass cls);

  StatefulMode mode_;
  MessageSizes sizes_;
  std::function<void(uint64_t, TrafficClass)> transmit_sink_;
  std::vector<ClientRecord> clients_;
  // Inverted index: item -> clients caching it. Only items cached somewhere
  // have an entry.
  std::unordered_map<ItemId, std::unordered_set<ClientId>> holders_;
  uint64_t invalidations_sent_ = 0;
  uint64_t invalidations_missed_asleep_ = 0;
  uint64_t control_messages_ = 0;
};

/// Client half for both stateful modes. There are no reports: queries are
/// answered immediately, and validity is maintained push-style through the
/// registry callbacks. The owning mobile unit must forward cache mutations
/// to the registry (RegisterFetch / OnClientWake are driven by the cell
/// wiring in mobicache_exp).
class StatefulClientManager : public ClientCacheManager {
 public:
  explicit StatefulClientManager(StatefulMode mode) : mode_(mode) {}

  StrategyKind kind() const override {
    return mode_ == StatefulMode::kIdeal ? StrategyKind::kIdeal
                                         : StrategyKind::kStateful;
  }

  uint64_t OnReport(const Report& report, ClientCache* cache) override {
    (void)report;
    (void)cache;
    return 0;
  }
  bool HasValidBaseline() const override { return true; }

 private:
  StatefulMode mode_;
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_STATEFUL_H_
