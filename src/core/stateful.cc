#include "core/stateful.h"

#include <cassert>

namespace mobicache {

StatefulRegistry::StatefulRegistry(StatefulMode mode, MessageSizes sizes)
    : mode_(mode), sizes_(sizes) {}

void StatefulRegistry::TransmitBits(uint64_t bits, TrafficClass cls) {
  assert(transmit_sink_ && "kStateful registry needs a transmit sink");
  transmit_sink_(bits, cls);
}

StatefulRegistry::ClientId StatefulRegistry::RegisterClient(
    std::function<void(ItemId)> invalidate, std::function<bool()> is_awake) {
  clients_.push_back(
      ClientRecord{std::move(invalidate), std::move(is_awake), {}});
  return static_cast<ClientId>(clients_.size() - 1);
}

void StatefulRegistry::OnClientCached(ClientId client, ItemId id) {
  assert(client < clients_.size());
  // The stateful baseline models a server that tracks every client's cache
  // contents; its node-based set bookkeeping allocates by design and is off
  // the lean broadcast strategies' allocation-free contract.
  // detlint:allow(alloc-event-path)
  clients_[client].cached.insert(id);
  holders_[id].insert(client);  // detlint:allow(alloc-event-path) same bookkeeping
}

void StatefulRegistry::OnClientDropped(ClientId client, ItemId id) {
  assert(client < clients_.size());
  clients_[client].cached.erase(id);
  auto it = holders_.find(id);
  if (it != holders_.end()) {
    it->second.erase(client);
    if (it->second.empty()) holders_.erase(it);
  }
}

void StatefulRegistry::ChargeControlMessage() {
  ++control_messages_;
  if (mode_ == StatefulMode::kStateful) {
    TransmitBits(sizes_.bq, TrafficClass::kUplinkQuery);
  }
}

void StatefulRegistry::OnClientWake(ClientId client) {
  assert(client < clients_.size());
  if (mode_ == StatefulMode::kIdeal) return;
  // Reconnection: the server's record is stale; the client starts over.
  ClientRecord& rec = clients_[client];
  // detlint:allow(unordered-output) holder-set maintenance, nothing escapes
  for (ItemId id : rec.cached) {
    auto it = holders_.find(id);
    if (it != holders_.end()) {
      it->second.erase(client);
      if (it->second.empty()) holders_.erase(it);
    }
  }
  rec.cached.clear();
  ChargeControlMessage();
}

void StatefulRegistry::OnClientSleep(ClientId client) {
  assert(client < clients_.size());
  (void)client;
  if (mode_ == StatefulMode::kIdeal) return;
  ChargeControlMessage();
}

void StatefulRegistry::OnUpdate(ItemId id, SimTime now) {
  (void)now;
  auto it = holders_.find(id);
  if (it == holders_.end()) return;
  // Copy: invalidate callbacks drop items, which mutates holders_.
  const std::vector<ClientId> targets(it->second.begin(), it->second.end());
  for (ClientId client : targets) {
    ClientRecord& rec = clients_[client];
    const bool reachable =
        mode_ == StatefulMode::kIdeal || !rec.is_awake || rec.is_awake();
    if (!reachable) {
      // The message would not be received; in a real system the server
      // could not know, but the paper's model drops the cache on
      // reconnection anyway, so no message needs to be charged.
      ++invalidations_missed_asleep_;
      continue;
    }
    if (mode_ == StatefulMode::kStateful) {
      TransmitBits(sizes_.id_bits, TrafficClass::kReport);
    }
    ++invalidations_sent_;
    rec.invalidate(id);
    OnClientDropped(client, id);
  }
}

}  // namespace mobicache
