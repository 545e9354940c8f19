// Signatures strategy (SIG, §3.3) as a report strategy pair. The server
// maintains the m combined signatures incrementally against the database and
// broadcasts them every L seconds (state-based, compressed reports); clients
// diagnose their caches by syndrome counting. Unlike TS/AT there is no drop
// window: a client that slept arbitrarily long revalidates against its last
// stored signatures, which is what makes SIG the sleeper-friendly strategy.

#ifndef MOBICACHE_CORE_SIG_STRATEGY_H_
#define MOBICACHE_CORE_SIG_STRATEGY_H_

#include <memory>

#include "core/strategy.h"
#include "sig/signature.h"

namespace mobicache {

/// SIG server half. The family is shared ("universally known"): the cell
/// creates one SignatureFamily and hands it to the server strategy and to
/// every client manager.
class SigServerStrategy : public ServerStrategy {
 public:
  /// `latency` is L (> 0). Builds the initial combined signatures from the
  /// database's current contents (O(n * m / (f+1))).
  SigServerStrategy(const Database* db, const SignatureFamily* family,
                    SimTime latency);

  StrategyKind kind() const override { return StrategyKind::kSig; }
  void BuildReportInto(SimTime now, uint64_t interval, Report* out) override;
  void AttachUpdateFeed(Database* db) override;
  SimTime JournalHorizonSeconds() const override { return latency_; }
  /// The combined signatures are a function of current values only
  /// (state-based reports): BuildReportInto folds the dirty set the
  /// attached feed collects, so the server keeps no update history.
  JournalRetention retention() const override {
    return JournalRetention::kNone;
  }

 private:
  SimTime latency_;
  ServerSignatureState state_;
  // Dirty-id set fed by the database observer (AttachUpdateFeed).
  std::vector<uint8_t> dirty_flags_;
  std::vector<ItemId> dirty_ids_;
};

/// SIG client half.
class SigClientManager : public ClientCacheManager {
 public:
  /// `interest` is this client's hot spot (the items it may ever cache).
  SigClientManager(const SignatureFamily* family,
                   const std::vector<ItemId>& interest);

  StrategyKind kind() const override { return StrategyKind::kSig; }
  uint64_t OnReport(const Report& report, ClientCache* cache) override;
  bool HasValidBaseline() const override { return view_.has_baseline(); }

  const ClientSignatureView& view() const { return view_; }

 private:
  ClientSignatureView view_;
};

}  // namespace mobicache

#endif  // MOBICACHE_CORE_SIG_STRATEGY_H_
