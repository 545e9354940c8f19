// The sharded spelling of the one cell engine (exp/cell.h). `MegaCell` was
// the interval-lockstep engine's name while a separate per-event Cell
// existed; both names now denote the same class, and a MegaCellConfig is a
// CellConfig plus its shard count. The engine's phases, uplink semantics
// and known non-identities are documented in exp/cell.h.

#ifndef MOBICACHE_EXP_MEGACELL_H_
#define MOBICACHE_EXP_MEGACELL_H_

#include <cstdint>

#include "exp/cell.h"

namespace mobicache {

struct MegaCellConfig {
  CellConfig cell;
  /// Number of shards (and threads) the unit population is split across.
  /// Must be >= 1 and <= cell.num_units; Build() rejects anything else.
  uint32_t num_shards = 1;
};

using MegaCell = Cell;

}  // namespace mobicache

#endif  // MOBICACHE_EXP_MEGACELL_H_
