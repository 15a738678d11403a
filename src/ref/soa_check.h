// Pool <-> view equivalence check (tests/test_soa.cpp).
//
// RouterStatePool is the only router storage; the object layer (VcBuffer,
// VcAllocator, arbiters, Input/OutputController) is views over it, and the
// NIC keeps incrementally-maintained occupancy counters. This module
// re-derives every slice through the pool's own index arithmetic,
// independently of the pointers the views cached at construction, and
// compares it field-by-field against the view accessors. Any mismatch means
// a view is looking at the wrong slice, a batch loop bypassed the view
// semantics, or an incrementally-maintained counter (VcAllocator's
// allocated count, the NIC counters) drifted from the occupancy it
// summarizes.
//
// run_lockstep / run_shard_lockstep call this after every tick, so the whole
// 12-cell quick matrix (and every ocn-diff campaign) gates on it.
#pragma once

#include <string>
#include <vector>

namespace ocn::core {
class Network;
}

namespace ocn::ref {

/// Compare pool-derived state against the object-layer accessors for every
/// router and NIC in `net`. Returns one "label: pool=X facade=Y" line per
/// mismatching field (empty when equivalent). Capped at 32 lines.
std::vector<std::string> soa_crosscheck(core::Network& net);

}  // namespace ocn::ref
