// Virtual-channel allocation state for one output controller.
//
// A packet's head flit must acquire a downstream virtual channel before its
// flits may cross the link (virtual-channel flow control, Dally '92, cited
// as [2][6] in the paper). The VC is held until the tail flit passes.
//
// The allocator honours the packet's 8-bit VC mask (class of service) and,
// on wraparound topologies, the dateline parity discipline: classes are VC
// pairs {2c, 2c+1}; a packet uses the even member before crossing its ring's
// dateline and the odd member after (see DESIGN.md on deadlock freedom).
//
// The allocated and excluded sets are two bitmasks (bit v = VC v) and the
// rotation pointer one int, all in the owning router's RouterStatePool
// slot. The allocator is a view over them and keeps no summary of its own:
// every query, including allocate()'s fast-fail, reads the masks. The
// reference model keeps its own allocation code and does not use this
// class.
#pragma once

#include <cstdint>

#include "sim/types.h"

namespace ocn::router {

class VcAllocator {
 public:
  /// `allocated`/`excluded` are one mask each and `rotation` one int, all
  /// owned by a RouterStatePool (zero-initialized).
  VcAllocator(int vcs, bool enforce_parity, std::uint8_t* allocated,
              std::uint8_t* excluded, int* rotation)
      : vcs_(vcs),
        enforce_parity_(enforce_parity),
        allocated_(allocated),
        excluded_(excluded),
        rr_(rotation) {}

  /// Grant a free VC allowed by `mask` with parity matching `want_odd`
  /// (when parity is enforced and not suppressed via `ignore_parity`, e.g.
  /// on the ejection port where the dateline discipline does not apply).
  /// Rotates among eligible VCs for fairness. Returns kInvalidVc when none
  /// is free.
  VcId allocate(std::uint8_t mask, bool want_odd, bool ignore_parity = false);

  /// Grant a specific VC (used by the scheduled-traffic path and by
  /// same-VC allocation in dropping mode). Returns false if busy.
  bool allocate_exact(VcId vc);

  void release(VcId vc);
  bool is_allocated(VcId vc) const { return (*allocated_ & bit(vc)) != 0; }
  int vcs() const { return vcs_; }
  int free_count() const;
  /// Fairness-rotation pointer: the VC scanned first on the next allocate().
  /// Exposed for the differential harness's state comparison.
  int rotation() const { return *rr_; }

  /// Exclude a VC from dynamic allocation (reserved for scheduled traffic).
  void set_excluded(VcId vc, bool excluded);

 private:
  static std::uint8_t bit(VcId vc) { return static_cast<std::uint8_t>(1u << vc); }

  int vcs_;
  bool enforce_parity_;
  std::uint8_t* allocated_;
  std::uint8_t* excluded_;
  int* rr_;
};

}  // namespace ocn::router
