#include "router/vc_allocator.h"

#include <bit>
#include <cassert>

namespace ocn::router {

VcId VcAllocator::allocate(std::uint8_t mask, bool want_odd, bool ignore_parity) {
  // Requested VCs that are neither allocated nor excluded. When none is
  // left, the scan below would return kInvalidVc with the rotation pointer
  // untouched, so return that directly. At saturation this is the common
  // outcome (ownership persists while the link is credit-starved) even when
  // other classes' VCs sit free.
  const auto open = static_cast<std::uint8_t>(mask & ~(*allocated_ | *excluded_));
  if (open == 0) return kInvalidVc;
  const bool parity = enforce_parity_ && !ignore_parity;
  const int n = vcs_;
  for (int i = 0; i < n; ++i) {
    const VcId vc = (*rr_ + i) % n;
    if ((open & bit(vc)) == 0) continue;
    if (parity && (vc % 2 == 1) != want_odd) continue;
    *allocated_ |= bit(vc);
    *rr_ = (vc + 1) % n;
    return vc;
  }
  return kInvalidVc;
}

bool VcAllocator::allocate_exact(VcId vc) {
  if (is_allocated(vc)) return false;
  *allocated_ |= bit(vc);
  return true;
}

void VcAllocator::release(VcId vc) {
  assert(is_allocated(vc) && "releasing a VC that was never allocated");
  *allocated_ &= static_cast<std::uint8_t>(~bit(vc));
}

int VcAllocator::free_count() const {
  const auto all = static_cast<std::uint8_t>((1u << vcs_) - 1u);
  return std::popcount(static_cast<std::uint8_t>(all & ~(*allocated_ | *excluded_)));
}

void VcAllocator::set_excluded(VcId vc, bool excluded) {
  if (excluded) {
    *excluded_ |= bit(vc);
  } else {
    *excluded_ &= static_cast<std::uint8_t>(~bit(vc));
  }
}

}  // namespace ocn::router
