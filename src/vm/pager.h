// The pager interface: paging logical pages out to backing store and back.
//
// Two of the paper's observations motivate this subsystem:
//   * section 4.3 footnote: "our system never reconsiders a pinning decision (unless
//     the pinned page is paged out and back in)" — pageout/pagein is the one
//     sanctioned way placement decisions get revisited;
//   * section 5: "It may also be worth designing a virtual memory system that
//     integrates page placement more closely with pagein and pageout".
//
// The machine-independent fault handler talks to this abstract interface; the concrete
// pager (src/machine/pageout.h) knows the NUMA manager and implements eviction with
// the classic Unix-pageout trick the paper cites: mappings are dropped, and a page
// that faults its mappings back in is "referenced" and survives; one that does not is
// evicted (section 4.4: such tricks "detect only the presence or absence of
// references, not their frequency").

#ifndef SRC_VM_PAGER_H_
#define SRC_VM_PAGER_H_

#include <cstdint>

#include "src/common/types.h"

namespace ace {

class VmObject;

class Pager {
 public:
  virtual ~Pager() = default;

  // Attempt to free one logical page by paging it out; finding no victim is not an
  // error (the caller retries its pool allocation either way). Charges `proc` system
  // time.
  virtual void EvictSomePage(ProcId proc) = 0;

  // Does backing store hold content for this object page?
  virtual bool IsPagedOut(const VmObject& object, std::uint64_t index) const = 0;

  // Restore paged-out content into freshly allocated logical page `lp`.
  virtual void PageIn(const VmObject& object, std::uint64_t index, LogicalPage lp,
                      ProcId proc) = 0;

  // A (re)materialized object page is now resident in `lp`.
  virtual void NoteResident(VmObject* object, std::uint64_t index, LogicalPage lp) = 0;
};

}  // namespace ace

#endif  // SRC_VM_PAGER_H_
