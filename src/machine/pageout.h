// The ACE pageout daemon and backing store.
//
// When the logical page pool (global memory) is exhausted, a fault evicts a victim
// page to simulated backing store and reuses its frame; a later touch pages it back
// in. Two pieces of the paper live here:
//
//  * victim selection uses the Unix-pageout trick the paper cites (section 4.4):
//    drop a candidate's mappings and give it a second chance — if it faults the
//    mappings back in before the scan returns, it was referenced and survives;
//    "tricks such as those of the Unix pageout daemon detect only the presence or
//    absence of references, not their frequency";
//
//  * paging a pinned page out and back in resets its placement state — the one way
//    the paper's system ever reconsiders a pinning decision (section 4.3 footnote).
//    The reset happens automatically: eviction frees the logical page, and the lazy
//    free resets both the NUMA manager's state and the policy's per-page counters.

#ifndef SRC_MACHINE_PAGEOUT_H_
#define SRC_MACHINE_PAGEOUT_H_

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/inject/fault_plan.h"
#include "src/numa/pmap_ace.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/vm/page_pool.h"
#include "src/vm/pager.h"
#include "src/vm/vm_object.h"

namespace ace {

struct PagerOptions {
  // Simulated disk transfer times per page (a late-1980s disk: seek + rotation +
  // transfer, ~20 ms). Charged as system time to the faulting processor.
  TimeNs disk_write_ns = 20'000'000;
  TimeNs disk_read_ns = 20'000'000;
};

struct PagerStats {
  std::uint64_t pageouts = 0;
  std::uint64_t pageins = 0;
  std::uint64_t second_chances = 0;  // candidates spared because they were mapped
};

class AcePager : public Pager {
 public:
  AcePager(PagerOptions options, PmapAce* pmap, PagePool* pool, ProcClocks* clocks,
           std::uint32_t page_size);

  // --- Pager interface --------------------------------------------------------------
  void EvictSomePage(ProcId proc) override;
  bool IsPagedOut(const VmObject& object, std::uint64_t index) const override;
  void PageIn(const VmObject& object, std::uint64_t index, LogicalPage lp,
              ProcId proc) override;
  void NoteResident(VmObject* object, std::uint64_t index, LogicalPage lp) override;

  // Page freed through the normal VM path (not evicted): forget the residence record.
  void NoteFreed(LogicalPage lp);

  // Arm fault injection for EvictSomePage: a kPageoutVictimContention fire makes the
  // candidate under examination read as referenced (it is spared and re-queued, like a
  // page another processor touched mid-scan). The scan budget already bounds the
  // extra work, so a contended scan still terminates.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  const PagerStats& stats() const { return stats_; }
  std::size_t backing_pages() const { return backing_.size(); }

 private:
  struct Residence {
    VmObject* object = nullptr;
    std::uint64_t index = 0;
    bool valid = false;
    std::uint64_t generation = 0;  // bumped on every residence change; stamps queue entries
  };

  struct ScanEntry {
    LogicalPage lp;
    std::uint64_t generation;
  };

  // Exact composite key (no collisions): 40 bits of object id, 24 bits of page index.
  static std::uint64_t BackingKey(std::uint64_t object_id, std::uint64_t index) {
    return (object_id << 24) | index;
  }

  PagerOptions options_;
  PmapAce* pmap_;
  PagePool* pool_;
  ProcClocks* clocks_;
  std::uint32_t page_size_;

  // Residence registry indexed by logical page, plus a FIFO scan queue.
  std::vector<Residence> resident_;
  std::deque<ScanEntry> scan_queue_;

  // Backing store: (object id, page index) -> page content.
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> backing_;

  PagerStats stats_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace ace

#endif  // SRC_MACHINE_PAGEOUT_H_
