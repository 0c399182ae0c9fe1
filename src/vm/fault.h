// The machine-independent page fault handler.
//
// Faults drive everything in this system: first touches (zero-fill), accesses to pages
// the NUMA manager removed or marked read-only, and refaults from the Rosetta
// single-mapping restriction (paper section 2.3.1) all arrive here and are resolved by
// re-entering the mapping through the pmap interface.

#ifndef SRC_VM_FAULT_H_
#define SRC_VM_FAULT_H_

#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/sim/stats.h"
#include "src/vm/page_pool.h"
#include "src/vm/pager.h"
#include "src/vm/pmap.h"
#include "src/vm/task.h"

namespace ace {

enum class FaultStatus {
  kResolved = 0,
  kBadAddress = 1,         // no region maps this address
  kProtectionViolation = 2,  // region exists but forbids this access
  kOutOfMemory = 3,        // logical page pool exhausted
};

inline const char* FaultStatusName(FaultStatus s) {
  switch (s) {
    case FaultStatus::kResolved:
      return "resolved";
    case FaultStatus::kBadAddress:
      return "bad-address";
    case FaultStatus::kProtectionViolation:
      return "protection-violation";
    case FaultStatus::kOutOfMemory:
      return "out-of-memory";
  }
  return "?";
}

class FaultHandler {
 public:
  // How many evict-then-retry rounds a single allocation may drive before the fault
  // reports out-of-memory. One round reproduces the historical behavior; the extra
  // rounds absorb transient failures (a spared pageout victim, an injected pool
  // fault) instead of failing the fault on the first miss.
  static constexpr int kMaxEvictRetries = 6;

  // `pager` may be null (no backing store: allocation failure is fatal to the fault).
  // `stats` may be null; when set, the degradation counters record retry rounds beyond
  // the first and allocations that still failed after the retry budget.
  FaultHandler(PmapSystem* pmap, PagePool* pool, Pager* pager = nullptr,
               MachineStats* stats = nullptr)
      : pmap_(pmap), pool_(pool), pager_(pager), stats_(stats) {}

  // Fault observer (observability layer). Called once per Handle with the outcome and
  // the logical page that resolved the fault (kNoLogicalPage on errors). A function
  // pointer rather than an interface keeps this header free of obs dependencies.
  using Observer = void (*)(void* ctx, ProcId proc, LogicalPage lp, std::uint8_t status);
  void SetObserver(Observer observer, void* ctx) {
    observer_ = observer;
    observer_ctx_ = ctx;
  }

  // Resolve a fault on `va` in `task`, caused by an access of `kind` from `proc`.
  FaultStatus Handle(Task& task, VirtAddr va, AccessKind kind, ProcId proc) {
    LogicalPage lp = kNoLogicalPage;
    FaultStatus status = Resolve(task, va, kind, proc, &lp);
    if (observer_ != nullptr) {
      observer_(observer_ctx_, proc, lp, static_cast<std::uint8_t>(status));
    }
    return status;
  }

  // Materialize `object`'s page `index` outside a fault (debug read/write paths): on a
  // pager machine an evicted page must be paged back in, not observed as absent. Goes
  // through the same retry-with-pageout path as a real fault; returns kNoLogicalPage
  // only if the pool stays exhausted.
  LogicalPage MaterializeForDebug(VmObject& object, std::uint64_t index, ProcId proc = 0) {
    return MaterializePage(object, index, proc);
  }

 private:
  FaultStatus Resolve(Task& task, VirtAddr va, AccessKind kind, ProcId proc,
                      LogicalPage* out_lp) {
    const Region* region = task.FindRegion(va);
    if (region == nullptr) {
      return FaultStatus::kBadAddress;
    }
    Protection min_prot = MinProtFor(kind);
    if (!Allows(region->max_prot, kind)) {
      return FaultStatus::kProtectionViolation;
    }
    std::uint64_t offset_in_region = va - region->start;
    std::uint64_t object_page = (region->object_offset + offset_in_region) / task.page_size();
    VirtPage vpage = va / task.page_size();

    if (region->shadow != nullptr) {
      return HandleCopyOnWrite(task, *region, vpage, object_page,
                               offset_in_region / task.page_size(), kind, proc, out_lp);
    }

    LogicalPage lp = MaterializePage(*region->object, object_page, proc);
    if (lp == kNoLogicalPage) {
      return FaultStatus::kOutOfMemory;
    }
    if (region->pragma != PlacementPragma::kDefault) {
      pmap_->AdvisePlacement(lp, region->pragma);
    }
    pmap_->Enter(task.pmap(), vpage, lp, region->max_prot, min_prot, proc);
    *out_lp = lp;
    return FaultStatus::kResolved;
  }
  // Copy-on-write resolution (paper section 2.1: protections are reduced to implement
  // copy-on-write). Reads are served from the backing object mapped at most read-only;
  // the first write to a page copies it into the region's private shadow object.
  FaultStatus HandleCopyOnWrite(Task& task, const Region& region, VirtPage vpage,
                                std::uint64_t object_page, std::uint64_t shadow_page,
                                AccessKind kind, ProcId proc, LogicalPage* out_lp) {
    LogicalPage shadow_lp = region.shadow->PageAt(shadow_page);
    if (shadow_lp != kNoLogicalPage) {
      // Already copied: the shadow page behaves like ordinary anonymous memory.
      pmap_->Enter(task.pmap(), vpage, shadow_lp, region.max_prot, MinProtFor(kind), proc);
      *out_lp = shadow_lp;
      return FaultStatus::kResolved;
    }
    if (kind == AccessKind::kFetch) {
      LogicalPage src = MaterializePage(*region.object, object_page, proc);
      if (src == kNoLogicalPage) {
        return FaultStatus::kOutOfMemory;
      }
      // Cap the mapping at read-only so every write keeps faulting into the copy path.
      pmap_->Enter(task.pmap(), vpage, src, Protection::kRead, Protection::kRead, proc);
      *out_lp = src;
      return FaultStatus::kResolved;
    }
    // Write: copy the backing page into a fresh private page.
    LogicalPage src = MaterializePage(*region.object, object_page, proc);
    if (src == kNoLogicalPage) {
      return FaultStatus::kOutOfMemory;
    }
    LogicalPage dst = AllocateFresh(proc);
    if (dst == kNoLogicalPage) {
      return FaultStatus::kOutOfMemory;
    }
    pmap_->CopyPage(src, dst);
    region.shadow->SetPage(shadow_page, dst);
    if (pager_ != nullptr) {
      pager_->NoteResident(region.shadow, shadow_page, dst);
    }
    // Drop every processor's read mapping of the backing page at this address so the
    // whole task observes the private copy from now on.
    pmap_->Remove(task.pmap(), vpage, vpage);
    pmap_->Enter(task.pmap(), vpage, dst, region.max_prot, Protection::kReadWrite, proc);
    *out_lp = dst;
    return FaultStatus::kResolved;
  }

  // Allocate a logical page, driving pageout to free space when the pool is empty.
  // Bounded at kMaxEvictRetries rounds, each an eviction attempt and a fresh Alloc.
  // The Alloc is retried even when the pager found nothing to evict: a failure may be
  // an injected, transient pool miss while free pages remain (as before any page is
  // resident). Rounds beyond the first count as degraded_pool_retries (the first round
  // is the ordinary alloc-evict-alloc path), and a final failure as a
  // degraded_oom_fault.
  LogicalPage AllocWithRetry(ProcId proc) {
    LogicalPage lp = pool_->Alloc();
    for (int attempt = 0;
         lp == kNoLogicalPage && pager_ != nullptr && attempt < kMaxEvictRetries; ++attempt) {
      if (attempt > 0 && stats_ != nullptr) {
        stats_->degraded_pool_retries++;
      }
      pager_->EvictSomePage(proc);
      lp = pool_->Alloc();
    }
    if (lp == kNoLogicalPage && stats_ != nullptr) {
      stats_->degraded_oom_faults++;
    }
    return lp;
  }

  LogicalPage AllocateFresh(ProcId proc) { return AllocWithRetry(proc); }

  LogicalPage MaterializePage(VmObject& object, std::uint64_t index, ProcId proc) {
    LogicalPage lp = object.PageAt(index);
    if (lp != kNoLogicalPage) {
      return lp;
    }
    lp = AllocWithRetry(proc);
    if (lp == kNoLogicalPage) {
      return kNoLogicalPage;
    }
    if (pager_ != nullptr && pager_->IsPagedOut(object, index)) {
      pager_->PageIn(object, index, lp, proc);
    } else {
      pmap_->ZeroPage(lp);
    }
    object.SetPage(index, lp);
    if (pager_ != nullptr) {
      pager_->NoteResident(&object, index, lp);
    }
    return lp;
  }

  PmapSystem* pmap_;
  PagePool* pool_;
  Pager* pager_;
  MachineStats* stats_ = nullptr;
  Observer observer_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace ace

#endif  // SRC_VM_FAULT_H_
