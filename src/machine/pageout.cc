#include "src/machine/pageout.h"

#include <cstring>

#include "src/common/check.h"

namespace ace {

AcePager::AcePager(PagerOptions options, PmapAce* pmap, PagePool* pool, ProcClocks* clocks,
                   std::uint32_t page_size)
    : options_(options),
      pmap_(pmap),
      pool_(pool),
      clocks_(clocks),
      page_size_(page_size),
      resident_(pmap->manager().num_pages()) {}

void AcePager::NoteResident(VmObject* object, std::uint64_t index, LogicalPage lp) {
  ACE_CHECK(lp < resident_.size());
  ACE_CHECK(object->id() < (1ull << 40) && index < (1ull << 24));
  Residence& r = resident_[lp];
  ACE_CHECK_MSG(!r.valid, "logical page already has a residence record");
  r.object = object;
  r.index = index;
  r.valid = true;
  r.generation++;
  scan_queue_.push_back(ScanEntry{lp, r.generation});
}

void AcePager::NoteFreed(LogicalPage lp) {
  if (lp < resident_.size()) {
    resident_[lp].valid = false;
    resident_[lp].generation++;
  }
  // The stale scan-queue entry is skipped lazily during the next scan.
}

bool AcePager::IsPagedOut(const VmObject& object, std::uint64_t index) const {
  return backing_.contains(BackingKey(object.id(), index));
}

void AcePager::PageIn(const VmObject& object, std::uint64_t index, LogicalPage lp,
                      ProcId proc) {
  auto it = backing_.find(BackingKey(object.id(), index));
  ACE_CHECK_MSG(it != backing_.end(), "PageIn without backing content");
  pmap_->manager().LoadPageContent(lp, it->second.data(), proc);
  clocks_->ChargeSystem(proc, options_.disk_read_ns);
  backing_.erase(it);
  stats_.pageins++;
}

void AcePager::EvictSomePage(ProcId proc) {
  // Second-chance scan: examine at most 2x the queue (each page may be spared once).
  std::size_t budget = 2 * scan_queue_.size();
  while (budget-- > 0 && !scan_queue_.empty()) {
    ScanEntry entry = scan_queue_.front();
    scan_queue_.pop_front();
    LogicalPage lp = entry.lp;
    Residence& r = resident_[lp];
    if (!r.valid || r.generation != entry.generation) {
      continue;  // stale entry: the page was freed or re-registered since
    }
    bool referenced = pmap_->HasMappings(lp);
    if (injector_ != nullptr &&
        injector_->ShouldInject(FaultSite::kPageoutVictimContention, proc)) {
      referenced = true;
    }
    if (referenced) {
      // Referenced since we last looked: drop the mappings (they will fault back in
      // if the page is still in use) and spare the page this round.
      pmap_->RemoveAll(lp);
      scan_queue_.push_back(entry);
      stats_.second_chances++;
      continue;
    }
    // Victim: collapse cache state, write the content out, release the logical page.
    const std::uint8_t* content = pmap_->manager().PrepareForPageout(lp, proc);
    std::vector<std::uint8_t> copy(content, content + page_size_);
    backing_[BackingKey(r.object->id(), r.index)] = std::move(copy);
    clocks_->ChargeSystem(proc, options_.disk_write_ns);
    r.object->SetPage(r.index, kNoLogicalPage);
    r.valid = false;
    r.generation++;
    // Freeing resets NUMA state and policy counters (lazily): a pinned page that is
    // paged out and back in gets its placement reconsidered — the paper's footnote.
    pool_->Free(lp);
    stats_.pageouts++;
    return;
  }
}

}  // namespace ace
