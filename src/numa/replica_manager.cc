#include "src/numa/replica_manager.h"

#include <cstring>

namespace ace {

ReplicaManager::ReplicaManager(const MachineConfig& config, PhysicalMemory* phys,
                               ProcClocks* clocks, MachineStats* stats, Options options)
    : phys_(phys),
      clocks_(clocks),
      stats_(stats),
      options_(options),
      page_size_(config.page_size),
      words_per_page_(config.WordsPerPage()),
      journal_(config.global_pages),
      unreplicated_(config.global_pages, 0),
      checksum_(config.global_pages, 0),
      checksum_valid_(config.global_pages, 0) {
  ACE_CHECK(options_.journal_page_cap > 0);
  // Mirror writes go off-node: one local fetch of the word plus one global store of
  // the mirror copy — the same per-word discipline PhysicalMemory::CopyPage charges.
  mirror_word_ns_ = config.latency.Cost(MemoryClass::kLocal, AccessKind::kFetch) +
                    config.latency.Cost(MemoryClass::kGlobal, AccessKind::kStore);
  copy_efficiency_ = config.kernel.copy_efficiency;
}

TimeNs ReplicaManager::ChargeMirror(ProcId proc, std::uint32_t words) {
  TimeNs cost = static_cast<TimeNs>(static_cast<double>(mirror_word_ns_) * words *
                                    copy_efficiency_);
  clocks_->ChargeSystem(proc, cost);
  return cost;
}

void ReplicaManager::NoteOwnedStore(LogicalPage lp, const std::uint8_t* frame,
                                    std::uint32_t offset, std::uint32_t value, ProcId proc,
                                    bool charge) {
  ACE_DCHECK(lp < journal_.size());
  std::vector<std::uint8_t>& journal = journal_[lp];
  if (journal.empty()) {
    if (unreplicated_[lp] != 0) {
      return;  // the cap verdict stands until the page syncs or resets
    }
    if (open_journals_ >= options_.journal_page_cap) {
      unreplicated_[lp] = 1;
      return;
    }
    // First store since ownership: mirror the whole frame off-node. The frame content
    // is post-write, so the mirror already carries this store's value.
    journal.assign(frame, frame + page_size_);
    ++open_journals_;
    stats_->replicated_pages++;
    stats_->journal_bytes += page_size_;
    if (charge) {
      ChargeMirror(proc, words_per_page_);
    }
    return;
  }
  ACE_DCHECK(offset % kWordBytes == 0 && offset < page_size_);
  std::memcpy(journal.data() + offset, &value, kWordBytes);
  stats_->journal_bytes += kWordBytes;
  if (charge) {
    ChargeMirror(proc, 1);
  }
}

void ReplicaManager::CloseJournal(LogicalPage lp) {
  ACE_DCHECK(lp < journal_.size());
  if (!journal_[lp].empty()) {
    journal_[lp].clear();
    journal_[lp].shrink_to_fit();
    ACE_DCHECK(open_journals_ > 0);
    --open_journals_;
  }
  unreplicated_[lp] = 0;
}

void ReplicaManager::BlessGlobal(LogicalPage lp) {
  ACE_DCHECK(lp < checksum_.size());
  checksum_[lp] = PageChecksum(phys_->FrameData(FrameRef::Global(lp)), page_size_);
  checksum_valid_[lp] = 1;
}

void ReplicaManager::InvalidateChecksum(LogicalPage lp) {
  ACE_DCHECK(lp < checksum_.size());
  checksum_valid_[lp] = 0;
}

bool ReplicaManager::VerifyGlobal(LogicalPage lp) {
  ACE_DCHECK(lp < checksum_.size());
  if (checksum_valid_[lp] == 0) {
    BlessGlobal(lp);
    return true;
  }
  return PageChecksum(phys_->FrameData(FrameRef::Global(lp)), page_size_) == checksum_[lp];
}

}  // namespace ace
