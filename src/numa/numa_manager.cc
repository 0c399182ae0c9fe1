#include "src/numa/numa_manager.h"

#include <cstring>

#include "src/common/check.h"
#include "src/common/splitmix64.h"
#include "src/inject/fault_plan.h"
#include "src/numa/replica_manager.h"
#include "src/obs/observability.h"

namespace ace {

NumaManager::NumaManager(const MachineConfig& config, PhysicalMemory* phys, ProcClocks* clocks,
                         MachineStats* stats, NumaPolicy* policy, MappingControl* mappings)
    : phys_(phys),
      clocks_(clocks),
      stats_(stats),
      policy_(policy),
      mappings_(mappings),
      kernel_(config.kernel),
      page_size_(config.page_size),
      num_processors_(config.num_processors),
      pages_(config.global_pages) {}

// --- protocol invariants (conformance subsystem) --------------------------------------
//
// Compiled in under the ACE_CHECK_INVARIANTS CMake option; every state-changing entry
// point verifies the touched page(s) before returning, so a protocol bug aborts at the
// operation that introduced it rather than surfacing as corrupted application output
// much later. See the invariant list in numa_manager.h.

#ifdef ACE_CHECK_INVARIANTS

void NumaManager::VerifyPageInvariants(LogicalPage lp) const {
  const NumaPageInfo& info = pages_[lp];
  switch (info.state) {
    case PageState::kReadOnly:
      ACE_CHECK_MSG(info.owner == kNoProc, "invariant: Read-Only page has an owner");
      break;
    case PageState::kLocalWritable:
    case PageState::kRemoteHomed:
      ACE_CHECK_MSG(info.owner != kNoProc, "invariant: writable-cached page lacks an owner");
      ACE_CHECK_MSG(info.copies.Contains(info.owner) && info.copies.Count() == 1,
                    "invariant: owned page must have exactly the owner's local copy");
      break;
    case PageState::kGlobalWritable:
      ACE_CHECK_MSG(info.copies.Empty(), "invariant: Global-Writable page has local copies");
      ACE_CHECK_MSG(info.owner == kNoProc, "invariant: Global-Writable page has an owner");
      break;
  }

  for (ProcId p = 0; p < num_processors_; ++p) {
    bool has_copy = info.copies.Contains(p);
    bool has_frame = info.local_frame[static_cast<std::size_t>(p)] != NumaPageInfo::kNoFrame;
    ACE_CHECK_MSG(has_copy == has_frame,
                  "invariant: copies set and local-frame table disagree");
  }
  ACE_CHECK_MSG((info.copies.bits() >> num_processors_) == 0,
                "invariant: copy held by a nonexistent processor");

  ACE_CHECK_MSG(!info.zero_pending || info.state == PageState::kReadOnly,
                "invariant: lazy zero-fill pending on a writable page");

  // Local memories are a cache over global memory: every Read-Only replica must be
  // byte-identical to the global frame (or all-zero while the zero-fill is pending).
  if (info.state == PageState::kReadOnly && !info.copies.Empty()) {
    const std::uint8_t* global = phys_->FrameData(FrameRef::Global(lp));
    info.copies.ForEach([&](ProcId holder) {
      const std::uint8_t* replica = phys_->FrameData(
          FrameRef::Local(holder, info.local_frame[static_cast<std::size_t>(holder)]));
      if (info.zero_pending) {
        for (std::uint32_t i = 0; i < page_size_; ++i) {
          ACE_CHECK_MSG(replica[i] == 0, "invariant: pending-zero replica is not zero");
        }
      } else {
        ACE_CHECK_MSG(std::memcmp(replica, global, page_size_) == 0,
                      "invariant: Read-Only replica diverges from the global copy");
      }
    });
  }
}

void NumaManager::VerifyAllInvariants() const {
  std::array<std::uint32_t, kMaxProcessors> held{};
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    VerifyPageInvariants(lp);
    pages_[lp].copies.ForEach(
        [&](ProcId p) { held[static_cast<std::size_t>(p)]++; });
  }
  for (ProcId p = 0; p < num_processors_; ++p) {
    // AllocatedLocalFrames, not capacity - FreeLocalFrames: a drain-mem chaos limit
    // caps FreeLocalFrames without changing how many frames are actually held.
    std::uint32_t allocated = phys_->AllocatedLocalFrames(p);
    ACE_CHECK_MSG(allocated == held[static_cast<std::size_t>(p)],
                  "invariant: allocated local frames not accounted to pages");
  }
}

#define ACE_VERIFY_PAGE(lp) VerifyPageInvariants(lp)

#else  // !ACE_CHECK_INVARIANTS

void NumaManager::VerifyPageInvariants(LogicalPage) const {}
void NumaManager::VerifyAllInvariants() const {}

#define ACE_VERIFY_PAGE(lp) \
  do {                      \
  } while (0)

#endif  // ACE_CHECK_INVARIANTS

NumaPageInfo& NumaManager::Info(LogicalPage lp) {
  ACE_CHECK(lp < pages_.size());
  return pages_[lp];
}

const NumaPageInfo& NumaManager::PageInfo(LogicalPage lp) const {
  ACE_CHECK(lp < pages_.size());
  return pages_[lp];
}

// --- observability hooks ---------------------------------------------------------------
//
// Out of line on purpose: every call site pays only the `obs_ != nullptr` test (never
// taken unless an Observability has been attached); the event plumbing lives here.

void NumaManager::ObsEvent(TraceEventType type, LogicalPage lp, ProcId proc,
                           std::uint32_t aux) {
  if (obs_ != nullptr) {
    obs_->OnEvent(type, lp, proc, aux);
  }
}

void NumaManager::ObsNoteState(LogicalPage lp, ProcId proc) {
  if (obs_ != nullptr) {
    obs_->NoteState(lp, Info(lp).state, proc);
  }
}

void NumaManager::MarkZeroPending(LogicalPage lp) {
  NumaPageInfo& info = Info(lp);
  ACE_CHECK_MSG(info.state == PageState::kReadOnly && info.copies.Empty(),
                "ZeroPage on a page that already has cache state");
  info.zero_pending = true;
  ACE_VERIFY_PAGE(lp);
}

void NumaManager::SetPragma(LogicalPage lp, PlacementPragma pragma) {
  Info(lp).pragma = pragma;
  policy_->NoteAdvice(lp, pragma);
}

// --- consistency primitives ----------------------------------------------------------

void NumaManager::SyncOwner(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  ACE_CHECK((info.state == PageState::kLocalWritable ||
             info.state == PageState::kRemoteHomed) &&
            info.owner != kNoProc);
  if (injector_ != nullptr && injector_->ShouldInject(FaultSite::kSkipSync, proc)) {
    return;  // conformance-harness protocol mutation: leave the global copy stale
  }
  std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(info.owner)];
  ACE_CHECK(frame_idx != NumaPageInfo::kNoFrame);
  FrameRef local = FrameRef::Local(info.owner, frame_idx);
  FrameRef global = FrameRef::Global(lp);
  TimeNs cost = phys_->CopyPage(local, global, proc);
  ChargeSystem(proc, cost + kernel_.consistency_op_ns);
  stats_->page_syncs++;
  ObsEvent(TraceEventType::kSync, lp, proc, static_cast<std::uint32_t>(info.owner));
  if (replica_ != nullptr) {
    // The global frame is current again and *is* the off-node mirror now; the
    // dirty-page journal retires and the integrity checksum is re-blessed.
    replica_->CloseJournal(lp);
    replica_->BlessGlobal(lp);
  }
}

void NumaManager::FlushCopy(LogicalPage lp, ProcId holder, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  ACE_CHECK(info.copies.Contains(holder));
  mappings_->RemoveMappingsOn(lp, holder);
  std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(holder)];
  ACE_CHECK(frame_idx != NumaPageInfo::kNoFrame);
  phys_->FreeLocal(FrameRef::Local(holder, frame_idx));
  info.local_frame[static_cast<std::size_t>(holder)] = NumaPageInfo::kNoFrame;
  info.copies.Remove(holder);
  ChargeSystem(proc, kernel_.consistency_op_ns);
  stats_->page_flushes++;
  ObsEvent(TraceEventType::kFlush, lp, proc, static_cast<std::uint32_t>(holder));
}

void NumaManager::FlushAllCopies(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  info.copies.ForEach([&](ProcId holder) { FlushCopy(lp, holder, proc); });
}

void NumaManager::FlushCopiesExcept(LogicalPage lp, ProcId keep, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  info.copies.ForEach([&](ProcId holder) {
    if (holder != keep) {
      FlushCopy(lp, holder, proc);
    }
  });
}

void NumaManager::UnmapAll(LogicalPage lp, ProcId proc) {
  mappings_->RemoveAllMappings(lp);
  ChargeSystem(proc, kernel_.consistency_op_ns);
  stats_->page_unmaps++;
  ObsEvent(TraceEventType::kUnmap, lp, proc);
}

bool NumaManager::EnsureLocalCopy(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  if (info.copies.Contains(proc)) {
    return true;
  }
  FrameRef frame = phys_->AllocLocal(proc);
  if (!frame.valid()) {
    stats_->local_alloc_failures++;
    ObsEvent(TraceEventType::kLocalAllocFail, lp, proc);
    return false;
  }
  if (injector_ != nullptr &&
      injector_->ShouldInject(FaultSite::kReplicationCopyFail, proc)) {
    // The copy into the fresh frame failed; give the frame back and report the same
    // "no local copy" outcome as exhaustion, so the caller degrades identically.
    phys_->FreeLocal(frame);
    stats_->degraded_copy_failures++;
    ObsEvent(TraceEventType::kDegrade, lp, proc,
             static_cast<std::uint32_t>(FaultSite::kReplicationCopyFail));
    return false;
  }
  TimeNs cost;
  if (info.zero_pending) {
    // Lazy zero-fill lands directly in the destination local memory — the optimization
    // of paper section 2.3.1 (avoid zeroing global memory and immediately copying).
    cost = phys_->ZeroPage(frame, proc);
    stats_->zero_fills++;
    ObsEvent(TraceEventType::kZeroFill, lp, proc);
  } else {
    if (replica_ != nullptr && !replica_->VerifyGlobal(lp)) {
      // Integrity checksum failed on the remote fetch: the global frame was silently
      // corrupted. Repair it before the copy so the corruption never replicates.
      RepairGlobal(lp, proc);
    }
    cost = phys_->CopyPage(FrameRef::Global(lp), frame, proc);
    stats_->page_copies++;
    ObsEvent(TraceEventType::kReplicate, lp, proc);
  }
  ChargeSystem(proc, cost);
  info.local_frame[static_cast<std::size_t>(proc)] = frame.index;
  info.copies.Add(proc);
  return true;
}

void NumaManager::MaterializeGlobalZero(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  if (!info.zero_pending) {
    return;
  }
  TimeNs cost = phys_->ZeroPage(FrameRef::Global(lp), proc);
  ChargeSystem(proc, cost);
  stats_->zero_fills++;
  ObsEvent(TraceEventType::kZeroFill, lp, proc);
  info.zero_pending = false;
}

void NumaManager::CountOwnershipMove(LogicalPage lp, ProcId proc) {
  if (injector_ != nullptr && injector_->ShouldInject(FaultSite::kSkipMoveCount, proc)) {
    return;  // conformance-harness protocol mutation: the policy never sees its raw material
  }
  stats_->ownership_moves++;
  policy_->NoteOwnershipMove(lp);
  ObsEvent(TraceEventType::kMigrate, lp, proc, static_cast<std::uint32_t>(proc));
}

void NumaManager::BecomeOwner(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  ACE_CHECK(info.copies.Contains(proc));
  info.state = PageState::kLocalWritable;
  info.owner = proc;
  // The local frame is about to receive stores through a writable mapping; the page's
  // logical content is no longer guaranteed zero.
  info.zero_pending = false;
  if (info.last_owner != kNoProc && info.last_owner != proc) {
    CountOwnershipMove(lp, proc);
  }
  info.last_owner = proc;
}

// --- request resolution ----------------------------------------------------------------

Resolution NumaManager::HandleRequest(LogicalPage lp, AccessKind kind, ProcId proc,
                                      Protection max_prot) {
  ACE_CHECK_MSG(kind == AccessKind::kFetch || max_prot == Protection::kReadWrite,
                "write request needs writable region");
  NumaPageInfo& info = Info(lp);
  // Pin detection: the policy pins internally (bumping stats_->pages_pinned) when the
  // move limit is hit, so the pin event is recovered from the counter delta.
  const bool observing = obs_ != nullptr;
  const std::uint64_t pins_before = observing ? stats_->pages_pinned : 0;
  Placement decision = policy_->CachePolicy(lp, kind, proc);
  if (observing && stats_->pages_pinned != pins_before) {
    ObsEvent(TraceEventType::kPin, lp, proc);
  }

  // If the policy wants LOCAL but this processor's local memory is exhausted, fall
  // back to global placement for this request (the policy is not told; the page is not
  // pinned). Counted so experiments can detect cache pressure. A remote-homed page
  // needs a frame at `proc` only when a LOCAL decision migrates it away from a
  // different home (found by the conformance checker: the old condition skipped
  // remote-homed pages entirely and the un-guarded copy aborted on full memory).
  bool needs_local_frame;
  if (info.state == PageState::kRemoteHomed) {
    needs_local_frame = decision == Placement::kLocal && info.owner != proc;
  } else {
    needs_local_frame = (decision == Placement::kLocal || decision == Placement::kRemoteHome) &&
                        !info.copies.Contains(proc);
  }
  if (needs_local_frame) {
    bool exhausted = phys_->FreeLocalFrames(proc) == 0;
    // The injector is consulted first so the site's occurrence stream does not depend
    // on how full local memory happens to be (nth/every-k plans replay exactly).
    if (injector_ != nullptr &&
        injector_->ShouldInject(FaultSite::kLocalExhausted, proc)) {
      exhausted = true;
    }
    if (exhausted) {
      stats_->local_alloc_failures++;
      ObsEvent(TraceEventType::kLocalAllocFail, lp, proc);
      decision = Placement::kGlobal;
    }
  }
  if (observing) {
    obs_->NoteDecision(decision);
  }

  Resolution r;
  switch (decision) {
    case Placement::kRemoteHome:
      r = ResolveRemote(lp, proc, max_prot);
      break;
    case Placement::kGlobal:
      r = ResolveGlobal(lp, proc, max_prot);
      break;
    case Placement::kLocal:
      r = kind == AccessKind::kFetch ? ResolveRead(lp, proc, max_prot)
                                     : ResolveWrite(lp, proc, max_prot);
      break;
  }

  ObsNoteState(lp, proc);
  ACE_VERIFY_PAGE(lp);
  return r;
}

Resolution NumaManager::ResolveRead(LogicalPage lp, ProcId proc, Protection max_prot) {
  NumaPageInfo& info = Info(lp);
  switch (info.state) {
    case PageState::kReadOnly: {
      // Table 1 [LOCAL x Read-Only]: copy to local; stays Read-Only.
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      break;
    }
    case PageState::kGlobalWritable: {
      // Table 1 [LOCAL x Global-Writable]: unmap all; copy to local; Read-Only.
      UnmapAll(lp, proc);
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      info.state = PageState::kReadOnly;
      info.owner = kNoProc;
      break;
    }
    case PageState::kRemoteHomed: {
      // Section 4.4 extension: leaving the remote-homed state. All processors may
      // hold (remote) mappings to the home frame, so drop every mapping first.
      UnmapAll(lp, proc);
      if (info.owner == proc) {
        // The home reclaims the page as plain local-writable.
        info.state = PageState::kLocalWritable;
        std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(proc)];
        return Resolution{FrameRef::Local(proc, frame_idx),
                          max_prot == Protection::kReadWrite ? Protection::kReadWrite
                                                             : Protection::kRead};
      }
      SyncOwner(lp, proc);
      FlushCopy(lp, info.owner, proc);
      info.state = PageState::kReadOnly;
      info.owner = kNoProc;
      CountOwnershipMove(lp, proc);
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      break;
    }
    case PageState::kLocalWritable: {
      if (info.owner == proc) {
        // Table 1 [LOCAL x Local-Writable on own node]: no action.
        std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(proc)];
        return Resolution{FrameRef::Local(proc, frame_idx),
                          max_prot == Protection::kReadWrite ? Protection::kReadWrite
                                                             : Protection::kRead};
      }
      // Table 1 [LOCAL x Local-Writable on other node]: sync&flush other; copy to
      // local; Read-Only. This transfers the page between local memories, so it
      // counts as a "move" for the policy (in Li's ownership protocol a read
      // request takes ownership too). Without this, a page with one writer and
      // several readers thrashes between local memories indefinitely and is never
      // pinned. last_owner is kept, so a subsequent write by the original owner
      // starts another countable cycle.
      SyncOwner(lp, proc);
      FlushCopy(lp, info.owner, proc);
      info.state = PageState::kReadOnly;
      info.owner = kNoProc;
      CountOwnershipMove(lp, proc);
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      break;
    }
  }
  // New state Read-Only: the mapping must be read-only even if the user may write,
  // so that replication is preserved until an actual write fault (pmap extension 2).
  std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(proc)];
  return Resolution{FrameRef::Local(proc, frame_idx), Protection::kRead};
}

Resolution NumaManager::ResolveWrite(LogicalPage lp, ProcId proc, Protection max_prot) {
  NumaPageInfo& info = Info(lp);
  switch (info.state) {
    case PageState::kReadOnly: {
      // Table 2 [LOCAL x Read-Only]: flush other; copy to local; Local-Writable.
      FlushCopiesExcept(lp, proc, proc);
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      BecomeOwner(lp, proc);
      break;
    }
    case PageState::kGlobalWritable: {
      // Table 2 [LOCAL x Global-Writable]: unmap all; copy to local; Local-Writable.
      UnmapAll(lp, proc);
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      BecomeOwner(lp, proc);
      break;
    }
    case PageState::kRemoteHomed: {
      UnmapAll(lp, proc);
      if (info.owner != proc) {
        SyncOwner(lp, proc);
        FlushCopy(lp, info.owner, proc);
        info.state = PageState::kReadOnly;  // transiently, until we take ownership
        info.owner = kNoProc;
        if (!EnsureLocalCopy(lp, proc)) {
          return DegradeToGlobal(lp, proc, max_prot);
        }
        BecomeOwner(lp, proc);
      } else {
        info.state = PageState::kLocalWritable;
      }
      break;
    }
    case PageState::kLocalWritable: {
      if (info.owner != proc) {
        // Table 2 [LOCAL x Local-Writable on other node]: sync&flush other; copy to
        // local; Local-Writable.
        SyncOwner(lp, proc);
        FlushCopy(lp, info.owner, proc);
        info.state = PageState::kReadOnly;  // transiently, until we take ownership
        info.owner = kNoProc;
        if (!EnsureLocalCopy(lp, proc)) {
          return DegradeToGlobal(lp, proc, max_prot);
        }
        BecomeOwner(lp, proc);
      }
      // else Table 2 [LOCAL x Local-Writable on own node]: no action.
      break;
    }
  }
  std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(proc)];
  return Resolution{FrameRef::Local(proc, frame_idx), Protection::kReadWrite};
}

// Tables 1 and 2 share the GLOBAL row: the same cleanup whether the request is a read
// or a write, ending Global-Writable.
Resolution NumaManager::ResolveGlobal(LogicalPage lp, ProcId proc, Protection max_prot) {
  NumaPageInfo& info = Info(lp);
  switch (info.state) {
    case PageState::kReadOnly:
      // [GLOBAL x Read-Only]: flush all; Global-Writable.
      FlushAllCopies(lp, proc);
      break;
    case PageState::kGlobalWritable:
      // [GLOBAL x Global-Writable]: no action.
      break;
    case PageState::kLocalWritable:
      // [GLOBAL x Local-Writable]: sync&flush own/other; Global-Writable.
      SyncOwner(lp, proc);
      FlushCopy(lp, info.owner, proc);
      info.owner = kNoProc;
      break;
    case PageState::kRemoteHomed:
      // Remote mappings exist on arbitrary processors; drop them all, then write the
      // home copy back and free it.
      UnmapAll(lp, proc);
      SyncOwner(lp, proc);
      FlushCopy(lp, info.owner, proc);
      info.owner = kNoProc;
      break;
  }
  info.state = PageState::kGlobalWritable;
  info.owner = kNoProc;
  if (replica_ != nullptr) {
    // User stores will hit the global frame directly from here on; the checksum can
    // no longer vouch for its content.
    replica_->InvalidateChecksum(lp);
  }
  MaterializeGlobalZero(lp, proc);
  // Global pages are mapped with maximum permissions: there is no consistency state to
  // protect, and mapping loose avoids future faults.
  return Resolution{FrameRef::Global(lp), max_prot};
}

Resolution NumaManager::ResolveRemote(LogicalPage lp, ProcId proc, Protection max_prot) {
  NumaPageInfo& info = Info(lp);
  switch (info.state) {
    case PageState::kReadOnly: {
      // Home the page at the requester: keep/obtain its copy, drop other replicas and
      // all read-only mappings (everyone refaults into a remote mapping of the home).
      FlushCopiesExcept(lp, proc, proc);
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      UnmapAll(lp, proc);
      if (info.last_owner != kNoProc && info.last_owner != proc) {
        CountOwnershipMove(lp, proc);
      }
      info.state = PageState::kRemoteHomed;
      info.owner = proc;
      info.last_owner = proc;
      info.zero_pending = false;
      break;
    }
    case PageState::kGlobalWritable: {
      UnmapAll(lp, proc);
      MaterializeGlobalZero(lp, proc);
      if (!EnsureLocalCopy(lp, proc)) {
        return DegradeToGlobal(lp, proc, max_prot);
      }
      if (info.last_owner != kNoProc && info.last_owner != proc) {
        CountOwnershipMove(lp, proc);
      }
      info.state = PageState::kRemoteHomed;
      info.owner = proc;
      info.last_owner = proc;
      break;
    }
    case PageState::kLocalWritable: {
      // Keep the data where it is: the current owner becomes the home, even when the
      // requester is a different processor (which then maps it remotely).
      info.state = PageState::kRemoteHomed;
      break;
    }
    case PageState::kRemoteHomed:
      break;  // no action
  }
  std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(info.owner)];
  ACE_CHECK(frame_idx != NumaPageInfo::kNoFrame);
  // Remote-homed pages are mapped with maximum permissions on every processor (like
  // global-writable pages, there is no replica state to protect).
  return Resolution{FrameRef::Local(info.owner, frame_idx), max_prot};
}

Resolution NumaManager::DegradeToGlobal(LogicalPage lp, ProcId proc, Protection max_prot) {
  stats_->degraded_global_fallbacks++;
  ObsEvent(TraceEventType::kDegrade, lp, proc, ~0u);
  // The GLOBAL row never needs a local frame, so re-resolving from the page's current
  // (consistent) state cannot fail again.
  return ResolveGlobal(lp, proc, max_prot);
}

// --- lifecycle -------------------------------------------------------------------------

void NumaManager::ResetPage(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  // Mappings were already dropped by the pmap manager; release cache frames.
  info.copies.ForEach([&](ProcId holder) {
    std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(holder)];
    ACE_CHECK(frame_idx != NumaPageInfo::kNoFrame);
    phys_->FreeLocal(FrameRef::Local(holder, frame_idx));
  });
  ChargeSystem(proc, kernel_.consistency_op_ns);
  if (replica_ != nullptr) {
    replica_->CloseJournal(lp);
    replica_->InvalidateChecksum(lp);
  }
  info.Reset();
  policy_->NotePageFreed(lp);
  ObsEvent(TraceEventType::kFree, lp, proc);
  ObsNoteState(lp, proc);
  ACE_VERIFY_PAGE(lp);
}

void NumaManager::CopyLogicalPage(LogicalPage src, LogicalPage dst, ProcId proc) {
  NumaPageInfo& src_info = Info(src);
  NumaPageInfo& dst_info = Info(dst);
  ACE_CHECK_MSG(dst_info.state == PageState::kReadOnly && dst_info.copies.Empty(),
                "pmap_copy_page destination must be fresh");
  if (src_info.zero_pending) {
    // Copy of an all-zero page is itself lazily zero.
    dst_info.zero_pending = true;
    return;
  }
  if (src_info.state == PageState::kLocalWritable ||
      src_info.state == PageState::kRemoteHomed) {
    SyncOwner(src, proc);
  }
  TimeNs cost = phys_->CopyPage(FrameRef::Global(src), FrameRef::Global(dst), proc);
  ChargeSystem(proc, cost);
  stats_->page_copies++;
  ObsEvent(TraceEventType::kReplicate, dst, proc, src);
  dst_info.zero_pending = false;
  if (replica_ != nullptr) {
    replica_->BlessGlobal(dst);  // the copy made dst's global content authoritative
  }
  ACE_VERIFY_PAGE(src);
  ACE_VERIFY_PAGE(dst);
}

std::uint32_t NumaManager::MigrateResidentPages(ProcId from, ProcId to) {
  std::uint32_t moved = 0;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    NumaPageInfo& info = pages_[lp];
    if (info.state == PageState::kLocalWritable && info.owner == from) {
      mappings_->RemoveAllMappings(lp);
      SyncOwner(lp, to);
      FlushCopy(lp, from, to);
      info.state = PageState::kReadOnly;
      info.owner = kNoProc;
      if (EnsureLocalCopy(lp, to)) {
        info.state = PageState::kLocalWritable;
        info.owner = to;
        info.last_owner = to;  // deliberate relocation: the move count is not touched
        ObsEvent(TraceEventType::kBulkMigrate, lp, to, static_cast<std::uint32_t>(to));
        ++moved;
      }
      ObsNoteState(lp, to);
      // else: left read-only with its content in the global frame; the next touch
      // re-places it through the normal fault path.
      ACE_VERIFY_PAGE(lp);
    } else if (info.state == PageState::kReadOnly && info.copies.Contains(from)) {
      // Drop the old home's replica; the thread will fault a fresh one in at `to`.
      FlushCopy(lp, from, to);
      ACE_VERIFY_PAGE(lp);
    }
  }
  return moved;
}

std::uint32_t NumaManager::EvacuateNode(ProcId node, std::uint32_t target_frames, ProcId proc) {
  std::uint32_t evacuated = 0;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    if (phys_->AllocatedLocalFrames(node) <= target_frames) {
      break;
    }
    NumaPageInfo& info = pages_[lp];
    if (!info.copies.Contains(node)) {
      continue;
    }
    if ((info.state == PageState::kLocalWritable || info.state == PageState::kRemoteHomed) &&
        info.owner == node) {
      // Owned content lives only in the node's local frame: drop every mapping, copy
      // it back to the global frame, then release the frame. The page reverts to
      // Read-Only with its content global; the next touch re-places it through the
      // normal fault path (which degrades to GLOBAL while the drain limit holds).
      mappings_->RemoveAllMappings(lp);
      SyncOwner(lp, proc);
      FlushCopy(lp, node, proc);
      info.state = PageState::kReadOnly;
      info.owner = kNoProc;
      ObsNoteState(lp, proc);
    } else {
      // Read-Only replica: the global frame already has the content, just flush.
      FlushCopy(lp, node, proc);
    }
    stats_->evacuated_pages++;
    ++evacuated;
    ACE_VERIFY_PAGE(lp);
  }
  return evacuated;
}

// --- durability and recovery (DESIGN.md section 14) --------------------------------------

void NumaManager::NoteStore(LogicalPage lp, std::uint32_t offset, std::uint32_t value,
                            ProcId proc, bool charge) {
  if (replica_ == nullptr) {
    return;
  }
  NumaPageInfo& info = Info(lp);
  if ((info.state != PageState::kLocalWritable && info.state != PageState::kRemoteHomed) ||
      info.owner == kNoProc) {
    return;  // only owned frames need the dirty-page journal; global stores are covered
             // by the checksum-invalidate at the Global-Writable transition
  }
  std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(info.owner)];
  replica_->NoteOwnedStore(lp,
                           phys_->FrameData(FrameRef::Local(info.owner, frame_idx)),
                           offset, value, proc, charge);
}

void NumaManager::RepairGlobal(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  stats_->checksum_failures++;
  if (!info.copies.Empty()) {
    // Read-Only replicas are byte-identical to the pre-corruption global content
    // (cache invariant), so any surviving holder can donate it back.
    ProcId donor = info.copies.First();
    std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(donor)];
    TimeNs cost = phys_->CopyPage(FrameRef::Local(donor, frame_idx), FrameRef::Global(lp), proc);
    ChargeSystem(proc, cost + kernel_.consistency_op_ns);
    stats_->recovered_pages++;
    ObsEvent(TraceEventType::kRecover, lp, proc,
             static_cast<std::uint32_t>(RecoverySource::kReplica));
  } else {
    // No replica survives; the corrupted bytes are the page's content now.
    stats_->lost_pages++;
    ObsEvent(TraceEventType::kRecover, lp, proc,
             static_cast<std::uint32_t>(RecoverySource::kNone));
  }
  replica_->BlessGlobal(lp);
}

std::uint32_t NumaManager::KillNode(ProcId node, ProcId proc) {
  ACE_CHECK(node >= 0 && node < num_processors_);
  ACE_CHECK_MSG(proc != node, "KillNode must act from a surviving processor");
  std::uint32_t released = 0;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    NumaPageInfo& info = pages_[lp];
    if (!info.copies.Contains(node)) {
      continue;
    }
    ++released;
    if ((info.state == PageState::kLocalWritable || info.state == PageState::kRemoteHomed) &&
        info.owner == node) {
      // The dead frame held the page's only current content. Drop every mapping
      // (remote-homed pages are mapped from arbitrary processors), reconstruct what
      // the mirror allows, and release the frame without ever reading it — the node
      // is gone and its bytes are unreachable.
      UnmapAll(lp, proc);
      bool restored;
      if (replica_ != nullptr && replica_->journal_open(lp)) {
        // The journal mirrors every store since ownership; replay it into the
        // global frame (charged at the mirror's per-word off-node rate).
        std::memcpy(phys_->FrameData(FrameRef::Global(lp)), replica_->journal_data(lp),
                    page_size_);
        replica_->ChargeMirror(proc, page_size_ / kWordBytes);
        stats_->recovered_pages++;
        ObsEvent(TraceEventType::kRecover, lp, proc,
                 static_cast<std::uint32_t>(RecoverySource::kJournal));
        restored = true;
      } else if (replica_ != nullptr && !replica_->unreplicated(lp)) {
        // Owned but never dirtied since the last sync: the global frame is current
        // and already is the mirror. Nothing to copy.
        stats_->recovered_pages++;
        ObsEvent(TraceEventType::kRecover, lp, proc,
                 static_cast<std::uint32_t>(RecoverySource::kGlobalMirror));
        restored = true;
      } else {
        // No mirror (journal cap overflow, or no replica manager at all): the
        // content dies with the node; the stale global copy is all that remains.
        stats_->lost_pages++;
        ObsEvent(TraceEventType::kRecover, lp, proc,
                 static_cast<std::uint32_t>(RecoverySource::kNone));
        restored = false;
      }
      // Release the dead frame so machine-wide frame accounting stays exact; the
      // recovery manager zeroes the node's allocation limit so it is never reused.
      std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(node)];
      phys_->FreeLocal(FrameRef::Local(node, frame_idx));
      info.local_frame[static_cast<std::size_t>(node)] = NumaPageInfo::kNoFrame;
      info.copies.Remove(node);
      info.owner = kNoProc;
      info.state = restored ? PageState::kReadOnly : PageState::kGlobalWritable;
      if (replica_ != nullptr) {
        replica_->CloseJournal(lp);
        if (restored) {
          replica_->BlessGlobal(lp);
        } else {
          replica_->InvalidateChecksum(lp);  // stale content, direct stores follow
        }
      }
      ChargeSystem(proc, kernel_.consistency_op_ns);
      stats_->page_flushes++;
      ObsNoteState(lp, proc);
    } else {
      // Read-Only replica: the global frame already has the content; the replica
      // simply dies with its node, like an evacuation without the sync.
      FlushCopy(lp, node, proc);
      stats_->evacuated_pages++;
    }
    ACE_VERIFY_PAGE(lp);
  }
  return released;
}

std::uint32_t NumaManager::CorruptAndScrubNode(ProcId node, std::uint64_t seed,
                                               std::uint32_t permille, ProcId proc) {
  ACE_CHECK(node >= 0 && node < num_processors_);
  ACE_CHECK_MSG(replica_ != nullptr, "corrupt-page requires the durability substrate");
  std::uint64_t rng = seed;
  std::uint32_t detected = 0;
  const std::uint32_t words = page_size_ / kWordBytes;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    NumaPageInfo& info = pages_[lp];
    if (!info.copies.Contains(node)) {
      continue;
    }
    // One draw per resident frame keeps the walk deterministic and independent of
    // which frames end up corrupted (replays are byte-identical by construction).
    const std::uint64_t draw = SplitMix64Next(&rng);
    if (draw % 1000 >= permille) {
      continue;
    }
    // Silent bit-rot: flip one deterministic word of the resident frame.
    std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(node)];
    FrameRef frame = FrameRef::Local(node, frame_idx);
    std::uint8_t* data = phys_->FrameData(frame);
    const std::uint32_t offset = static_cast<std::uint32_t>((draw >> 10) % words) * kWordBytes;
    std::uint32_t word;
    std::memcpy(&word, data + offset, kWordBytes);
    word ^= 0xDEADBEEFu;
    std::memcpy(data + offset, &word, kWordBytes);

    // Scrub (same atomic transition, so the cache invariants hold before and after):
    // compare the frame against its authoritative reference and repair. Detection is
    // a real comparison, not an assumption — a scrub that misses a corruption aborts.
    const bool owned = (info.state == PageState::kLocalWritable ||
                        info.state == PageState::kRemoteHomed) &&
                       info.owner == node;
    stats_->checksum_failures++;
    ++detected;
    if (owned && replica_->journal_open(lp)) {
      ACE_CHECK_MSG(std::memcmp(data, replica_->journal_data(lp), page_size_) != 0,
                    "scrub missed an injected corruption (journal)");
      std::memcpy(data, replica_->journal_data(lp), page_size_);
      replica_->ChargeMirror(proc, words);
      ObsEvent(TraceEventType::kRecover, lp, proc,
               static_cast<std::uint32_t>(RecoverySource::kJournal));
      stats_->recovered_pages++;
    } else if (owned && !replica_->unreplicated(lp)) {
      // Owned but clean: the global frame is still current and repairs the owner copy.
      ACE_CHECK_MSG(
          std::memcmp(data, phys_->FrameData(FrameRef::Global(lp)), page_size_) != 0,
          "scrub missed an injected corruption (clean owner)");
      TimeNs cost = phys_->CopyPage(FrameRef::Global(lp), frame, proc);
      ChargeSystem(proc, cost);
      ObsEvent(TraceEventType::kRecover, lp, proc,
               static_cast<std::uint32_t>(RecoverySource::kGlobalMirror));
      stats_->recovered_pages++;
    } else if (owned) {
      // Unreplicated (journal cap overflow): the corruption is detected but there is
      // nothing to repair from. The dirtied content is lost; the page degrades to
      // Global-Writable over its stale global copy.
      UnmapAll(lp, proc);
      phys_->FreeLocal(frame);
      info.local_frame[static_cast<std::size_t>(node)] = NumaPageInfo::kNoFrame;
      info.copies.Remove(node);
      info.owner = kNoProc;
      info.state = PageState::kGlobalWritable;
      replica_->CloseJournal(lp);
      replica_->InvalidateChecksum(lp);
      ChargeSystem(proc, kernel_.consistency_op_ns);
      stats_->page_flushes++;
      stats_->lost_pages++;
      ObsEvent(TraceEventType::kRecover, lp, proc,
               static_cast<std::uint32_t>(RecoverySource::kNone));
      ObsNoteState(lp, proc);
    } else if (info.zero_pending) {
      // Pending-zero replica: the reference content is all-zero by invariant.
      bool clean = true;
      for (std::uint32_t i = 0; i < page_size_; ++i) {
        if (data[i] != 0) {
          clean = false;
          break;
        }
      }
      ACE_CHECK_MSG(!clean, "scrub missed an injected corruption (pending zero)");
      TimeNs cost = phys_->ZeroPage(frame, proc);
      ChargeSystem(proc, cost);
      ObsEvent(TraceEventType::kRecover, lp, proc,
               static_cast<std::uint32_t>(RecoverySource::kGlobalMirror));
      stats_->recovered_pages++;
    } else {
      // Read-Only replica: repair from the checksummed global content.
      ACE_CHECK_MSG(
          std::memcmp(data, phys_->FrameData(FrameRef::Global(lp)), page_size_) != 0,
          "scrub missed an injected corruption (replica)");
      if (!replica_->VerifyGlobal(lp)) {
        RepairGlobal(lp, proc);  // belt and braces: never repair from a bad source
      }
      TimeNs cost = phys_->CopyPage(FrameRef::Global(lp), frame, proc);
      ChargeSystem(proc, cost);
      ObsEvent(TraceEventType::kRecover, lp, proc,
               static_cast<std::uint32_t>(RecoverySource::kGlobalMirror));
      stats_->recovered_pages++;
    }
    ACE_VERIFY_PAGE(lp);
  }
  return detected;
}

const std::uint8_t* NumaManager::PrepareForPageout(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  mappings_->RemoveAllMappings(lp);
  if (info.state == PageState::kLocalWritable || info.state == PageState::kRemoteHomed) {
    SyncOwner(lp, proc);
  }
  FlushAllCopies(lp, proc);
  if (info.zero_pending) {
    MaterializeGlobalZero(lp, proc);
  }
  info.state = PageState::kReadOnly;
  info.owner = kNoProc;
  ObsEvent(TraceEventType::kPageout, lp, proc);
  ObsNoteState(lp, proc);
  ACE_VERIFY_PAGE(lp);
  return phys_->FrameData(FrameRef::Global(lp));
}

void NumaManager::LoadPageContent(LogicalPage lp, const std::uint8_t* bytes, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  ACE_CHECK_MSG(info.state == PageState::kReadOnly && info.copies.Empty() &&
                    !info.zero_pending,
                "LoadPageContent requires a fresh page");
  std::memcpy(phys_->FrameData(FrameRef::Global(lp)), bytes, phys_->page_size());
  ChargeSystem(proc, kernel_.consistency_op_ns);
  if (replica_ != nullptr) {
    replica_->BlessGlobal(lp);  // paged-in content is the authoritative global content
  }
  ObsEvent(TraceEventType::kPagein, lp, proc);
  ACE_VERIFY_PAGE(lp);
}

std::uint32_t NumaManager::DebugReadWord(LogicalPage lp, std::uint32_t offset) const {
  const NumaPageInfo& info = PageInfo(lp);
  if (info.zero_pending) {
    return 0;
  }
  if (info.state == PageState::kLocalWritable || info.state == PageState::kRemoteHomed) {
    std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(info.owner)];
    return phys_->ReadWord(FrameRef::Local(info.owner, frame_idx), offset);
  }
  return phys_->ReadWord(FrameRef::Global(lp), offset);
}

void NumaManager::DebugWriteWord(LogicalPage lp, std::uint32_t offset, std::uint32_t value) {
  NumaPageInfo& info = Info(lp);
  if (info.zero_pending) {
    // Materialize the zeros everywhere a frame exists, then proceed with the write.
    std::memset(phys_->FrameData(FrameRef::Global(lp)), 0, phys_->page_size());
    info.copies.ForEach([&](ProcId holder) {
      std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(holder)];
      std::memset(phys_->FrameData(FrameRef::Local(holder, frame_idx)), 0, phys_->page_size());
    });
    info.zero_pending = false;
  }
  if (info.state == PageState::kLocalWritable || info.state == PageState::kRemoteHomed) {
    std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(info.owner)];
    phys_->WriteWord(FrameRef::Local(info.owner, frame_idx), offset, value);
    // Debug stores dirty the owner frame like any other store; the journal must see
    // them (uncharged) or a later kill would reconstruct stale content.
    NoteStore(lp, offset, value, info.owner, /*charge=*/false);
    return;
  }
  // Read-only replicas must stay identical; write the global copy and every replica.
  phys_->WriteWord(FrameRef::Global(lp), offset, value);
  if (replica_ != nullptr) {
    replica_->InvalidateChecksum(lp);  // re-blessed lazily on the next verify
  }
  info.copies.ForEach([&](ProcId holder) {
    std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(holder)];
    phys_->WriteWord(FrameRef::Local(holder, frame_idx), offset, value);
  });
}

void NumaManager::SyncForInspection(LogicalPage lp, ProcId proc) {
  NumaPageInfo& info = Info(lp);
  if (info.zero_pending) {
    // Inspection must see zeros; materialize them in the global frame. This is a
    // debug-only path and intentionally does not charge clocks or bump stats.
    std::memset(phys_->FrameData(FrameRef::Global(lp)), 0, phys_->page_size());
    return;
  }
  if (info.state == PageState::kLocalWritable || info.state == PageState::kRemoteHomed) {
    std::uint32_t frame_idx = info.local_frame[static_cast<std::size_t>(info.owner)];
    std::memcpy(phys_->FrameData(FrameRef::Global(lp)),
                phys_->FrameData(FrameRef::Local(info.owner, frame_idx)), phys_->page_size());
    if (replica_ != nullptr) {
      // The inspection copy made the global frame current; keep the checksum in step
      // (the journal stays open — the page is still owned and may be dirtied again).
      replica_->BlessGlobal(lp);
    }
  }
  (void)proc;
}

}  // namespace ace
