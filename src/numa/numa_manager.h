// The NUMA manager: consistency of pages cached in local memories.
//
// Implements the action tables of paper section 2.3.1 (Tables 1 and 2). Given the
// policy's LOCAL/GLOBAL decision and the page's current state, it cleans up previous
// cache state ("sync", "flush", "unmap" over "own"/"other"/"all" processors), decides
// whether the page is copied into the requesting processor's local memory, and moves
// the page to its new state. Local memories are strictly a cache over global memory:
// the current content of a local-writable page must be copied back to its global page
// before the page changes state.

#ifndef SRC_NUMA_NUMA_MANAGER_H_
#define SRC_NUMA_NUMA_MANAGER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/numa/page_state.h"
#include "src/numa/policy.h"
#include "src/obs/trace_event.h"
#include "src/sim/bus.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"

namespace ace {

class FaultInjector;
class Observability;
class ReplicaManager;

// Dropping virtual mappings is the pmap manager's business (it owns the MMUs and the
// mapping directory); the NUMA manager asks for it through this interface. This is the
// seam between the "NUMA manager" and "pmap manager" boxes of the paper's Figure 2.
class MappingControl {
 public:
  virtual ~MappingControl() = default;
  // Drop all virtual mappings of `lp` on processor `proc`.
  virtual void RemoveMappingsOn(LogicalPage lp, ProcId proc) = 0;
  // Drop all virtual mappings of `lp` everywhere.
  virtual void RemoveAllMappings(LogicalPage lp) = 0;
};

// What the manager decided for one request: the frame to map and the protection to map
// it with (possibly tighter than the user's maximum, to drive replication).
struct Resolution {
  FrameRef frame;
  Protection prot = Protection::kNone;
};

// A record of the actions one request triggered; used by the Table 1/2 reproduction
// benches and by unit tests. Collection is enabled explicitly (off in the hot path).
struct ActionTrace {
  PageState old_state = PageState::kReadOnly;
  PageState new_state = PageState::kReadOnly;
  Placement decision = Placement::kLocal;
  AccessKind kind = AccessKind::kFetch;
  bool owner_was_requester = false;  // for LW states: was it "on own node"?
  std::vector<std::string> cleanup;  // e.g. "sync&flush other", "flush all", "unmap all"
  bool copied_to_local = false;
};

class NumaManager {
 public:
  NumaManager(const MachineConfig& config, PhysicalMemory* phys, ProcClocks* clocks,
              MachineStats* stats, IpcBus* bus, NumaPolicy* policy, MappingControl* mappings);

  NumaManager(const NumaManager&) = delete;
  NumaManager& operator=(const NumaManager&) = delete;

  // Resolve a request: processor `proc` needs `kind` access to logical page `lp`,
  // whose region allows at most `max_prot`. Performs all consistency actions (charging
  // `proc`'s system clock) and returns the mapping to install.
  Resolution HandleRequest(LogicalPage lp, AccessKind kind, ProcId proc, Protection max_prot);

  // Mark a fresh page as logically zero; the zero-fill is evaluated lazily.
  void MarkZeroPending(LogicalPage lp);

  // Record placement advice and forward it to the policy.
  void SetPragma(LogicalPage lp, PlacementPragma pragma);

  // Release all cache resources of `lp` and reset its state (the completion half of
  // the lazy pmap_free_page). The caller must already have dropped the mappings.
  void ResetPage(LogicalPage lp, ProcId proc);

  // Copy logical page `src` to logical page `dst` (pmap_copy_page): makes src's
  // current content the global content of dst. `dst` must be fresh.
  void CopyLogicalPage(LogicalPage src, LogicalPage dst, ProcId proc);

  // Synchronize `lp`'s global frame with its current content without changing state
  // (used when reading a page's content from outside the cache protocol, e.g. debug).
  void SyncForInspection(LogicalPage lp, ProcId proc);

  // Process-migration support (paper section 4.7: "we will need to migrate processes
  // to new homes and move their local pages with them"). Moves every page that is
  // local-writable on `from` into `to`'s local memory (bulk, no faults, not counted
  // against the move limit — this is a deliberate relocation, not protocol thrash) and
  // drops `from`'s read-only replicas (they re-replicate at the new home on demand).
  // Pages that cannot be placed at `to` (local memory full) are left in their global
  // frames to be re-placed on the next touch. Charges `to`'s system clock. Returns the
  // number of pages moved.
  std::uint32_t MigrateResidentPages(ProcId from, ProcId to);

  // Chaos drain support (DESIGN.md section 13): push resident copies off `node`'s
  // local memory until at most `target_frames` remain allocated there. Owned pages
  // (local-writable or remote-homed at `node`) are synced back to their global frame
  // and revert to Read-Only; read-only replicas are flushed. Every released copy
  // counts as one evacuated page. Charges `proc`'s system clock (the processor the
  // chaos controller is acting on behalf of). Returns the number of pages evacuated.
  std::uint32_t EvacuateNode(ProcId node, std::uint32_t target_frames, ProcId proc);

  // Permanent node failure (DESIGN.md section 14): `node` and every frame resident in
  // its local memory are gone for the rest of the run. Owned pages are reconstructed
  // into their global frame from the dirty-page journal when one is open, or declared
  // already-mirrored when clean (the global frame is current); pages that overflowed
  // the journal cap are genuinely lost and degrade to Global-Writable with whatever
  // stale global content remains. Read-Only replicas on the node are simply dropped
  // (the global frame has the content). Charges `proc` (a surviving processor acting
  // for the kernel). Returns the number of resident copies released.
  std::uint32_t KillNode(ProcId node, ProcId proc);

  // Deterministic silent bit-rot (corrupt-page chaos event): flip one word in each
  // frame resident on `node` selected by a SplitMix64 walk seeded with `seed`
  // (permille/1000 of them in expectation), then run the checksum scrub, which detects
  // every corrupted frame and repairs it — owned frames from the journal (or the
  // global frame when clean), replicas from the checksummed global content. Corruption
  // and scrub are one atomic transition so the protocol invariants (Read-Only replicas
  // byte-identical to global) hold before and after. Returns corruptions detected.
  std::uint32_t CorruptAndScrubNode(ProcId node, std::uint64_t seed, std::uint32_t permille,
                                    ProcId proc);

  // A store just landed in the owner frame of `lp` (local-writable or remote-homed);
  // forward it to the replica manager's dirty-page journal. No-op unless a replica
  // manager is attached and the page is owned. `charge` is false for debug stores.
  void NoteStore(LogicalPage lp, std::uint32_t offset, std::uint32_t value, ProcId proc,
                 bool charge);

  // Pageout support: collapse the page's cache state so its current content sits in
  // its global frame (drop mappings, sync a local-writable/remote-homed copy back,
  // flush replicas, materialize pending zeros), charging `proc` system time. Returns a
  // pointer to the page-sized global content, valid until the next operation on `lp`.
  const std::uint8_t* PrepareForPageout(LogicalPage lp, ProcId proc);

  // Pagein support: install `bytes` (page-sized) as the content of freshly allocated
  // page `lp` (content lands in the global frame; placement decisions start over).
  void LoadPageContent(LogicalPage lp, const std::uint8_t* bytes, ProcId proc);

  // Debug accessors operating on the *current* content of a page (owner copy for
  // local-writable pages, zeros for pending zero-fills, global otherwise). They do not
  // charge clocks or bump statistics.
  std::uint32_t DebugReadWord(LogicalPage lp, std::uint32_t offset) const;
  void DebugWriteWord(LogicalPage lp, std::uint32_t offset, std::uint32_t value);

  const NumaPageInfo& PageInfo(LogicalPage lp) const;
  NumaPolicy& policy() { return *policy_; }

  // Action tracing for the Table 1/2 benches and tests.
  void set_trace_actions(bool on) { trace_actions_ = on; }
  const ActionTrace& last_trace() const { return last_trace_; }

  // Arm fault injection (src/inject). The manager owns four sites: kLocalExhausted
  // (the placement precheck reads local memory as full), kReplicationCopyFail (the
  // copy into a freshly allocated frame fails and the frame is returned), and the two
  // protocol mutations kSkipSync / kSkipMoveCount kept for the conformance harness.
  // Null (the default) keeps every site at a single never-taken branch.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Attach the observability layer (src/obs): every consistency action is then
  // reported through its emit hooks. Null (the default) keeps the hot paths to a
  // single never-taken branch per hook.
  void set_observability(Observability* obs) { obs_ = obs; }
  Observability* observability() const { return obs_; }

  // Attach the durability substrate (src/numa/replica_manager.h). Armed only when the
  // fault plan carries a permanent chaos event; null (the default) keeps every hook at
  // a single never-taken branch so disarmed runs stay byte-identical.
  void set_replica_manager(ReplicaManager* replica) { replica_ = replica; }
  ReplicaManager* replica_manager() const { return replica_; }

  // Protocol invariant checks (conformance subsystem). With the ACE_CHECK_INVARIANTS
  // CMake option ON these are compiled in and run automatically after every
  // state-changing operation; the public entry points below additionally let tests
  // force a sweep. With the option OFF both are no-ops.
  //
  // Per-page invariants (ACE_CHECK aborts on violation):
  //   * Read-Only pages have no owner; Local-Writable/Remote-Homed pages have exactly
  //     one local copy and it is the owner's; Global-Writable pages have no copies;
  //   * the copies set and the per-processor frame table agree entry for entry;
  //   * a pending lazy zero-fill implies state Read-Only, and every replica of such a
  //     page is all-zero;
  //   * Read-Only replicas are byte-identical to the global frame (local memories are
  //     strictly a cache over global memory).
  // VerifyAllInvariants additionally checks frame accounting: every allocated local
  // frame is held by exactly one logical page.
  void VerifyPageInvariants(LogicalPage lp) const;
  void VerifyAllInvariants() const;

  std::uint32_t num_pages() const { return static_cast<std::uint32_t>(pages_.size()); }

 private:
  NumaPageInfo& Info(LogicalPage lp);

  // --- consistency actions (each charges system time to `proc`) ---------------------
  void SyncOwner(LogicalPage lp, ProcId proc);                       // "sync"
  void FlushCopy(LogicalPage lp, ProcId holder, ProcId proc);        // "flush" one copy
  void FlushAllCopies(LogicalPage lp, ProcId proc);                  // "flush all"
  void FlushCopiesExcept(LogicalPage lp, ProcId keep, ProcId proc);  // "flush other"
  void UnmapAll(LogicalPage lp, ProcId proc);                        // "unmap all"
  // Ensure `proc` has a local copy with current content; false if local memory full.
  bool EnsureLocalCopy(LogicalPage lp, ProcId proc);
  // Zero the global frame if a lazy zero-fill is pending (entering global-writable).
  void MaterializeGlobalZero(LogicalPage lp, ProcId proc);
  void BecomeOwner(LogicalPage lp, ProcId proc);
  // Record one ownership transfer with the stats and the policy; `proc` is the new
  // holder (for the trace).
  void CountOwnershipMove(LogicalPage lp, ProcId proc);

  void ChargeSystem(ProcId proc, TimeNs ns) { clocks_->ChargeSystem(proc, ns); }
  void TraceCleanup(const char* what);
  // Observability emit hooks; out of line so the null check stays the only inline
  // cost at the call sites.
  void ObsEvent(TraceEventType type, LogicalPage lp, ProcId proc, std::uint32_t aux = 0);
  void ObsNoteState(LogicalPage lp, ProcId proc);

  // The LOCAL rows of Table 1 (a read) and Table 2 (a write).
  Resolution ResolveRead(LogicalPage lp, ProcId proc, Protection max_prot);
  Resolution ResolveWrite(LogicalPage lp, ProcId proc, Protection max_prot);
  // The GLOBAL row, which Tables 1 and 2 share: reads and writes clean up alike.
  Resolution ResolveGlobal(LogicalPage lp, ProcId proc, Protection max_prot);
  // Section 4.4 extension: place/keep the page in one processor's local memory with
  // remote mappings from everyone else.
  Resolution ResolveRemote(LogicalPage lp, ProcId proc, Protection max_prot);
  // Graceful degradation: a local copy could not be obtained after cleanup already
  // ran (local memory lost mid-operation, or an injected allocation/copy fault).
  // Re-resolves the request down the GLOBAL row — which never needs a local frame —
  // from whatever consistent state the page is in now, and counts the fallback.
  Resolution DegradeToGlobal(LogicalPage lp, ProcId proc, Protection max_prot);
  // The global frame failed its integrity checksum on a remote fetch; restore it from
  // a surviving Read-Only replica (byte-identical by invariant) when one exists,
  // otherwise accept the corrupted content as lost.
  void RepairGlobal(LogicalPage lp, ProcId proc);

  PhysicalMemory* phys_;
  ProcClocks* clocks_;
  MachineStats* stats_;
  IpcBus* bus_;
  NumaPolicy* policy_;
  MappingControl* mappings_;
  KernelCostModel kernel_;
  std::uint32_t page_size_;
  int num_processors_;

  std::vector<NumaPageInfo> pages_;

  bool trace_actions_ = false;
  ActionTrace last_trace_;
  FaultInjector* injector_ = nullptr;
  Observability* obs_ = nullptr;
  ReplicaManager* replica_ = nullptr;
};

}  // namespace ace

#endif  // SRC_NUMA_NUMA_MANAGER_H_
