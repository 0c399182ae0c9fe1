// The assembled simulated ACE: the public entry point of the library.
//
// A Machine wires together the physical memory, per-processor MMUs, the Mach-like VM
// (tasks, logical page pool, fault handler) and the ACE pmap layer (NUMA manager +
// policy), and exposes the reference path that simulated programs use:
//
//     ace::Machine m(ace::Machine::Options{});
//     ace::Task* task = m.CreateTask("app");
//     ace::VirtAddr va = task->MapAnonymous("data", 64 * 1024);
//     m.StoreWord(*task, /*proc=*/0, va, 42);
//     std::uint32_t v = m.LoadWord(*task, /*proc=*/1, va);
//
// Every load/store is translated by the accessing processor's MMU; misses fault into
// the VM layer, which calls pmap_enter; the NUMA policy and manager decide placement
// and maintain consistency. User time is charged per reference at the latency of the
// memory class that actually served it; kernel work charges system time.

#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/check.h"
#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/inject/fault_plan.h"
#include "src/numa/numa_manager.h"
#include "src/numa/pmap_ace.h"
#include "src/numa/policies.h"
#include "src/numa/policy.h"
#include "src/obs/observability.h"
#include "src/sim/bus.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"
#include "src/machine/pageout.h"
#include "src/machine/tlb.h"
#include "src/vm/fault.h"
#include "src/vm/page_pool.h"
#include "src/vm/task.h"

namespace ace {

class ChaosController;
class RecoveryManager;
struct LiveSample;

// Which NUMA policy the machine boots with.
struct PolicySpec {
  enum class Kind {
    kMoveLimit,   // the paper's policy (default)
    kAllGlobal,   // Tglobal baseline
    kAllLocal,    // Tlocal measurement / thrashing demonstration
    kReconsider,  // future-work extension: pins expire
    kRemoteHome,  // section 4.4 extension: home pages remotely instead of pinning
  };

  Kind kind = Kind::kMoveLimit;
  int move_threshold = 4;
  TimeNs reconsider_after_ns = 50'000'000;

  static PolicySpec MoveLimit(int threshold = 4) {
    return PolicySpec{Kind::kMoveLimit, threshold, 0};
  }
  static PolicySpec AllGlobal() { return PolicySpec{Kind::kAllGlobal, 0, 0}; }
  static PolicySpec AllLocal() { return PolicySpec{Kind::kAllLocal, 0, 0}; }
  static PolicySpec Reconsider(int threshold, TimeNs after_ns) {
    return PolicySpec{Kind::kReconsider, threshold, after_ns};
  }
  static PolicySpec RemoteHome(int threshold = 4) {
    return PolicySpec{Kind::kRemoteHome, threshold, 0};
  }

  const char* Name() const {
    switch (kind) {
      case Kind::kMoveLimit:
        return "move-limit";
      case Kind::kAllGlobal:
        return "all-global";
      case Kind::kAllLocal:
        return "all-local";
      case Kind::kReconsider:
        return "reconsider";
      case Kind::kRemoteHome:
        return "remote-home";
    }
    return "?";
  }

  // The inverse of Name(): the policy called `name`, with `threshold` as its move
  // threshold; reconsider pins expire after 50 ms. Empty for an unknown name.
  static std::optional<PolicySpec> FromName(std::string_view name, int threshold) {
    for (const PolicySpec& spec : {MoveLimit(threshold), AllGlobal(), AllLocal(),
                                   Reconsider(threshold, 50'000'000),
                                   RemoteHome(threshold)}) {
      if (name == spec.Name()) {
        return spec;
      }
    }
    return std::nullopt;
  }
};

enum class AccessStatus {
  kOk = 0,
  kBadAddress = 1,
  kProtectionViolation = 2,
  kOutOfMemory = 3,
};

class Machine {
 public:
  struct Options {
    MachineConfig config;
    PolicySpec policy;
    // When set, use this policy instead of constructing one from `policy`. Not owned;
    // must outlive the machine. Intended for tests and custom-policy experiments.
    NumaPolicy* custom_policy = nullptr;
    // When true, exhaustion of the logical page pool pages a victim out to simulated
    // backing store instead of failing the fault (and pages it back in on next touch,
    // resetting its placement decisions — the paper's section 4.3 footnote).
    bool enable_pager = false;
    PagerOptions pager;
    // Deterministic fault injection (src/inject). An empty plan (the default) leaves
    // every fault site disarmed at a single never-taken branch; a non-empty plan arms
    // one FaultInjector shared by all subsystems. `fault_seed` seeds the probability
    // schedules' random streams.
    FaultPlan fault_plan;
    std::uint64_t fault_seed = 0;
    // Open dirty-page journals allowed at once when the plan carries a permanent
    // chaos event (kill-node / corrupt-page) and the durability subsystem is armed.
    // Owned pages beyond the cap run unreplicated and are lost if their node dies.
    // Ignored on plans without durable chaos — the ReplicaManager is never built.
    std::uint32_t journal_page_cap = 4096;
    // The software-TLB fast path (src/machine/tlb.h). On by default; results are
    // byte-identical either way (the differential equivalence suite enforces it), so
    // turning it off is only useful for that very comparison. The environment
    // variable ACE_TLB ("0"/"off"/"1"/"on") overrides this at Machine construction,
    // letting any existing test or tool run both ways unmodified.
    bool enable_tlb = true;
    // Cross-check every TLB hit against the MMU and ACE_CHECK-abort on a stale entry
    // (the debug poison mode). -1 = default: on when the library was built with
    // ACE_CHECK_INVARIANTS, off otherwise; 0/1 force. ACE_TLB_VERIFY overrides.
    int tlb_verify = -1;
  };

  explicit Machine(Options options);
  ~Machine();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- tasks -------------------------------------------------------------------------
  Task* CreateTask(const std::string& name);
  void DestroyTask(Task* task);

  // --- the reference path --------------------------------------------------------------
  // 32-bit load/store as issued by processor `proc`. Aborts (ACE_CHECK) on bad
  // addresses — simulated programs are expected to be correct; use TryAccess for
  // fault-status tests. Inline: a software-TLB hit completes here without entering
  // the pmap/NUMA resolve at all.
  std::uint32_t LoadWord(Task& task, ProcId proc, VirtAddr va) {
    std::uint32_t value = 0;
    if (FastAccess(proc, va, AccessKind::kFetch, &value)) {
      return value;
    }
    return LoadWordSlow(task, proc, va);
  }
  void StoreWord(Task& task, ProcId proc, VirtAddr va, std::uint32_t value) {
    if (FastAccess(proc, va, AccessKind::kStore, &value)) {
      return;
    }
    StoreWordSlow(task, proc, va, value);
  }

  // Atomic read-modify-write (the ACE's test-and-set style primitive): writes
  // `new_value` and returns the previous value, charging one fetch + one store.
  std::uint32_t TestAndSet(Task& task, ProcId proc, VirtAddr va, std::uint32_t new_value);
  // Atomic fetch-and-add; returns the previous value.
  std::uint32_t FetchAdd(Task& task, ProcId proc, VirtAddr va, std::uint32_t delta);
  // Atomic fetch-and-or (bit masking without lost updates); returns the previous value.
  std::uint32_t FetchOr(Task& task, ProcId proc, VirtAddr va, std::uint32_t bits);

  // Non-aborting access (for tests of fault semantics).
  AccessStatus TryAccess(Task& task, ProcId proc, VirtAddr va, AccessKind kind,
                         std::uint32_t* value) {
    if (FastAccess(proc, va, kind, value)) {
      return AccessStatus::kOk;
    }
    return Access(task, proc, va, kind, value);
  }

  // Pure computation: charge `ns` of user time to `proc` without touching memory.
  void Compute(ProcId proc, TimeNs ns) { clocks_.ChargeUser(proc, ns); }

  // Drop all mappings of global-writable pages, forcing the next reference to each to
  // fault and re-consult the NUMA policy. Pinned pages are otherwise mapped with
  // maximum permissions and never fault again, so a reconsidering policy would never
  // get asked — the paper notes a pin is only revisited if "the pinned page is paged
  // out and back in"; this is the hook a reconsideration daemon uses. Charges system
  // time to `proc`. Returns the number of pages re-examined.
  std::uint32_t ReexamineGlobalPages(ProcId proc);

  // --- debug access (no clock/stat side effects) ----------------------------------------
  std::uint32_t DebugRead(Task& task, VirtAddr va);
  void DebugWrite(Task& task, VirtAddr va, std::uint32_t value);

  // --- introspection --------------------------------------------------------------------
  // Every reference is accounted as it happens, so clocks, stats and bus are exact at
  // every instant and a reference taken once stays current.
  const MachineConfig& config() const { return options_.config; }
  ProcClocks& clocks() { return clocks_; }
  const ProcClocks& clocks() const { return clocks_; }
  MachineStats& stats() { return stats_; }
  const MachineStats& stats() const { return stats_; }
  IpcBus& bus() { return bus_; }
  PhysicalMemory& physical_memory() { return phys_; }
  PagePool& page_pool() { return *pool_; }
  PmapAce& pmap() { return *pmap_; }
  NumaManager& numa_manager() { return pmap_->manager(); }
  NumaPolicy& policy() { return *active_policy_; }
  // The pageout daemon, or nullptr when the machine runs without backing store.
  AcePager* pager() { return pager_.get(); }
  // The armed fault injector, or nullptr when Options::fault_plan carried no site
  // schedules (a chaos-only plan arms the controller below but not the injector).
  FaultInjector* fault_injector() { return injector_.get(); }
  // The chaos controller (src/machine/chaos.h), or nullptr when the plan carried no
  // chaos events. The runtime's dispatch loop advances it; the serving app consults
  // it to arm its SLO machinery (deadlines/retry/shed stay off on chaos-free runs).
  ChaosController* chaos() { return chaos_.get(); }
  // The durability pair (DESIGN.md section 14), or nullptr unless the plan carries a
  // permanent chaos event (kill-node / corrupt-page). The replica manager keeps
  // off-node mirrors, journals and checksums; the recovery manager applies permanent
  // events and tracks dead nodes (the dispatch loop re-homes orphaned fibers off its
  // bitmask).
  ReplicaManager* replica_manager() { return replica_.get(); }
  RecoveryManager* recovery() { return recovery_.get(); }
  std::uint64_t fault_seed() const { return options_.fault_seed; }
  const PolicySpec& policy_spec() const { return options_.policy; }

  // Typed policy accessors (nullptr if the machine runs a different policy).
  MoveLimitPolicy* move_limit_policy();
  ReconsiderPolicy* reconsider_policy();

  // NUMA state of the page backing `va` in `task` (page must be materialized).
  const NumaPageInfo& PageInfoFor(Task& task, VirtAddr va);
  // The logical page backing `va` (materializing it if needed).
  LogicalPage DebugLogicalPage(Task& task, VirtAddr va) {
    return ResolveDebugPage(task, va, /*materialize=*/true);
  }

  std::uint32_t page_size() const { return options_.config.page_size; }
  int num_processors() const { return options_.config.num_processors; }

  // Optional observer of every data reference (used by the trace module). The hook
  // sees (proc, va, kind, memory class served from). At most one observer.
  using RefObserver = void (*)(void* ctx, ProcId proc, VirtAddr va, AccessKind kind,
                               MemoryClass cls);
  void SetRefObserver(RefObserver observer, void* ctx) {
    ref_observer_ = observer;
    ref_observer_ctx_ = ctx;
  }

  // Application-level request counters for live telemetry: the running app (the
  // serving workload) records each completed request and its virtual-time latency,
  // and CaptureLiveSample folds the cumulative totals into each sample. Stored on
  // the machine — not behind a callback — so the end-of-run summary capture still
  // sees them after the app has returned. Both values are monotone by construction
  // (the feed validator enforces non-negative deltas and summary == sum of deltas).
  // Purely observational: the simulation never reads them back.
  void RecordAppRequest(TimeNs latency_ns) {
    app_requests_ += 1;
    app_req_lat_ns_ += static_cast<std::uint64_t>(latency_ns);
  }

  // SLO outcome counters for the serving workload under chaos (DESIGN.md section
  // 13): requests that missed their virtual-time deadline, retry attempts issued,
  // and requests shed by the per-tenant backlog guard. Same contract as
  // RecordAppRequest — monotone, purely observational, zero on chaos-free runs
  // (the app only arms its SLO machinery when chaos() is non-null).
  void RecordAppTimeout() { app_timeouts_ += 1; }
  void RecordAppRetry() { app_retries_ += 1; }
  void RecordAppShed() { app_shed_ += 1; }

  // The software TLB and its counter group (the `tlb` observability group). The
  // counters are kept out of MachineStats: they differ between TLB-on and TLB-off
  // runs by design, while MachineStats must not. By value — the hit/miss totals are
  // summed from the per-processor counters at read time.
  Tlb& tlb() { return tlb_; }
  TlbStats tlb_stats() const { return tlb_.stats(); }
  bool tlb_enabled() const { return tlb_on_; }
  bool tlb_verify_enabled() const { return tlb_verify_on_; }

  // Fill a live-telemetry capture (src/obs/sampler.h) with the machine's current
  // cumulative state: counters, clocks, per-processor TLB hit/miss, trace-ring
  // pressure, and (when heat profiling is on) per-page reference totals and policy
  // decisions. Pure observer: reads everything through const accessors and changes
  // nothing the simulation later consults. The static thunk matches
  // LiveSampler::CaptureFn so the sampler can stay machine-independent.
  void CaptureLiveSample(LiveSample* out);
  static void LiveCaptureThunk(void* ctx, LiveSample* out) {
    static_cast<Machine*>(ctx)->CaptureLiveSample(out);
  }

  // The observability layer (src/obs). Wired into the NUMA manager and fault path on
  // first call; machines that never ask for it keep those hooks at their null-pointer
  // fast path. Call EnableTracing()/EnableHeat() on the result.
  Observability& observability();
  bool has_observability() const { return obs_attached_; }
  // Read-only view that never attaches the layer (nullptr when not attached); the
  // watchdog's kill report uses it to scan the trace rings without arming anything.
  const Observability* observability_if_attached() const {
    return obs_attached_ ? &obs_ : nullptr;
  }

 private:
  AccessStatus Access(Task& task, ProcId proc, VirtAddr va, AccessKind kind,
                      std::uint32_t* value);
  LogicalPage ResolveDebugPage(Task& task, VirtAddr va, bool materialize);

  // Out-of-line halves of the reference path: the full fault-and-resolve slow path
  // behind the inline TLB probe in LoadWord/StoreWord.
  std::uint32_t LoadWordSlow(Task& task, ProcId proc, VirtAddr va);
  void StoreWordSlow(Task& task, ProcId proc, VirtAddr va, std::uint32_t value);

  // Poison mode: cross-check a hitting entry against the MMU and mapping directory;
  // ACE_CHECK-aborts if the entry is stale in any field.
  void VerifyTlbEntry(ProcId proc, VirtPage vpage, const Tlb::Entry& entry);
  // Off-node cost dilation, out of line behind CompleteAccess's one branch: an
  // active slow-link chaos window on `proc`.
  TimeNs DilateOffNode(ProcId proc, TimeNs cost) const;

  // The reference fast path: probe the TLB and, on a hit, complete the access without
  // entering the pmap/NUMA machinery, fed from the cached entry. Returns false on
  // TLB-off, miss, or insufficient cached protection — the caller then takes the slow
  // path, which faults (or upgrades) exactly as it would have without a TLB.
  bool FastAccess(ProcId proc, VirtAddr va, AccessKind kind, std::uint32_t* value) {
    if (!tlb_on_) {
      return false;
    }
    const VirtPage vpage = va >> page_shift_;
    const Tlb::Entry* e = tlb_.Find(proc, vpage, kind);
    if (e == nullptr) {
      return false;
    }
    if (tlb_verify_on_) {
      VerifyTlbEntry(proc, vpage, *e);
    }
    CompleteAccess(proc, va, kind, value, e->cls,
                   kind == AccessKind::kFetch ? e->cost_fetch : e->cost_store, e->data,
                   e->lp);
    return true;
  }

  // The one accounting step of a reference whose translation is known, shared by the
  // TLB hit and the slow path: off-node dilation, the user-time charge, the reference
  // counters, the heat profile, the bus transfer, the word copy through the frame's
  // host pointer `data` (a store also journals for the durability subsystem), then
  // the ref observer. `lp` may be kNoLogicalPage when no consumer needs it.
  void CompleteAccess(ProcId proc, VirtAddr va, AccessKind kind, std::uint32_t* value,
                      MemoryClass cls, TimeNs cost, std::uint8_t* data, LogicalPage lp) {
    if (cls != MemoryClass::kLocal && chaos_ != nullptr) {
      cost = DilateOffNode(proc, cost);
    }
    clocks_.ChargeUser(proc, cost);
    stats_.RecordRef(proc, cls, kind);
    if (obs_.heat_on() && lp != kNoLogicalPage) {
      // Recorded at the same point as RecordRef, so the heat profile's aggregate
      // locality fraction agrees with MeasuredAlpha() exactly.
      obs_.OnRef(lp, proc, cls, kind);
    }
    if (cls != MemoryClass::kLocal) {
      bus_.RecordTransfer(kWordBytes, clocks_.now(proc));
    }
    const std::uint32_t offset = static_cast<std::uint32_t>(va & page_mask_);
    ACE_DCHECK(offset % kWordBytes == 0);
    if (kind == AccessKind::kFetch) {
      std::memcpy(value, data + offset, kWordBytes);
    } else {
      std::memcpy(data + offset, value, kWordBytes);
      if (replica_ != nullptr && lp != kNoLogicalPage) {
        // Journal write-through for owned pages (no-op for global-writable ones;
        // their checksum was invalidated when they entered that state).
        pmap_->manager().NoteStore(lp, offset, *value, proc, /*charge=*/true);
      }
    }
    if (ref_observer_ != nullptr) {
      ref_observer_(ref_observer_ctx_, proc, va, kind, cls);
    }
  }

  Options options_;
  std::uint32_t page_shift_;
  std::uint32_t page_mask_;

  // Resolved at construction (Options + ACE_TLB / ACE_TLB_VERIFY environment).
  bool tlb_on_ = true;
  bool tlb_verify_on_ = false;

  MachineStats stats_;
  ProcClocks clocks_;
  IpcBus bus_;
  // The TLB is the MmuArray's shootdown sink; declared before pmap_/pool_ so it
  // outlives every teardown path that still mutates MMUs (~Machine drains the pool,
  // which frees pages and fires shootdowns).
  Tlb tlb_;
  // Declared before every consumer that holds a pointer into it (phys_, pool_, pager_,
  // the NUMA manager) so the injector outlives them all.
  std::unique_ptr<FaultInjector> injector_;
  PhysicalMemory phys_;
  std::unique_ptr<NumaPolicy> policy_;       // owned policy (when not custom)
  NumaPolicy* active_policy_ = nullptr;      // the policy actually in use
  // Declared before pmap_ so the hooks stay valid while the pmap layer tears down.
  // A member rather than allocated on attach, so the reference path's heat test is
  // one flag load off this machine whether or not the layer is attached (the
  // bench_trace_overhead guardrail times exactly that difference).
  Observability obs_;
  bool obs_attached_ = false;
  // Declared before pmap_ (like obs_) so the NUMA manager's store/sync hooks stay
  // valid while the pmap layer tears down (~Machine drains the pool -> ResetPage).
  std::unique_ptr<ReplicaManager> replica_;
  std::unique_ptr<PmapAce> pmap_;
  std::unique_ptr<PagePool> pool_;
  std::unique_ptr<AcePager> pager_;
  std::unique_ptr<FaultHandler> fault_handler_;
  // Holds only non-owning pointers back into this machine; constructed last when the
  // plan carries chaos events, null otherwise (the dispatch hook and the per-access
  // cost hook then cost one never-taken branch each).
  std::unique_ptr<ChaosController> chaos_;
  // Applies permanent chaos (kill-node / corrupt-page); non-null exactly when
  // replica_ is. Holds only a back-pointer into this machine.
  std::unique_ptr<RecoveryManager> recovery_;
  std::vector<std::unique_ptr<Task>> tasks_;
  std::uint64_t task_counter_ = 0;

  RefObserver ref_observer_ = nullptr;
  void* ref_observer_ctx_ = nullptr;

  std::uint64_t app_requests_ = 0;
  std::uint64_t app_req_lat_ns_ = 0;
  std::uint64_t app_timeouts_ = 0;
  std::uint64_t app_retries_ = 0;
  std::uint64_t app_shed_ = 0;
};

}  // namespace ace

#endif  // SRC_MACHINE_MACHINE_H_
