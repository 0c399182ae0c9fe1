#include "src/machine/machine.h"

#include <cstdio>

#include "src/common/run_killed.h"
#include "src/machine/chaos.h"
#include "src/machine/recovery.h"
#include "src/numa/replica_manager.h"
#include "src/obs/sampler.h"

namespace ace {

#ifdef ACE_CHECK_INVARIANTS
const bool kInvariantChecksBuild = true;
#else
const bool kInvariantChecksBuild = false;
#endif

namespace {
// An access can fault at most twice before succeeding (no-mapping then protection, or
// a Rosetta displacement refault); more retries indicate a protocol livelock.
constexpr int kMaxFaultRetries = 4;
}  // namespace

Machine::Machine(Options options)
    : options_(std::move(options)),
      page_shift_(options_.config.PageShift()),
      page_mask_(options_.config.page_size - 1),
      clocks_(options_.config.num_processors),
      tlb_(options_.config.num_processors, options_.config.tlb_entries),
      phys_(options_.config),
      obs_(options_.config.num_processors, options_.config.global_pages, &clocks_) {
  options_.config.Validate();
  tlb_on_ = options_.enable_tlb;
  tlb_verify_on_ = options_.tlb_verify;
  if (options_.custom_policy != nullptr) {
    active_policy_ = options_.custom_policy;
  } else {
    switch (options_.policy.kind) {
    case PolicySpec::Kind::kMoveLimit:
      policy_ = std::make_unique<MoveLimitPolicy>(
          options_.config.global_pages,
          MoveLimitPolicy::Options{options_.policy.move_threshold}, &stats_);
      break;
    case PolicySpec::Kind::kAllGlobal:
      policy_ = std::make_unique<AllGlobalPolicy>();
      break;
    case PolicySpec::Kind::kAllLocal:
      policy_ = std::make_unique<AllLocalPolicy>();
      break;
    case PolicySpec::Kind::kReconsider:
      policy_ = std::make_unique<ReconsiderPolicy>(
          options_.config.global_pages,
          ReconsiderPolicy::Options{options_.policy.move_threshold,
                                    options_.policy.reconsider_after_ns},
          &stats_, &clocks_);
      break;
    case PolicySpec::Kind::kRemoteHome:
      policy_ = std::make_unique<RemoteHomePolicy>(
          options_.config.global_pages,
          RemoteHomePolicy::Options{options_.policy.move_threshold}, &stats_);
      break;
    }
    active_policy_ = policy_.get();
  }
  pmap_ =
      std::make_unique<PmapAce>(options_.config, &phys_, &clocks_, &stats_, active_policy_);
  if (tlb_on_) {
    // Every MMU mutation — whichever protocol path drove it — now shoots down the
    // matching TLB entries before the translation changes.
    pmap_->mmus().set_shootdown_sink(&tlb_);
  }
  pool_ = std::make_unique<PagePool>(options_.config.global_pages, pmap_.get());
  if (options_.enable_pager) {
    pager_ = std::make_unique<AcePager>(options_.pager, pmap_.get(), pool_.get(), &clocks_,
                                        options_.config.page_size);
    pmap_->SetFreeListener(
        [](void* ctx, LogicalPage lp) { static_cast<AcePager*>(ctx)->NoteFreed(lp); },
        pager_.get());
  }
  fault_handler_ =
      std::make_unique<FaultHandler>(pmap_.get(), pool_.get(), pager_.get(), &stats_);
  // Site schedules arm the injector; chaos events arm the controller. Each half is
  // independent so a chaos-only plan leaves fault_injector() null (the run-level
  // checks in CheckRunIdentities rely on that) and a sites-only plan leaves chaos()
  // null.
  if (!options_.fault_plan.schedules.empty()) {
    injector_ = std::make_unique<FaultInjector>(options_.fault_plan, options_.fault_seed);
    injector_->set_clocks(&clocks_);
    phys_.set_fault_injector(injector_.get());
    pool_->set_fault_injector(injector_.get());
    pmap_->manager().set_fault_injector(injector_.get());
    if (pager_ != nullptr) {
      pager_->set_fault_injector(injector_.get());
    }
  }
  // Permanent chaos (kill-node / corrupt-page) arms the durability pair: mirrors,
  // journals and checksums in the ReplicaManager, event application in the
  // RecoveryManager. Plans without a durable event never build either, so every
  // pre-existing run keeps its exact code paths, costs and counters.
  if (options_.fault_plan.has_durable_chaos()) {
    ReplicaManager::Options ropt;
    ropt.journal_page_cap = options_.journal_page_cap;
    replica_ =
        std::make_unique<ReplicaManager>(options_.config, &phys_, &clocks_, &stats_, ropt);
    pmap_->manager().set_replica_manager(replica_.get());
    recovery_ = std::make_unique<RecoveryManager>(this);
  }
  if (!options_.fault_plan.chaos.empty()) {
    chaos_ = std::make_unique<ChaosController>(options_.fault_plan.chaos, this);
  }
}

Machine::~Machine() {
  for (auto& task : tasks_) {
    if (task != nullptr) {
      task->ReleaseAll(*pool_);
    }
  }
  tasks_.clear();
  pool_->Drain();
}

Task* Machine::CreateTask(const std::string& name) {
  ++task_counter_;
  VirtAddr va_base = (task_counter_ << 32) | 0x10000;
  tasks_.push_back(std::make_unique<Task>(name, pmap_.get(), options_.config.page_size, va_base));
  return tasks_.back().get();
}

void Machine::DestroyTask(Task* task) {
  for (auto& slot : tasks_) {
    if (slot.get() == task) {
      slot->ReleaseAll(*pool_);
      slot.reset();
      return;
    }
  }
  ACE_CHECK_MSG(false, "DestroyTask: unknown task");
}

AccessStatus Machine::Access(Task& task, ProcId proc, VirtAddr va, AccessKind kind,
                             std::uint32_t* value) {
  ACE_DCHECK(proc >= 0 && proc < options_.config.num_processors);
  ACE_DCHECK(va % kWordBytes == 0);
  VirtPage vpage = va >> page_shift_;
  for (int attempt = 0; attempt < kMaxFaultRetries; ++attempt) {
    TranslateResult t = pmap_->Translate(proc, vpage, kind);
    if (t.ok()) {
      const MemoryClass cls = t.frame.ClassFor(proc);
      std::uint8_t* data = phys_.FrameData(t.frame);
      LogicalPage lp = kNoLogicalPage;
      if (tlb_on_ || obs_.heat_on() || replica_ != nullptr) {
        // The durability subsystem needs the logical page for its store hook even
        // when both the TLB and heat profiling are off (the TLB-off equivalence).
        lp = pmap_->LookupLogicalPage(proc, vpage);
      }
      CompleteAccess(proc, va, kind, value, cls, options_.config.latency.Cost(cls, kind),
                     data, lp);
      if (tlb_on_) {
        // Cache the translation with the *full* mapping protection, so a read-then-
        // write page needs only one refill; subsequent hits skip the resolve above.
        tlb_.Fill(proc, vpage, t.frame, data, t.prot, lp, options_.config.latency);
      }
      return AccessStatus::kOk;
    }
    // Page fault: trap into the kernel and resolve through the machine-independent VM.
    stats_.page_faults++;
    clocks_.ChargeSystem(proc, options_.config.kernel.fault_base_ns);
    pmap_->SetCurrentProc(proc);
    FaultStatus fs = fault_handler_->Handle(task, va, kind, proc);
    switch (fs) {
      case FaultStatus::kResolved:
        continue;
      case FaultStatus::kBadAddress:
        return AccessStatus::kBadAddress;
      case FaultStatus::kProtectionViolation:
        return AccessStatus::kProtectionViolation;
      case FaultStatus::kOutOfMemory:
        return AccessStatus::kOutOfMemory;
    }
  }
  ACE_CHECK_MSG(false, "access livelock: fault did not establish a usable mapping");
}

std::uint32_t Machine::LoadWordSlow(Task& task, ProcId proc, VirtAddr va) {
  std::uint32_t value = 0;
  AccessStatus s = Access(task, proc, va, AccessKind::kFetch, &value);
  if (s == AccessStatus::kOutOfMemory) {
    ThrowOutOfMemory("LoadWord", proc, va);
  }
  ACE_CHECK_MSG(s == AccessStatus::kOk, "LoadWord failed");
  return value;
}

void Machine::StoreWordSlow(Task& task, ProcId proc, VirtAddr va, std::uint32_t value) {
  AccessStatus s = Access(task, proc, va, AccessKind::kStore, &value);
  if (s == AccessStatus::kOutOfMemory) {
    ThrowOutOfMemory("StoreWord", proc, va);
  }
  ACE_CHECK_MSG(s == AccessStatus::kOk, "StoreWord failed");
}

void Machine::ThrowOutOfMemory(const char* op, ProcId proc, VirtAddr va) const {
  char detail[160];
  std::snprintf(detail, sizeof detail,
                "%s of va 0x%llx on processor %d: the logical page pool (%u pages) is "
                "exhausted%s",
                op, static_cast<unsigned long long>(va), static_cast<int>(proc),
                options_.config.global_pages, pager_ != nullptr ? "" : " and no pager runs");
  throw RunKilledError("out-of-memory", detail);
}

TimeNs Machine::DilateOffNode(ProcId proc, TimeNs cost) const {
  // Slow-link chaos dilates this processor's off-node references in-window.
  return chaos_->AdjustCost(proc, cost);
}

void Machine::VerifyTlbEntry(ProcId proc, VirtPage vpage, const Tlb::Entry& entry) {
  // Any mapping the MMU holds allows fetches (Enter rejects kNone), so probing with
  // kFetch distinguishes "mapping exists" from "mapping gone" without masking a
  // protection change — prot itself is compared exactly below.
  TranslateResult t = pmap_->Translate(proc, vpage, AccessKind::kFetch);
  ACE_CHECK_MSG(t.ok(), "poisoned TLB entry: MMU no longer maps this page");
  ACE_CHECK_MSG(t.frame == entry.frame, "poisoned TLB entry: frame changed");
  ACE_CHECK_MSG(entry.data == phys_.FrameData(entry.frame),
                "poisoned TLB entry: host pointer does not match the frame");
  ACE_CHECK_MSG(t.prot == entry.prot, "poisoned TLB entry: protection changed");
  ACE_CHECK_MSG(t.frame.ClassFor(proc) == entry.cls,
                "poisoned TLB entry: memory class changed");
  ACE_CHECK_MSG(pmap_->LookupLogicalPage(proc, vpage) == entry.lp,
                "poisoned TLB entry: logical page changed");
}

std::uint32_t Machine::TestAndSet(Task& task, ProcId proc, VirtAddr va,
                                  std::uint32_t new_value) {
  // One fiber runs at a time, so read-then-write is atomic at simulation level; both
  // halves are charged (the hardware primitive performs a bus read-modify-write).
  std::uint32_t old_value = LoadWord(task, proc, va);
  StoreWord(task, proc, va, new_value);
  return old_value;
}

std::uint32_t Machine::FetchAdd(Task& task, ProcId proc, VirtAddr va, std::uint32_t delta) {
  std::uint32_t old_value = LoadWord(task, proc, va);
  StoreWord(task, proc, va, old_value + delta);
  return old_value;
}

std::uint32_t Machine::FetchOr(Task& task, ProcId proc, VirtAddr va, std::uint32_t bits) {
  std::uint32_t old_value = LoadWord(task, proc, va);
  StoreWord(task, proc, va, old_value | bits);
  return old_value;
}

LogicalPage Machine::ResolveDebugPage(Task& task, VirtAddr va, bool materialize) {
  const Region* region = task.FindRegion(va);
  ACE_CHECK_MSG(region != nullptr, "debug access outside any region");
  // Copy-on-write regions: a private shadow copy, when present, is the current page.
  // An *evicted* shadow copy still exists (in backing store) and must be paged back
  // in — falling through to the backing object would read/write the wrong data.
  if (region->shadow != nullptr) {
    std::uint64_t shadow_page = (va - region->start) / options_.config.page_size;
    LogicalPage lp = region->shadow->PageAt(shadow_page);
    if (lp == kNoLogicalPage && pager_ != nullptr &&
        pager_->IsPagedOut(*region->shadow, shadow_page)) {
      lp = fault_handler_->MaterializeForDebug(*region->shadow, shadow_page);
    }
    if (lp != kNoLogicalPage) {
      return lp;
    }
  }
  std::uint64_t object_page =
      (region->object_offset + (va - region->start)) / options_.config.page_size;
  if (materialize) {
    // Through the fault handler, not VmObject::GetOrCreatePage: on a pager machine an
    // evicted page must be paged back in here — a fresh zero page would silently
    // clobber its content on the next DebugWrite.
    return fault_handler_->MaterializeForDebug(*region->object, object_page);
  }
  LogicalPage lp = region->object->PageAt(object_page);
  if (lp == kNoLogicalPage && pager_ != nullptr &&
      pager_->IsPagedOut(*region->object, object_page)) {
    // Non-materializing reads still restore evicted content (untouched pages keep
    // reading as zero without allocating anything).
    lp = fault_handler_->MaterializeForDebug(*region->object, object_page);
  }
  return lp;
}

std::uint32_t Machine::DebugRead(Task& task, VirtAddr va) {
  LogicalPage lp = ResolveDebugPage(task, va, /*materialize=*/false);
  if (lp == kNoLogicalPage) {
    return 0;  // untouched anonymous memory reads as zero
  }
  std::uint32_t offset = static_cast<std::uint32_t>(va & (options_.config.page_size - 1));
  return pmap_->manager().DebugReadWord(lp, offset);
}

void Machine::DebugWrite(Task& task, VirtAddr va, std::uint32_t value) {
  LogicalPage lp = ResolveDebugPage(task, va, /*materialize=*/true);
  ACE_CHECK_MSG(lp != kNoLogicalPage, "DebugWrite: out of logical pages");
  std::uint32_t offset = static_cast<std::uint32_t>(va & (options_.config.page_size - 1));
  pmap_->manager().DebugWriteWord(lp, offset, value);
}

std::uint32_t Machine::ReexamineGlobalPages(ProcId proc) {
  NumaManager& manager = pmap_->manager();
  std::uint32_t count = 0;
  for (LogicalPage lp = 0; lp < manager.num_pages(); ++lp) {
    if (manager.PageInfo(lp).state == PageState::kGlobalWritable) {
      pmap_->RemoveAll(lp);
      clocks_.ChargeSystem(proc, options_.config.kernel.consistency_op_ns);
      ++count;
    }
  }
  return count;
}

void Machine::AttachObservability() {
  if (obs_.active()) {
    return;  // a recorder is already on, so the hooks are already wired
  }
  pmap_->manager().set_observability(&obs_);
  fault_handler_->SetObserver(
      [](void* ctx, ProcId proc, LogicalPage lp, std::uint8_t status) {
        static_cast<Observability*>(ctx)->OnEvent(TraceEventType::kPageFault, lp, proc,
                                                  status);
      },
      &obs_);
}

void Machine::EnableTracing(std::size_t capacity_per_proc) {
  AttachObservability();
  obs_.EnableTracing(capacity_per_proc);
}

void Machine::EnableHeat() {
  AttachObservability();
  obs_.EnableHeat();
}

MoveLimitPolicy* Machine::move_limit_policy() {
  if (options_.custom_policy != nullptr ||
      options_.policy.kind != PolicySpec::Kind::kMoveLimit) {
    return nullptr;
  }
  return static_cast<MoveLimitPolicy*>(policy_.get());
}

ReconsiderPolicy* Machine::reconsider_policy() {
  if (options_.custom_policy != nullptr ||
      options_.policy.kind != PolicySpec::Kind::kReconsider) {
    return nullptr;
  }
  return static_cast<ReconsiderPolicy*>(policy_.get());
}

const NumaPageInfo& Machine::PageInfoFor(Task& task, VirtAddr va) {
  LogicalPage lp = ResolveDebugPage(task, va, /*materialize=*/true);
  ACE_CHECK(lp != kNoLogicalPage);
  return pmap_->manager().PageInfo(lp);
}

void Machine::CaptureLiveSample(LiveSample* out) {
  out->stats = stats_;
  out->user_ns = clocks_.TotalUser();
  out->system_ns = clocks_.TotalSystem();
  out->max_clock_ns = clocks_.MaxNow();

  out->tlb_hits_by_proc.clear();
  out->tlb_misses_by_proc.clear();
  if (tlb_on_) {
    const std::vector<TlbProcCounters>& pc = tlb_.proc_counters();
    out->tlb_hits_by_proc.reserve(pc.size());
    out->tlb_misses_by_proc.reserve(pc.size());
    for (const TlbProcCounters& c : pc) {
      out->tlb_hits_by_proc.push_back(c.hits);
      out->tlb_misses_by_proc.push_back(c.misses);
    }
  }

  out->trace_emitted = 0;
  out->trace_dropped = 0;
  if (obs_.tracer().configured()) {
    out->trace_emitted = obs_.tracer().total_emitted();
    out->trace_dropped = obs_.tracer().dropped();
  }

  out->decisions = {};
  out->have_heat = false;
  out->page_refs.clear();
  if (obs_.heat_on()) {
    const HeatProfile& heat = obs_.heat();
    out->have_heat = true;
    out->decisions[0] = heat.decisions(Placement::kLocal);
    out->decisions[1] = heat.decisions(Placement::kGlobal);
    out->decisions[2] = heat.decisions(Placement::kRemoteHome);
    out->page_refs.resize(heat.num_pages());
    for (std::uint32_t lp = 0; lp < heat.num_pages(); ++lp) {
      const PageHeat& h = heat.page(lp);
      out->page_refs[lp] = {h.LocalTotal(), h.GlobalTotal(), h.RemoteTotal(),
                            static_cast<std::uint64_t>(h.state)};
    }
  }

  out->dead_nodes = recovery_ != nullptr ? recovery_->dead_nodes() : 0;
}

}  // namespace ace
