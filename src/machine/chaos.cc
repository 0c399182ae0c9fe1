#include "src/machine/chaos.h"

#include "src/common/check.h"
#include "src/machine/machine.h"
#include "src/machine/recovery.h"

namespace ace {

ChaosController::ChaosController(std::vector<ChaosEvent> events, Machine* machine)
    : machine_(machine),
      slow_mult_(static_cast<std::size_t>(machine->num_processors()), 1000) {
  ACE_CHECK(machine_ != nullptr);
  for (ChaosEvent& e : events) {
    if (e.node >= static_cast<std::uint32_t>(machine_->num_processors())) {
      continue;  // written for a larger machine; nothing to degrade here
    }
    if (events_.empty() || e.t_begin < first_begin_ns_) {
      first_begin_ns_ = e.t_begin;
    }
    if (events_.empty() || e.t_end > last_end_ns_) {
      last_end_ns_ = e.t_end;
    }
    events_.push_back(EventState{e, Phase::kPending});
  }
}

bool ChaosController::Advance(TimeNs now, ProcId proc) {
  if (done_ == events_.size()) {
    return false;
  }
  bool applied = false;
  for (EventState& es : events_) {
    const ChaosEvent& e = es.event;
    if (es.phase == Phase::kPending && now >= e.t_begin) {
      Activate(e, proc);
      // One-shot kinds have no recovery transition: a stall pads the whole window at
      // activation; the permanent kinds (kill-node, corrupt-page) have nothing to
      // undo — recovery already happened inside Activate.
      es.phase = (e.kind == ChaosKind::kStallProc || e.kind == ChaosKind::kKillNode ||
                  e.kind == ChaosKind::kCorruptPage)
                     ? Phase::kDone
                     : Phase::kActive;
      if (es.phase == Phase::kDone) {
        ++done_;
      }
      machine_->stats().chaos_events++;
      applied = true;
    }
    if (es.phase == Phase::kActive && now >= e.t_end) {
      Recover(e);
      es.phase = Phase::kDone;
      ++done_;
      machine_->stats().chaos_events++;
      applied = true;
    }
  }
  return applied;
}

void ChaosController::Activate(const ChaosEvent& event, ProcId proc) {
  PhysicalMemory& phys = machine_->physical_memory();
  switch (event.kind) {
    case ChaosKind::kDrainMem: {
      const std::uint32_t capacity = phys.local_pages_per_proc();
      const std::uint32_t target = static_cast<std::uint32_t>(
          static_cast<std::uint64_t>(capacity) * event.permille / 1000);
      phys.SetLocalLimit(static_cast<ProcId>(event.node), target);
      machine_->numa_manager().EvacuateNode(static_cast<ProcId>(event.node), target, proc);
      break;
    }
    case ChaosKind::kStallProc: {
      // The processor simply does not dispatch inside the window: pad its clock to
      // the window end as idle time (not billed as user or system — the paper's
      // metrics are busy-time only), and the min-clock scheduler passes it over.
      const ProcId node = static_cast<ProcId>(event.node);
      const TimeNs node_now = machine_->clocks().now(node);
      if (node_now < event.t_end) {
        machine_->clocks().ChargeIdle(node, event.t_end - node_now);
      }
      break;
    }
    case ChaosKind::kSlowLink:
      slow_mult_[event.node] = event.permille;
      break;
    case ChaosKind::kKillNode:
      // Permanent: the recovery manager (armed whenever the plan carries a durable
      // event, so non-null here) reconstructs what the mirrors and journals cover
      // and the dispatch loop re-homes the node's fibers off the dead bitmask.
      ACE_CHECK(machine_->recovery() != nullptr);
      machine_->recovery()->OnKillNode(static_cast<ProcId>(event.node), proc);
      break;
    case ChaosKind::kCorruptPage:
      ACE_CHECK(machine_->recovery() != nullptr);
      machine_->recovery()->OnCorruptPage(event, proc);
      break;
  }
}

void ChaosController::Recover(const ChaosEvent& event) {
  switch (event.kind) {
    case ChaosKind::kDrainMem:
      machine_->physical_memory().SetLocalLimit(static_cast<ProcId>(event.node),
                                                machine_->physical_memory().local_pages_per_proc());
      break;
    case ChaosKind::kStallProc:
      break;  // one-shot: activation did everything
    case ChaosKind::kSlowLink:
      slow_mult_[event.node] = 1000;
      break;
    case ChaosKind::kKillNode:
    case ChaosKind::kCorruptPage:
      break;  // one-shot: never reach Phase::kActive
  }
}

}  // namespace ace
