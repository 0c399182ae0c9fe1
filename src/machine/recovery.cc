#include "src/machine/recovery.h"

#include "src/common/check.h"
#include "src/machine/machine.h"
#include "src/numa/numa_manager.h"
#include "src/sim/physical_memory.h"

namespace ace {

RecoveryManager::RecoveryManager(Machine* machine) : machine_(machine) {
  ACE_CHECK(machine_ != nullptr);
}

int RecoveryManager::live_processors() const {
  int live = 0;
  for (int p = 0; p < machine_->num_processors(); ++p) {
    if (!node_dead(static_cast<ProcId>(p))) {
      ++live;
    }
  }
  return live;
}

void RecoveryManager::OnKillNode(ProcId node, ProcId proc) {
  ACE_CHECK(static_cast<int>(node) < machine_->num_processors());
  if (node_dead(node)) {
    return;
  }
  // Mark dead before touching memory so the actor selection below (and the dispatch
  // loop's re-homing scan, which may interleave via ACE_CHECK reporting) never picks
  // the node being killed.
  dead_nodes_ |= (1u << static_cast<std::uint32_t>(node));
  ACE_CHECK_MSG(live_processors() > 0, "kill-node left no surviving processor");

  ProcId actor = proc;
  if (actor == node || node_dead(actor)) {
    for (int p = 0; p < machine_->num_processors(); ++p) {
      if (!node_dead(static_cast<ProcId>(p))) {
        actor = static_cast<ProcId>(p);
        break;
      }
    }
  }

  // The node can never hand out a local frame again; the NUMA layer reconstructs or
  // writes off everything that was resident there; the dead slab is then poisoned so
  // a stale read of it is loud garbage, never silently-correct data.
  machine_->physical_memory().SetLocalLimit(node, 0);
  machine_->numa_manager().KillNode(node, actor);
  machine_->physical_memory().PoisonLocal(node, 0xDE);
}

void RecoveryManager::OnCorruptPage(const ChaosEvent& event, ProcId proc) {
  const ProcId node = static_cast<ProcId>(event.node);
  ACE_CHECK(static_cast<int>(node) < machine_->num_processors());
  if (node_dead(node)) {
    return;  // no resident frames left to corrupt
  }
  ProcId actor = proc;
  if (node_dead(actor)) {
    for (int p = 0; p < machine_->num_processors(); ++p) {
      if (!node_dead(static_cast<ProcId>(p))) {
        actor = static_cast<ProcId>(p);
        break;
      }
    }
  }
  const std::uint64_t seed = CorruptionSeed(machine_->options().fault_seed, event);
  machine_->numa_manager().CorruptAndScrubNode(node, seed, event.permille, actor);
}

}  // namespace ace
