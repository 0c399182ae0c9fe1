// The recovery manager: deterministic reconstruction after permanent failures.
//
// The ChaosController (src/machine/chaos.h) applies *transient* degradation and
// undoes it at the window end. The two permanent chaos kinds — kill-node and
// corrupt-page (DESIGN.md section 14) — have no undo: they destroy state, and this
// manager decides what survives. It is the policy layer over the durability
// primitives: the ReplicaManager (src/numa/replica_manager.h) keeps the mirrors and
// checksums; NumaManager::KillNode / CorruptAndScrubNode walk the page table; this
// class sequences them, tracks which nodes are dead (the dispatch loop re-homes
// orphaned fibers off the bitmask), and keeps every decision a pure function of
// (plan, seed) so a failed run replays byte-identically.
//
// Constructed only when the fault plan carries a permanent chaos event
// (FaultPlan::has_durable_chaos); machines without one keep a null pointer and the
// exact pre-durability dispatch path.

#ifndef SRC_MACHINE_RECOVERY_H_
#define SRC_MACHINE_RECOVERY_H_

#include <cstdint>

#include "src/common/splitmix64.h"
#include "src/common/types.h"
#include "src/inject/fault_plan.h"

namespace ace {

class Machine;

class RecoveryManager {
 public:
  explicit RecoveryManager(Machine* machine);

  RecoveryManager(const RecoveryManager&) = delete;
  RecoveryManager& operator=(const RecoveryManager&) = delete;

  // A kill-node event crossed its trigger time: mark the node dead, zero its frame
  // allocation limit (it can never hand out a frame again), reconstruct or write off
  // every page resident in its local memory, and poison the dead slab so any stale
  // read of it shows up as garbage instead of silently correct data. `proc` is the
  // processor the dispatch loop acted for; the work is charged to it when it
  // survives, otherwise to the lowest-numbered surviving processor. Idempotent: a
  // second kill of the same node is a no-op. Aborts when the kill would leave no
  // surviving processor — such a plan is a configuration error, not a recoverable
  // state.
  void OnKillNode(ProcId node, ProcId proc);

  // A corrupt-page event crossed its trigger time: flip bits in a deterministic
  // permille-selected subset of the node's resident frames and run the checksum
  // scrub over them (one atomic transition; see NumaManager::CorruptAndScrubNode).
  // No-op when the node is already dead — it has no resident frames left.
  void OnCorruptPage(const ChaosEvent& event, ProcId proc);

  bool has_dead_nodes() const { return dead_nodes_ != 0; }
  bool node_dead(ProcId p) const {
    return (dead_nodes_ >> static_cast<std::uint32_t>(p)) & 1u;
  }
  // Bitmask of dead nodes (bit p = processor p). Monotone — bits are only ever set —
  // so it can ride the live feed's monotone-counter validation unchanged.
  std::uint32_t dead_nodes() const { return dead_nodes_; }
  int live_processors() const;

  // The seed CorruptAndScrubNode draws its frame selection from: the machine's fault
  // seed mixed with the event's identity, so distinct events on one plan corrupt
  // independent subsets while (plan, seed) still replays byte-identically.
  static std::uint64_t CorruptionSeed(std::uint64_t fault_seed, const ChaosEvent& event) {
    std::uint64_t s = fault_seed ^ 0x05ec07e5a11d5eedULL;
    s ^= (static_cast<std::uint64_t>(event.node) + 1) * kSplitMix64Gamma;
    s ^= (static_cast<std::uint64_t>(event.t_begin) + 1) * kSplitMix64Mul1;
    s ^= (static_cast<std::uint64_t>(event.permille) + 1) * kSplitMix64Mul2;
    return s;
  }

 private:
  Machine* machine_;
  std::uint32_t dead_nodes_ = 0;
};

}  // namespace ace

#endif  // SRC_MACHINE_RECOVERY_H_
