// Durability substrate: off-node mirrors, dirty-page journals, page checksums.
//
// The paper's single-copy-per-page discipline (section 2.3.1: local memories are
// strictly a cache over global memory) means a page owned by a node — local-writable
// or remote-homed — has its only current content in that node's local memory; the
// global frame is stale until the next sync. A permanent node loss (kill-node chaos
// event, DESIGN.md section 14) would therefore be unrecoverable data loss. The
// ReplicaManager closes that hole without changing the protocol:
//
//   * Read-mostly pages already have an off-node mirror for free: the global frame
//     is byte-identical to every Read-Only replica, so losing a node costs only the
//     replica (re-faulted on demand), never the content.
//   * Owned pages get a *dirty-page journal*: the first store after ownership mirrors
//     the whole frame into the journal buffer (charged like a page copy, eq. 2
//     discipline: one local fetch + one global store per word, scaled by the copy
//     efficiency), and every subsequent store writes through one word (one global
//     store). The journal retires when the owner syncs back — the global frame is
//     current again and *is* the mirror. The journal pool is bounded; once
//     `journal_page_cap` journals are open, further owned pages are marked
//     unreplicated and die with their node (counted as lost_pages).
//   * Global frames carry an FNV-1a checksum, blessed whenever the protocol makes
//     the global content authoritative (sync, pmap copy, pagein) and verified on
//     remote fetch (EnsureLocalCopy), so silent corruption is detected before it
//     propagates into a replica.
//
// The manager is armed only when the fault plan contains a permanent chaos event
// (FaultPlan::has_durable_chaos); disarmed machines keep the exact pre-durability
// code paths, costs, and counters, so every existing baseline is byte-identical.

#ifndef SRC_NUMA_REPLICA_MANAGER_H_
#define SRC_NUMA_REPLICA_MANAGER_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/sim/bus.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"

namespace ace {

// FNV-1a over a page worth of bytes; the per-page integrity checksum.
inline std::uint64_t PageChecksum(const std::uint8_t* bytes, std::uint32_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint32_t i = 0; i < size; ++i) {
    h = (h ^ bytes[i]) * 0x100000001b3ULL;
  }
  return h;
}

class ReplicaManager {
 public:
  struct Options {
    // Open journals allowed at once. Owned pages beyond the cap are unreplicated
    // (lost if their node dies) — the bound keeps the mirror memory honest.
    std::uint32_t journal_page_cap = 4096;
  };

  ReplicaManager(const MachineConfig& config, PhysicalMemory* phys, ProcClocks* clocks,
                 MachineStats* stats, IpcBus* bus, Options options);
  ReplicaManager(const MachineConfig& config, PhysicalMemory* phys, ProcClocks* clocks,
                 MachineStats* stats, IpcBus* bus)
      : ReplicaManager(config, phys, clocks, stats, bus, Options()) {}

  ReplicaManager(const ReplicaManager&) = delete;
  ReplicaManager& operator=(const ReplicaManager&) = delete;

  // --- dirty-page journal ------------------------------------------------------------

  // A store landed in the owner frame of `lp` (frame content already post-write).
  // Opens the journal on the first store (full-frame mirror, page-copy cost) and
  // writes the word through on later ones. `charge` is false for debug stores, which
  // must not perturb clocks or the bus.
  void NoteOwnedStore(LogicalPage lp, const std::uint8_t* frame, std::uint32_t offset,
                      std::uint32_t value, ProcId proc, bool charge);

  // Retire `lp`'s journal (the global frame is current again) and clear any
  // unreplicated mark. Called on sync, page reset, and after a kill restores it.
  void CloseJournal(LogicalPage lp);

  bool journal_open(LogicalPage lp) const { return !journal_[lp].empty(); }
  const std::uint8_t* journal_data(LogicalPage lp) const {
    ACE_DCHECK(journal_open(lp));
    return journal_[lp].data();
  }
  // True when `lp` needed a journal but the cap was already reached: its owner copy
  // has no mirror and is lost if the owning node dies.
  bool unreplicated(LogicalPage lp) const { return unreplicated_[lp] != 0; }
  std::uint32_t open_journals() const { return open_journals_; }
  std::uint32_t journal_page_cap() const { return options_.journal_page_cap; }

  // --- global-frame checksums ----------------------------------------------------------

  // Record the checksum of `lp`'s global frame: its content is authoritative now.
  void BlessGlobal(LogicalPage lp);
  // Drop the checksum (the global frame is about to receive untracked stores, e.g.
  // the page entered Global-Writable where user stores hit the frame directly).
  void InvalidateChecksum(LogicalPage lp);
  // Verify the global frame against its blessed checksum; false means detected
  // corruption (the caller repairs and re-blesses). With no checksum on record the
  // current content is blessed and the check passes vacuously.
  bool VerifyGlobal(LogicalPage lp);
  bool checksum_valid(LogicalPage lp) const { return checksum_valid_[lp] != 0; }

  // --- cost accounting -----------------------------------------------------------------

  // Charge `proc` system time for mirroring `words` 32-bit words off-node: one local
  // fetch plus one global store per word, scaled by the copy efficiency — the exact
  // per-word discipline of PhysicalMemory::CopyPage, so eq. 2's overhead terms stay
  // honest. Returns the charged time.
  TimeNs ChargeMirror(ProcId proc, std::uint32_t words);

 private:
  PhysicalMemory* phys_;
  ProcClocks* clocks_;
  MachineStats* stats_;
  IpcBus* bus_;
  Options options_;
  std::uint32_t page_size_;
  std::uint32_t words_per_page_;
  TimeNs mirror_word_ns_;  // raw per-word mirror cost (local fetch + global store)
  double copy_efficiency_;

  std::uint32_t open_journals_ = 0;
  std::vector<std::vector<std::uint8_t>> journal_;  // empty vector == closed
  std::vector<std::uint8_t> unreplicated_;          // cap overflow marks (bool)
  std::vector<std::uint64_t> checksum_;
  std::vector<std::uint8_t> checksum_valid_;        // bool
};

}  // namespace ace

#endif  // SRC_NUMA_REPLICA_MANAGER_H_
