// Machine-level tests for the durability subsystem (DESIGN.md section 14): the
// ReplicaManager's dirty-page journals and checksums, the RecoveryManager's kill-node
// and corrupt-page handling, and the EvacuateNode edge cases (pageout race, CoW
// shadows, cached TLB translations). Serving-workload end-to-end recovery lives in
// serving_fault_test.cc; the protocol-level differential check in conformance_test.cc.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/inject/fault_plan.h"
#include "src/machine/machine.h"
#include "src/machine/recovery.h"
#include "src/numa/replica_manager.h"
#include "src/obs/snapshot.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

FaultPlan Plan(const std::string& text) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(text, &plan, &error)) << text << ": " << error;
  return plan;
}

// A machine armed for durability without any event ever firing on its own: the plan
// carries a kill-node at a virtual time no test reaches (~15 minutes), which builds
// the ReplicaManager/RecoveryManager pair at construction; tests then drive the
// recovery manager directly to hit exact edge cases the dispatch loop's timing
// cannot pin down.
constexpr const char kArmingPlan[] = "kill-node@1:900000000000";

struct RecoveryHarness {
  ScriptedPolicy policy;
  std::unique_ptr<Machine> machine;
  Task* task = nullptr;
  VirtAddr va = 0;

  explicit RecoveryHarness(std::uint32_t journal_page_cap = 4096,
                           std::uint64_t pages = 2) {
    Machine::Options mo;
    mo.config.num_processors = 3;
    mo.config.global_pages = 16;
    mo.config.local_pages_per_proc = 8;
    mo.custom_policy = &policy;
    mo.fault_plan = Plan(kArmingPlan);
    mo.journal_page_cap = journal_page_cap;
    machine = std::make_unique<Machine>(mo);
    task = machine->CreateTask("recovery");
    va = task->MapAnonymous("data", pages * machine->page_size());
  }

  VirtAddr page(std::uint64_t p) const { return va + p * machine->page_size(); }
};

// --- dirty-page journal ---------------------------------------------------------------

TEST(ReplicaJournal, FirstOwnedStoreMirrorsTheFrameLaterStoresWriteThrough) {
  RecoveryHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.page(0), 0xfeedu);

  ReplicaManager* rm = h.machine->replica_manager();
  ASSERT_NE(rm, nullptr);
  const LogicalPage lp = h.machine->DebugLogicalPage(*h.task, h.page(0));
  EXPECT_TRUE(rm->journal_open(lp));
  EXPECT_FALSE(rm->unreplicated(lp));
  EXPECT_EQ(rm->open_journals(), 1u);
  // Opening mirrors the whole frame; the page's current content is reproducible
  // off-node even though its only live copy sits in node 1's local memory.
  EXPECT_EQ(h.machine->stats().replicated_pages, 1u);
  EXPECT_GE(h.machine->stats().journal_bytes,
            static_cast<std::uint64_t>(h.machine->page_size()));

  // A later store writes one word through, not another full mirror.
  const std::uint64_t bytes_after_open = h.machine->stats().journal_bytes;
  h.machine->StoreWord(*h.task, 1, h.page(0) + 8, 0xbeefu);
  EXPECT_EQ(h.machine->stats().replicated_pages, 1u);
  EXPECT_EQ(h.machine->stats().journal_bytes, bytes_after_open + 4);
  // The journal buffer tracks the owner frame byte for byte.
  std::uint32_t mirrored = 0;
  std::memcpy(&mirrored, rm->journal_data(lp) + 8, sizeof(mirrored));
  EXPECT_EQ(mirrored, 0xbeefu);
  CheckMachineInvariants(*h.machine);
}

TEST(ReplicaJournal, SyncRetiresTheJournal) {
  RecoveryHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.page(0), 7);
  const LogicalPage lp = h.machine->DebugLogicalPage(*h.task, h.page(0));
  ASSERT_TRUE(h.machine->replica_manager()->journal_open(lp));

  // A global placement syncs the owner copy back: the global frame is current again
  // and *is* the mirror, so the journal closes and the slot frees for another page.
  h.policy.next = Placement::kGlobal;
  (void)h.machine->LoadWord(*h.task, 0, h.page(0));
  EXPECT_FALSE(h.machine->replica_manager()->journal_open(lp));
  EXPECT_EQ(h.machine->replica_manager()->open_journals(), 0u);
  CheckMachineInvariants(*h.machine);
}

// --- kill-node ------------------------------------------------------------------------

TEST(KillNode, JournaledContentSurvivesTheOwningNode) {
  RecoveryHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.page(0), 0xfeedu);
  const LogicalPage lp = h.machine->DebugLogicalPage(*h.task, h.page(0));

  RecoveryManager* rec = h.machine->recovery();
  ASSERT_NE(rec, nullptr);
  EXPECT_FALSE(rec->has_dead_nodes());
  rec->OnKillNode(/*node=*/1, /*proc=*/0);

  // The node is gone for good: dead bit set, bitmask monotone, two survivors.
  EXPECT_TRUE(rec->node_dead(1));
  EXPECT_EQ(rec->dead_nodes(), 0b010u);
  EXPECT_EQ(rec->live_processors(), 2);
  // The owned page was reconstructed from its journal, nothing was written off,
  // and the journal retired (the global frame is the authoritative copy now).
  EXPECT_EQ(h.machine->stats().recovered_pages, 1u);
  EXPECT_EQ(h.machine->stats().lost_pages, 0u);
  EXPECT_FALSE(h.machine->replica_manager()->journal_open(lp));
  // Content is intact when read from a survivor, and new writes still work.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.page(0)), 0xfeedu);
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.page(0), 0xcafeu);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.page(0)), 0xcafeu);
  CheckMachineInvariants(*h.machine);

  // A second kill of the same node is a no-op, not double-counted recovery.
  const MachineStats before = h.machine->stats();
  rec->OnKillNode(1, 0);
  EXPECT_EQ(h.machine->stats().recovered_pages, before.recovered_pages);
  EXPECT_EQ(h.machine->stats().lost_pages, before.lost_pages);
  EXPECT_EQ(rec->dead_nodes(), 0b010u);
}

TEST(KillNode, ReadOnlyReplicasAreDroppedNotRecovered) {
  RecoveryHarness h;
  // Content lives in the global frame; node 1 only caches a Read-Only replica.
  h.policy.next = Placement::kGlobal;
  h.machine->StoreWord(*h.task, 0, h.page(0), 41);
  h.policy.next = Placement::kLocal;
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.page(0)), 41u);

  h.machine->recovery()->OnKillNode(1, 0);
  // The replica was free to lose: the global frame already mirrors it, so the kill
  // costs neither a recovery nor a loss.
  EXPECT_EQ(h.machine->stats().recovered_pages, 0u);
  EXPECT_EQ(h.machine->stats().lost_pages, 0u);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.page(0)), 41u);
  CheckMachineInvariants(*h.machine);
}

TEST(KillNode, JournalCapOverflowIsCountedAsLostPages) {
  // A cap of one journal: the first owned page mirrors, the second runs
  // unreplicated and genuinely dies with its node.
  RecoveryHarness h(/*journal_page_cap=*/1);
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.page(0), 0xaaaau);
  h.machine->StoreWord(*h.task, 1, h.page(1), 0xbbbbu);

  ReplicaManager* rm = h.machine->replica_manager();
  const LogicalPage lp0 = h.machine->DebugLogicalPage(*h.task, h.page(0));
  const LogicalPage lp1 = h.machine->DebugLogicalPage(*h.task, h.page(1));
  EXPECT_TRUE(rm->journal_open(lp0));
  EXPECT_FALSE(rm->journal_open(lp1));
  EXPECT_TRUE(rm->unreplicated(lp1));
  EXPECT_EQ(h.machine->stats().replicated_pages, 1u);

  h.machine->recovery()->OnKillNode(1, 0);
  EXPECT_EQ(h.machine->stats().recovered_pages, 1u);
  EXPECT_EQ(h.machine->stats().lost_pages, 1u);
  // The journaled page survives byte for byte; the lost page degrades to whatever
  // its stale global frame held — readable and writable, just not current.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.page(0)), 0xaaaau);
  std::uint32_t stale = h.machine->LoadWord(*h.task, 0, h.page(1));
  EXPECT_NE(stale, 0xbbbbu);  // the only current copy died with the node
  h.machine->StoreWord(*h.task, 0, h.page(1), 5);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.page(1)), 5u);
  CheckMachineInvariants(*h.machine);
}

// --- corrupt-page ---------------------------------------------------------------------

ChaosEvent CorruptEvent(std::uint32_t node, std::uint32_t permille = 1000) {
  ChaosEvent event;
  event.kind = ChaosKind::kCorruptPage;
  event.node = node;
  event.t_begin = 1000;
  event.t_end = 2000;
  event.permille = permille;
  return event;
}

TEST(CorruptPage, OwnedFrameIsDetectedAndRepairedFromTheJournal) {
  RecoveryHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.page(0), 0x5eedu);

  h.machine->recovery()->OnCorruptPage(CorruptEvent(1), /*proc=*/0);
  // permille 1000 flips a word in every resident frame on node 1 — exactly the one
  // owned frame here — and the scrub must detect and repair it in place.
  EXPECT_EQ(h.machine->stats().checksum_failures, 1u);
  EXPECT_FALSE(h.machine->recovery()->has_dead_nodes());
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.page(0)), 0x5eedu);
  CheckMachineInvariants(*h.machine);
}

TEST(CorruptPage, ReadOnlyReplicaIsRepairedFromTheChecksummedGlobal) {
  RecoveryHarness h;
  h.policy.next = Placement::kGlobal;
  h.machine->StoreWord(*h.task, 0, h.page(0), 77);
  h.policy.next = Placement::kLocal;
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.page(0)), 77u);

  h.machine->recovery()->OnCorruptPage(CorruptEvent(1), 0);
  EXPECT_EQ(h.machine->stats().checksum_failures, 1u);
  // The protocol invariant (Read-Only replicas byte-identical to global) must hold
  // again after the atomic corrupt+scrub transition.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.page(0)), 77u);
  CheckMachineInvariants(*h.machine);
}

TEST(CorruptPage, DeadNodesAreNotScrubbed) {
  RecoveryHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.page(0), 9);
  h.machine->recovery()->OnKillNode(1, 0);

  const MachineStats before = h.machine->stats();
  h.machine->recovery()->OnCorruptPage(CorruptEvent(1), 0);
  // No resident frames remain on a dead node; the scrub must be a strict no-op.
  EXPECT_EQ(h.machine->stats().checksum_failures, before.checksum_failures);
  EXPECT_EQ(h.machine->stats().recovered_pages, before.recovered_pages);
  CheckMachineInvariants(*h.machine);
}

TEST(CorruptPage, CorruptionSeedSeparatesEventsButReplaysExactly) {
  const ChaosEvent a = CorruptEvent(1);
  const ChaosEvent b = CorruptEvent(2);
  // Same (plan, seed) must replay bit-identically; distinct events on one plan must
  // draw independent frame selections.
  EXPECT_EQ(RecoveryManager::CorruptionSeed(17, a), RecoveryManager::CorruptionSeed(17, a));
  EXPECT_NE(RecoveryManager::CorruptionSeed(17, a), RecoveryManager::CorruptionSeed(17, b));
  EXPECT_NE(RecoveryManager::CorruptionSeed(17, a), RecoveryManager::CorruptionSeed(18, a));
}

// --- EvacuateNode edge cases ----------------------------------------------------------

TEST(EvacuateNode, RacingWithPageoutSkipsTheCollapsedPage) {
  RecoveryHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.page(0), 0x0ddu);
  h.machine->StoreWord(*h.task, 1, h.page(1), 0x0eeu);

  // Pageout wins the race on page 0: PrepareForPageout collapses it into its global
  // frame (and retires its journal) before the drain walks the table.
  const LogicalPage lp0 = h.machine->DebugLogicalPage(*h.task, h.page(0));
  NumaManager& manager = h.machine->numa_manager();
  ASSERT_NE(manager.PrepareForPageout(lp0, 0), nullptr);
  EXPECT_FALSE(h.machine->replica_manager()->journal_open(lp0));

  // The drain must only find page 1 — page 0 has no resident copy left to evacuate,
  // and double-counting it would corrupt the evacuation accounting.
  EXPECT_EQ(manager.EvacuateNode(/*node=*/1, /*target_frames=*/0, /*proc=*/0), 1u);
  EXPECT_EQ(h.machine->stats().evacuated_pages, 1u);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.page(0)), 0x0ddu);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.page(1)), 0x0eeu);
  CheckMachineInvariants(*h.machine);
}

TEST(EvacuateNode, CowShadowPagesKeepTheirPrivacy) {
  Machine::Options mo;
  mo.config.num_processors = 3;
  mo.config.global_pages = 32;
  mo.config.local_pages_per_proc = 16;
  Machine machine(mo);
  Task* task = machine.CreateTask("cow");
  const VirtAddr original = task->MapAnonymous("orig", machine.page_size());
  machine.StoreWord(*task, 1, original, 100);
  const Region* r = task->FindRegion(original);
  const VirtAddr copy = task->MapCopy("copy", r->object, 0, machine.page_size());
  machine.StoreWord(*task, 1, copy, 999);  // break: private shadow page on node 1

  // Both the original and its shadow are owned by node 1; evacuating the node must
  // sync each to its own global frame without re-fusing the CoW split.
  EXPECT_GE(machine.numa_manager().EvacuateNode(1, 0, 0), 2u);
  EXPECT_EQ(machine.LoadWord(*task, 0, copy), 999u);
  EXPECT_EQ(machine.LoadWord(*task, 2, original), 100u);
  EXPECT_NE(machine.DebugLogicalPage(*task, copy), machine.DebugLogicalPage(*task, original));
  CheckMachineInvariants(machine);
}

TEST(EvacuateNode, CachedTlbTranslationsAreShotDown) {
  // Force the poison cross-check on regardless of build flags: a stale TLB entry
  // surviving the evacuation aborts the run instead of silently reading the old
  // frame.
  ScriptedPolicy policy;
  Machine::Options mo;
  mo.config.num_processors = 3;
  mo.config.global_pages = 16;
  mo.config.local_pages_per_proc = 8;
  mo.custom_policy = &policy;
  mo.fault_plan = Plan(kArmingPlan);
  mo.enable_tlb = true;
  mo.tlb_verify = true;
  Machine machine(mo);
  Task* task = machine.CreateTask("tlb");
  const VirtAddr va = task->MapAnonymous("data", machine.page_size());

  policy.next = Placement::kLocal;
  machine.StoreWord(*task, 1, va, 0x70b5u);
  // Populate node 1's TLB with the owned-frame translation.
  EXPECT_EQ(machine.LoadWord(*task, 1, va), 0x70b5u);

  EXPECT_EQ(machine.numa_manager().EvacuateNode(1, 0, 0), 1u);
  // The next reference through node 1 must miss (or verify clean) and refault to
  // the page's post-evacuation home — with tlb_verify on, a stale hit aborts.
  EXPECT_EQ(machine.LoadWord(*task, 1, va), 0x70b5u);
  EXPECT_EQ(machine.LoadWord(*task, 0, va), 0x70b5u);
  CheckMachineInvariants(machine);
}

// --- determinism ----------------------------------------------------------------------

TEST(RecoveryDeterminism, IdenticalSequencesLeaveIdenticalCounters) {
  auto run = [](MachineStats* out) {
    RecoveryHarness h;
    h.policy.next = Placement::kLocal;
    h.machine->StoreWord(*h.task, 1, h.page(0), 1);
    h.machine->StoreWord(*h.task, 2, h.page(1), 2);
    h.machine->recovery()->OnCorruptPage(CorruptEvent(2, 500), 0);
    h.machine->recovery()->OnKillNode(1, 0);
    (void)h.machine->LoadWord(*h.task, 0, h.page(0));
    *out = h.machine->stats();
  };
  MachineStats a, b;
  run(&a);
  run(&b);
  EXPECT_TRUE(a == b) << DescribeStatsMismatch(a, b);
}

}  // namespace
}  // namespace ace
