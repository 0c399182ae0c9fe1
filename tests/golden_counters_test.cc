// Golden-counter tests: exactly which MachineStats counters each NUMA-manager
// operation increments.
//
// Each scenario drives one protocol transition through the real machine (scripted
// policy, so the placement decision is forced) and asserts the *complete* counter
// delta with DiffStats — not just the counters the transition is expected to bump,
// but that every other protocol counter stayed at zero. This freezes the counter
// semantics the observability layer (src/obs) and the paper's Table 4 overhead
// analysis both build on; an accidental double-count or a dropped increment anywhere
// in numa_manager.cc fails here with the exact field named.

#include <gtest/gtest.h>

#include <memory>

#include "src/machine/machine.h"
#include "src/obs/snapshot.h"

namespace ace {
namespace {

// Assert a full counter delta: the nine protocol counters as given, and every
// degradation, chaos and durability counter at zero — no scenario here arms a fault
// plan. (Reference counters are scenario-dependent and checked separately where
// interesting.)
void ExpectDelta(const MachineStats& d, std::uint64_t faults, std::uint64_t zero_fills,
                 std::uint64_t copies, std::uint64_t syncs, std::uint64_t flushes,
                 std::uint64_t unmaps, std::uint64_t moves, std::uint64_t pins,
                 std::uint64_t alloc_fails) {
  for (CounterGroup unarmed : {CounterGroup(kDegradedCounters), CounterGroup(kChaosCounters),
                                CounterGroup(kDurabilityCounters)}) {
    for (const MachineCounter& c : unarmed) {
      EXPECT_EQ(d.*c.member, 0u) << c.field;
    }
  }
  EXPECT_EQ(d.page_faults, faults) << "page_faults";
  EXPECT_EQ(d.zero_fills, zero_fills) << "zero_fills";
  EXPECT_EQ(d.page_copies, copies) << "page_copies";
  EXPECT_EQ(d.page_syncs, syncs) << "page_syncs";
  EXPECT_EQ(d.page_flushes, flushes) << "page_flushes";
  EXPECT_EQ(d.page_unmaps, unmaps) << "page_unmaps";
  EXPECT_EQ(d.ownership_moves, moves) << "ownership_moves";
  EXPECT_EQ(d.pages_pinned, pins) << "pages_pinned";
  EXPECT_EQ(d.local_alloc_failures, alloc_fails) << "local_alloc_failures";
}

struct Harness {
  ScriptedPolicy policy;
  std::unique_ptr<Machine> machine;
  Task* task = nullptr;
  VirtAddr va = 0;

  explicit Harness(int procs = 4, std::uint32_t local_pages = 8) {
    Machine::Options mo;
    mo.config.num_processors = procs;
    mo.config.global_pages = 16;
    mo.config.local_pages_per_proc = local_pages;
    mo.custom_policy = &policy;
    machine = std::make_unique<Machine>(mo);
    task = machine->CreateTask("golden");
    va = task->MapAnonymous("page", machine->page_size());
  }

  // Run `fn` and return the counter delta it produced.
  template <typename Fn>
  MachineStats Delta(Fn&& fn) {
    MachineStats before = machine->stats();
    fn();
    return DiffStats(before, machine->stats());
  }
};

TEST(GoldenCounters, FirstLocalReadZeroFillsIntoLocalMemory) {
  Harness h;
  h.policy.next = Placement::kLocal;
  MachineStats d = h.Delta([&] { (void)h.machine->LoadWord(*h.task, 0, h.va); });
  // One fault; the lazy zero-fill lands directly in proc 0's local memory (no global
  // zero, no copy — the section 2.3.1 optimization).
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/1, /*copies=*/0, /*syncs=*/0,
              /*flushes=*/0, /*unmaps=*/0, /*moves=*/0, /*pins=*/0, /*alloc_fails=*/0);
  EXPECT_EQ(d.refs[0].fetch_local, 1u);
}

TEST(GoldenCounters, SecondReaderOfUntouchedPageZeroFillsAgainNotCopies) {
  Harness h;
  h.policy.next = Placement::kLocal;
  (void)h.machine->LoadWord(*h.task, 0, h.va);
  MachineStats d = h.Delta([&] { (void)h.machine->LoadWord(*h.task, 1, h.va); });
  // The page has never been written, so zero_pending is still set: the new replica is
  // materialized by a second local zero-fill, NOT by a page copy.
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/1, /*copies=*/0, /*syncs=*/0,
              /*flushes=*/0, /*unmaps=*/0, /*moves=*/0, /*pins=*/0, /*alloc_fails=*/0);
}

TEST(GoldenCounters, ReplicationAfterWriteCopiesFromGlobal) {
  Harness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 7);  // proc 0 owns the page local-writable
  MachineStats d = h.Delta([&] { (void)h.machine->LoadWord(*h.task, 1, h.va); });
  // Table 1 [LOCAL x Local-Writable on other node]: sync & flush the owner, copy to
  // the reader's local memory; the transfer counts as an ownership move.
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/0, /*copies=*/1, /*syncs=*/1,
              /*flushes=*/1, /*unmaps=*/0, /*moves=*/1, /*pins=*/0, /*alloc_fails=*/0);
}

TEST(GoldenCounters, FirstLocalWriteZeroFillsAndTakesOwnershipWithoutMove) {
  Harness h;
  h.policy.next = Placement::kLocal;
  MachineStats d = h.Delta([&] { h.machine->StoreWord(*h.task, 0, h.va, 7); });
  // First ownership (last_owner was none) is not a move.
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/1, /*copies=*/0, /*syncs=*/0,
              /*flushes=*/0, /*unmaps=*/0, /*moves=*/0, /*pins=*/0, /*alloc_fails=*/0);
  EXPECT_EQ(d.refs[0].store_local, 1u);
}

TEST(GoldenCounters, WriteByOtherProcessorSyncsFlushesCopiesAndMoves) {
  Harness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 7);
  MachineStats d = h.Delta([&] { h.machine->StoreWord(*h.task, 1, h.va, 8); });
  // Table 2 [LOCAL x Local-Writable on other node].
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/0, /*copies=*/1, /*syncs=*/1,
              /*flushes=*/1, /*unmaps=*/0, /*moves=*/1, /*pins=*/0, /*alloc_fails=*/0);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.va), 8u);
}

TEST(GoldenCounters, GlobalDecisionOnOwnedPageSyncsAndFlushesOwnCopy) {
  Harness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 7);
  h.policy.next = Placement::kGlobal;
  // Force the next reference back through the manager (the LW mapping would otherwise
  // keep serving proc 0 without consulting the policy).
  h.machine->pmap().RemoveAll(h.machine->DebugLogicalPage(*h.task, h.va));
  MachineStats d = h.Delta([&] { (void)h.machine->LoadWord(*h.task, 0, h.va); });
  // Table 1 [GLOBAL x Local-Writable]: sync & flush own; page becomes Global-Writable.
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/0, /*copies=*/0, /*syncs=*/1,
              /*flushes=*/1, /*unmaps=*/0, /*moves=*/0, /*pins=*/0, /*alloc_fails=*/0);
  EXPECT_EQ(h.machine->PageInfoFor(*h.task, h.va).state, PageState::kGlobalWritable);
  EXPECT_EQ(d.refs[0].fetch_global, 1u);
}

TEST(GoldenCounters, GlobalDecisionOnReplicatedPageFlushesEveryReplica) {
  Harness h;
  h.policy.next = Placement::kLocal;
  (void)h.machine->LoadWord(*h.task, 0, h.va);
  (void)h.machine->LoadWord(*h.task, 1, h.va);
  (void)h.machine->LoadWord(*h.task, 2, h.va);  // three read-only replicas
  h.policy.next = Placement::kGlobal;
  h.machine->pmap().RemoveAll(h.machine->DebugLogicalPage(*h.task, h.va));
  MachineStats d = h.Delta([&] { (void)h.machine->LoadWord(*h.task, 3, h.va); });
  // Table 1 [GLOBAL x Read-Only]: flush all three replicas; the pending zero is
  // materialized in the global frame (the page was never written).
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/1, /*copies=*/0, /*syncs=*/0,
              /*flushes=*/3, /*unmaps=*/0, /*moves=*/0, /*pins=*/0, /*alloc_fails=*/0);
}

TEST(GoldenCounters, LocalDecisionOnGlobalPageUnmapsAllAndCopies) {
  Harness h;
  h.policy.next = Placement::kGlobal;
  h.machine->StoreWord(*h.task, 0, h.va, 7);  // Global-Writable, content 7
  h.policy.next = Placement::kLocal;
  MachineStats d = h.Delta([&] { h.machine->StoreWord(*h.task, 1, h.va, 8); });
  // Table 2 [LOCAL x Global-Writable]: unmap all, copy to local, Local-Writable. Proc
  // 1's store faults because its GW mapping never existed; proc 0's is dropped by the
  // unmap. First ownership after GW is not a move (last_owner was none).
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/0, /*copies=*/1, /*syncs=*/0,
              /*flushes=*/0, /*unmaps=*/1, /*moves=*/0, /*pins=*/0, /*alloc_fails=*/0);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.va), 8u);
}

TEST(GoldenCounters, LocalMemoryFullFallsBackToGlobalAndCountsTheFailure) {
  // One local frame per processor: the second distinct page wanted LOCAL but must
  // fall back to GLOBAL.
  Harness h(/*procs=*/2, /*local_pages=*/1);
  VirtAddr va2 = h.task->MapAnonymous("page2", h.machine->page_size());
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 7);  // consumes proc 0's only local frame
  MachineStats d = h.Delta([&] { h.machine->StoreWord(*h.task, 0, va2, 8); });
  ExpectDelta(d, /*faults=*/1, /*zero_fills=*/1, /*copies=*/0, /*syncs=*/0,
              /*flushes=*/0, /*unmaps=*/0, /*moves=*/0, /*pins=*/0, /*alloc_fails=*/1);
  EXPECT_EQ(h.machine->PageInfoFor(*h.task, va2).state, PageState::kGlobalWritable);
  EXPECT_EQ(d.refs[0].store_global, 1u);
}

TEST(GoldenCounters, MoveLimitPinsAfterThresholdMoves) {
  // Real move-limit policy, threshold 1: the first ownership move pins the page.
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 16;
  mo.config.local_pages_per_proc = 8;
  mo.policy = PolicySpec::MoveLimit(1);
  Machine machine(mo);
  Task* task = machine.CreateTask("pin");
  VirtAddr va = task->MapAnonymous("page", machine.page_size());

  machine.StoreWord(*task, 0, va, 1);  // proc 0 owns (no move)
  MachineStats before = machine.stats();
  machine.StoreWord(*task, 1, va, 2);  // move #1 reaches the threshold
  machine.StoreWord(*task, 0, va, 3);  // policy now answers GLOBAL: pin materializes
  MachineStats d = DiffStats(before, machine.stats());
  EXPECT_EQ(d.ownership_moves, 1u);
  EXPECT_EQ(d.pages_pinned, 1u);
  EXPECT_EQ(machine.PageInfoFor(*task, va).state, PageState::kGlobalWritable);
}

TEST(GoldenCounters, PageoutRoundTripCountsInPagerNotProtocol) {
  // Exhaust the logical page pool so the pager must evict; the protocol work of a
  // pageout (sync/flush of the victim) is visible in the protocol counters, and the
  // round trip itself in the pager's own counters.
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 4;
  mo.config.local_pages_per_proc = 4;
  mo.policy = PolicySpec::MoveLimit(4);
  mo.enable_pager = true;
  Machine machine(mo);
  Task* task = machine.CreateTask("pager");
  VirtAddr va = task->MapAnonymous("data", 8 * machine.page_size());

  for (std::uint32_t i = 0; i < 8; ++i) {
    machine.StoreWord(*task, 0, va + static_cast<VirtAddr>(i) * machine.page_size(),
                      i + 1);
  }
  ASSERT_NE(machine.pager(), nullptr);
  EXPECT_GT(machine.pager()->stats().pageouts, 0u);
  // Touch the first page again: it was paged out and must come back with content.
  EXPECT_EQ(machine.LoadWord(*task, 0, va), 1u);
  EXPECT_GT(machine.pager()->stats().pageins, 0u);
}

// The observability layer's machine-wide event counts must agree with the golden
// counters — every emit site sits next to its counter increment.
TEST(GoldenCounters, HeatEventTotalsMatchMachineStats) {
  Harness h;
  Observability& obs = h.machine->observability();
  obs.EnableHeat();
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 7);
  h.machine->StoreWord(*h.task, 1, h.va, 8);
  (void)h.machine->LoadWord(*h.task, 2, h.va);
  h.policy.next = Placement::kGlobal;
  h.machine->pmap().RemoveAll(h.machine->DebugLogicalPage(*h.task, h.va));
  (void)h.machine->LoadWord(*h.task, 3, h.va);

  const MachineStats& s = h.machine->stats();
  const HeatProfile& heat = obs.heat();
  EXPECT_EQ(heat.machine_events(TraceEventType::kPageFault), s.page_faults);
  EXPECT_EQ(heat.machine_events(TraceEventType::kZeroFill), s.zero_fills);
  EXPECT_EQ(heat.machine_events(TraceEventType::kReplicate), s.page_copies);
  EXPECT_EQ(heat.machine_events(TraceEventType::kSync), s.page_syncs);
  EXPECT_EQ(heat.machine_events(TraceEventType::kFlush), s.page_flushes);
  EXPECT_EQ(heat.machine_events(TraceEventType::kUnmap), s.page_unmaps);
  EXPECT_EQ(heat.machine_events(TraceEventType::kMigrate), s.ownership_moves);
  EXPECT_EQ(heat.machine_events(TraceEventType::kLocalAllocFail), s.local_alloc_failures);
}

}  // namespace
}  // namespace ace
