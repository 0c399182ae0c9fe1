// Unit tests for the NUMA manager: every cell of Tables 1 and 2, zero-fill laziness,
// content movement, move counting, page reset, and the local-memory-full fallback.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "src/machine/machine.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

struct Cell {
  AccessKind kind;
  Placement decision;
  int start;  // 0=RO(replica on node 1), 1=GW, 2=LW own, 3=LW other
  // expected results:
  PageState new_state;
  bool copied;
  const char* cleanup;  // every cleanup action, "; "-joined; "No action"; or "" (copy only)
};

class ProtocolCellTest : public ::testing::TestWithParam<Cell> {};

// A fixture machine with a scripted policy.
struct CellHarness {
  ScriptedPolicy policy;
  std::unique_ptr<Machine> machine;
  Task* task = nullptr;
  VirtAddr va = 0;
  LogicalPage lp = kNoLogicalPage;

  CellHarness() {
    Machine::Options mo;
    mo.config.num_processors = 3;
    mo.config.global_pages = 16;
    mo.config.local_pages_per_proc = 8;
    mo.custom_policy = &policy;
    machine = std::make_unique<Machine>(mo);
    task = machine->CreateTask("cell");
    va = task->MapAnonymous("page", machine->page_size());
  }

  void Prepare(int start) {
    switch (start) {
      case 0:  // Read-Only with a replica on node 1
        policy.next = Placement::kLocal;
        (void)machine->LoadWord(*task, 1, va);
        break;
      case 1:  // Global-Writable
        policy.next = Placement::kGlobal;
        machine->StoreWord(*task, 1, va, 1);
        break;
      case 2:  // Local-Writable on the requesting node (0)
        policy.next = Placement::kLocal;
        machine->StoreWord(*task, 0, va, 1);
        break;
      case 3:  // Local-Writable on another node (1)
        policy.next = Placement::kLocal;
        machine->StoreWord(*task, 1, va, 1);
        break;
    }
    lp = machine->DebugLogicalPage(*task, va);
    machine->pmap().RemoveAll(lp);  // force the next access through the manager
  }
};

// Folds one request's trace events back into the cleanup labels of Tables 1 and 2.
// The manager emits one event per primitive, always on the requester's ring:
//   unmap                       -> "unmap all"
//   sync(aux=o) then flush(o)   -> "sync&flush own" (o is the requester) or "other"
//   a run of flushes, no sync   -> "flush all" when no local copy is left, else
//                                  "flush other"
// page-fault, migrate, replicate and zero-fill are not cleanup: whether the request
// copied the page to local memory is read off PageInfo, not off zero-fill (the GLOBAL
// row's zero-fill is the global frame's lazy fill).
std::string CleanupActions(const Tracer& tracer, ProcId requester, bool local_copy_left) {
  std::vector<std::string> labels;
  ProcId synced = kNoProc;
  tracer.ForEach(requester, [&](const TraceEvent& e) {
    const ProcId aux = static_cast<ProcId>(e.aux);
    switch (e.type) {
      case TraceEventType::kUnmap:
        labels.emplace_back("unmap all");
        break;
      case TraceEventType::kSync:
        synced = aux;
        break;
      case TraceEventType::kFlush:
        if (synced == aux) {
          labels.emplace_back(aux == requester ? "sync&flush own" : "sync&flush other");
          synced = kNoProc;
        } else {
          const char* label = local_copy_left ? "flush other" : "flush all";
          if (labels.empty() || labels.back() != label) {
            labels.emplace_back(label);
          }
        }
        break;
      default:
        break;
    }
  });
  std::string joined;
  for (const std::string& label : labels) {
    joined += (joined.empty() ? "" : "; ") + label;
  }
  return joined;
}

TEST_P(ProtocolCellTest, ActionsMatchPaperTables) {
  const Cell& cell = GetParam();
  static const char* const kStartNames[] = {"Read-Only", "Global-Writable",
                                            "Local-Writable (own node)",
                                            "Local-Writable (other node)"};
  SCOPED_TRACE(std::string(cell.kind == AccessKind::kFetch ? "read" : "write") + ", " +
               PlacementName(cell.decision) + " x " + kStartNames[cell.start]);
  CellHarness h;
  h.Prepare(cell.start);

  // Tracing starts once the start state is in place, so the rings hold exactly the
  // request's events.
  const ProcId requester = 0;
  h.machine->EnableTracing();
  const NumaManager& manager = h.machine->numa_manager();
  const bool had_copy = manager.PageInfo(h.lp).copies.Contains(requester);
  h.policy.next = cell.decision;
  if (cell.kind == AccessKind::kFetch) {
    (void)h.machine->LoadWord(*h.task, requester, h.va);
  } else {
    h.machine->StoreWord(*h.task, requester, h.va, 2);
  }

  const NumaPageInfo& info = manager.PageInfo(h.lp);
  const bool copied = !had_copy && info.copies.Contains(requester);
  std::string cleanup =
      CleanupActions(h.machine->observability().tracer(), requester, !info.copies.Empty());
  if (cleanup.empty() && !copied) {
    cleanup = "No action";
  }
  EXPECT_EQ(info.state, cell.new_state);
  EXPECT_EQ(copied, cell.copied);
  EXPECT_EQ(cleanup, cell.cleanup);
  CheckMachineInvariants(*h.machine);
}

INSTANTIATE_TEST_SUITE_P(
    Table1Reads, ProtocolCellTest,
    ::testing::Values(
        Cell{AccessKind::kFetch, Placement::kLocal, 0, PageState::kReadOnly, true, ""},
        Cell{AccessKind::kFetch, Placement::kLocal, 1, PageState::kReadOnly, true,
             "unmap all"},
        Cell{AccessKind::kFetch, Placement::kLocal, 2, PageState::kLocalWritable, false,
             "No action"},
        Cell{AccessKind::kFetch, Placement::kLocal, 3, PageState::kReadOnly, true,
             "sync&flush other"},
        Cell{AccessKind::kFetch, Placement::kGlobal, 0, PageState::kGlobalWritable, false,
             "flush all"},
        Cell{AccessKind::kFetch, Placement::kGlobal, 1, PageState::kGlobalWritable, false,
             "No action"},
        Cell{AccessKind::kFetch, Placement::kGlobal, 2, PageState::kGlobalWritable, false,
             "sync&flush own"},
        Cell{AccessKind::kFetch, Placement::kGlobal, 3, PageState::kGlobalWritable, false,
             "sync&flush other"}));

INSTANTIATE_TEST_SUITE_P(
    Table2Writes, ProtocolCellTest,
    ::testing::Values(
        Cell{AccessKind::kStore, Placement::kLocal, 0, PageState::kLocalWritable, true,
             "flush other"},
        Cell{AccessKind::kStore, Placement::kLocal, 1, PageState::kLocalWritable, true,
             "unmap all"},
        Cell{AccessKind::kStore, Placement::kLocal, 2, PageState::kLocalWritable, false,
             "No action"},
        Cell{AccessKind::kStore, Placement::kLocal, 3, PageState::kLocalWritable, true,
             "sync&flush other"},
        Cell{AccessKind::kStore, Placement::kGlobal, 0, PageState::kGlobalWritable, false,
             "flush all"},
        Cell{AccessKind::kStore, Placement::kGlobal, 1, PageState::kGlobalWritable, false,
             "No action"},
        Cell{AccessKind::kStore, Placement::kGlobal, 2, PageState::kGlobalWritable, false,
             "sync&flush own"},
        Cell{AccessKind::kStore, Placement::kGlobal, 3, PageState::kGlobalWritable, false,
             "sync&flush other"}));

// --- content correctness through transitions ----------------------------------------

TEST(NumaManagerContent, WriteSurvivesMigrationChain) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 0x11111111);
  h.machine->StoreWord(*h.task, 1, h.va + 4, 0x22222222);  // migrates 0 -> 1
  h.machine->StoreWord(*h.task, 2, h.va + 8, 0x33333333);  // migrates 1 -> 2
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va), 0x11111111u);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.va + 4), 0x22222222u);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.va + 8), 0x33333333u);
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerContent, SyncWritesBackBeforeGlobalPlacement) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.va, 77);  // LW on node 1
  h.policy.next = Placement::kGlobal;
  // A read with a GLOBAL decision must see the synced content from node 1's cache.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.va), 77u);
  EXPECT_EQ(h.machine->PageInfoFor(*h.task, h.va).state, PageState::kGlobalWritable);
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerContent, ReplicasAreIdenticalAndDropOnWrite) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 1234);
  (void)h.machine->LoadWord(*h.task, 1, h.va);  // replicate to 1
  (void)h.machine->LoadWord(*h.task, 2, h.va);  // replicate to 2
  const NumaPageInfo& info = h.machine->PageInfoFor(*h.task, h.va);
  EXPECT_EQ(info.state, PageState::kReadOnly);
  // Table 1: the read by node 1 sync&flushed node 0's writable copy, then nodes 1 and
  // 2 acquired read-only replicas.
  EXPECT_EQ(info.copies.Count(), 2);
  CheckMachineInvariants(*h.machine);
  // A write invalidates the other replicas.
  h.machine->StoreWord(*h.task, 2, h.va, 5678);
  const NumaPageInfo& after = h.machine->PageInfoFor(*h.task, h.va);
  EXPECT_EQ(after.state, PageState::kLocalWritable);
  EXPECT_EQ(after.owner, 2);
  EXPECT_EQ(after.copies.Count(), 1);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va), 5678u);
  CheckMachineInvariants(*h.machine);
}

// --- lazy zero-fill -------------------------------------------------------------------

TEST(NumaManagerZeroFill, FirstTouchZeroesLocallyNotGlobally) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.va), 0u);
  // The zero-fill happened in node 1's local memory; there was no page copy and no
  // global-memory zeroing (that is the paper's lazy zero-fill optimization).
  EXPECT_EQ(h.machine->stats().zero_fills, 1u);
  EXPECT_EQ(h.machine->stats().page_copies, 0u);
  const NumaPageInfo& info = h.machine->PageInfoFor(*h.task, h.va);
  EXPECT_TRUE(info.zero_pending);  // still pending: no writable mapping yet
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerZeroFill, SecondReplicaOfPendingPageIsZeroedNotCopied) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  (void)h.machine->LoadWord(*h.task, 0, h.va);
  (void)h.machine->LoadWord(*h.task, 1, h.va);
  EXPECT_EQ(h.machine->stats().zero_fills, 2u);  // two zeroed replicas
  EXPECT_EQ(h.machine->stats().page_copies, 0u);  // never copied garbage
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerZeroFill, PendingClearsOnWrite) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 9);
  EXPECT_FALSE(h.machine->PageInfoFor(*h.task, h.va).zero_pending);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va + 8), 0u);  // rest of page is zero
}

TEST(NumaManagerZeroFill, GlobalPlacementZeroesGlobalFrame) {
  CellHarness h;
  h.policy.next = Placement::kGlobal;
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va), 0u);
  const NumaPageInfo& info = h.machine->PageInfoFor(*h.task, h.va);
  EXPECT_EQ(info.state, PageState::kGlobalWritable);
  EXPECT_FALSE(info.zero_pending);
  CheckMachineInvariants(*h.machine);
}

// --- move counting -------------------------------------------------------------------

TEST(NumaManagerMoves, WriteMigrationCountsOncePerTransfer) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 1);  // first placement: no move
  EXPECT_EQ(h.machine->stats().ownership_moves, 0u);
  h.machine->StoreWord(*h.task, 1, h.va, 2);  // 0 -> 1
  EXPECT_EQ(h.machine->stats().ownership_moves, 1u);
  h.machine->StoreWord(*h.task, 1, h.va + 4, 3);  // same owner: no move
  EXPECT_EQ(h.machine->stats().ownership_moves, 1u);
  h.machine->StoreWord(*h.task, 0, h.va, 4);  // 1 -> 0
  EXPECT_EQ(h.machine->stats().ownership_moves, 2u);
}

TEST(NumaManagerMoves, ReadFromOwnerElsewhereCountsAsMove) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 1);
  (void)h.machine->LoadWord(*h.task, 1, h.va);  // page migrates 0 -> 1 (read)
  EXPECT_EQ(h.machine->stats().ownership_moves, 1u);
  // Single-writer/multi-reader cycles must accumulate moves and eventually pin;
  // this is the thrashing pattern that motivated counting read transfers.
  for (int i = 0; i < 6; ++i) {
    h.machine->StoreWord(*h.task, 0, h.va, static_cast<std::uint32_t>(i));
    (void)h.machine->LoadWord(*h.task, 1, h.va);
  }
  EXPECT_GE(h.machine->stats().ownership_moves, 6u);
}

TEST(NumaManagerMoves, ReplicationDoesNotCountMoves) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  (void)h.machine->LoadWord(*h.task, 0, h.va);
  (void)h.machine->LoadWord(*h.task, 1, h.va);
  (void)h.machine->LoadWord(*h.task, 2, h.va);
  EXPECT_EQ(h.machine->stats().ownership_moves, 0u);
}

// --- page reset / free -----------------------------------------------------------------

TEST(NumaManagerReset, FreedPageReleasesFramesAndState) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.va, 7);
  std::uint32_t free_before = h.machine->physical_memory().FreeLocalFrames(1);
  h.task->UnmapRegion(h.va, h.machine->page_pool());
  h.machine->page_pool().Drain();
  EXPECT_EQ(h.machine->physical_memory().FreeLocalFrames(1), free_before + 1);
  CheckMachineInvariants(*h.machine);
}

// --- local memory exhaustion -------------------------------------------------------------

TEST(NumaManagerPressure, FallsBackToGlobalWhenLocalFull) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 16;
  mo.config.local_pages_per_proc = 2;  // tiny cache
  Machine m(mo);
  Task* task = m.CreateTask("t");
  VirtAddr region = task->MapAnonymous("big", 8 * m.page_size());
  for (int p = 0; p < 8; ++p) {
    m.StoreWord(*task, 0, region + static_cast<VirtAddr>(p) * m.page_size(),
                static_cast<std::uint32_t>(p));
  }
  // Only 2 local frames exist; the rest of the pages had to go global.
  EXPECT_GT(m.stats().local_alloc_failures, 0u);
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(m.LoadWord(*task, 0, region + static_cast<VirtAddr>(p) * m.page_size()),
              static_cast<std::uint32_t>(p));
  }
  CheckMachineInvariants(m);
}

// --- pmap_copy_page ---------------------------------------------------------------------

TEST(NumaManagerCopy, CopyLogicalPagePropagatesContent) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.va, 0xfeedface);  // LW on node 1
  VirtAddr dst_va = h.task->MapAnonymous("dst", h.machine->page_size());
  LogicalPage src = h.machine->DebugLogicalPage(*h.task, h.va);
  LogicalPage dst = h.machine->DebugLogicalPage(*h.task, dst_va);
  h.machine->pmap().CopyPage(src, dst);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, dst_va), 0xfeedfaceu);
}

TEST(NumaManagerCopy, CopyOfPendingZeroPageStaysLazy) {
  CellHarness h;
  LogicalPage src = h.machine->DebugLogicalPage(*h.task, h.va);  // pending zero
  VirtAddr dst_va = h.task->MapAnonymous("dst", h.machine->page_size());
  LogicalPage dst = h.machine->DebugLogicalPage(*h.task, dst_va);
  std::uint64_t copies_before = h.machine->stats().page_copies;
  h.machine->pmap().CopyPage(src, dst);
  EXPECT_EQ(h.machine->stats().page_copies, copies_before);  // no physical copy
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, dst_va), 0u);
}

// --- pageout round-trips -----------------------------------------------------------------
//
// PrepareForPageout must collapse any cache state so the page's current content sits in
// its global frame; after ResetPage + LoadPageContent the page behaves like a freshly
// allocated page holding that content, with all placement decisions starting over.

std::vector<std::uint8_t> PageOutAndBackIn(CellHarness& h) {
  NumaManager& manager = h.machine->numa_manager();
  h.lp = h.machine->DebugLogicalPage(*h.task, h.va);
  const std::uint8_t* content = manager.PrepareForPageout(h.lp, 0);
  std::vector<std::uint8_t> saved(content, content + h.machine->page_size());
  // Between Prepare and Reset the page is a bare global frame: read-only, unowned,
  // no local copies, no pending zero-fill.
  const NumaPageInfo& bare = manager.PageInfo(h.lp);
  EXPECT_EQ(bare.state, PageState::kReadOnly);
  EXPECT_EQ(bare.owner, kNoProc);
  EXPECT_TRUE(bare.copies.Empty());
  EXPECT_FALSE(bare.zero_pending);
  manager.ResetPage(h.lp, 0);
  manager.LoadPageContent(h.lp, saved.data(), 0);
  return saved;
}

TEST(NumaManagerPageout, RoundTripFromLocalWritablePreservesOwnerContent) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 1, h.va, 0xfeedface);  // LW on node 1, global stale
  h.machine->StoreWord(*h.task, 1, h.va + 8, 0x1234);
  ASSERT_EQ(h.machine->PageInfoFor(*h.task, h.va).state, PageState::kLocalWritable);

  (void)PageOutAndBackIn(h);
  // The owner's frame was synced and released before its content was handed out.
  EXPECT_EQ(h.machine->physical_memory().FreeLocalFrames(1),
            h.machine->physical_memory().local_pages_per_proc());
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.va), 0xfeedfaceu);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.va + 8), 0x1234u);
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerPageout, RoundTripFromReadOnlyDropsAllReplicas) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 4242);
  (void)h.machine->LoadWord(*h.task, 1, h.va);  // RO, replicas on 1 and 2
  (void)h.machine->LoadWord(*h.task, 2, h.va);
  ASSERT_EQ(h.machine->PageInfoFor(*h.task, h.va).copies.Count(), 2);

  (void)PageOutAndBackIn(h);
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(h.machine->physical_memory().FreeLocalFrames(p),
              h.machine->physical_memory().local_pages_per_proc());
  }
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va), 4242u);
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerPageout, RoundTripFromGlobalWritable) {
  CellHarness h;
  h.policy.next = Placement::kGlobal;
  h.machine->StoreWord(*h.task, 1, h.va, 31u);
  ASSERT_EQ(h.machine->PageInfoFor(*h.task, h.va).state, PageState::kGlobalWritable);

  (void)PageOutAndBackIn(h);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va), 31u);
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerPageout, RoundTripFromRemoteHomedSyncsTheHomeCopy) {
  CellHarness h;
  h.policy.next = Placement::kRemoteHome;
  h.machine->StoreWord(*h.task, 1, h.va, 0xcafe);  // homed at node 1
  ASSERT_EQ(h.machine->PageInfoFor(*h.task, h.va).state, PageState::kRemoteHomed);
  ASSERT_EQ(h.machine->PageInfoFor(*h.task, h.va).owner, 1);

  std::vector<std::uint8_t> saved = PageOutAndBackIn(h);
  std::uint32_t first_word;
  std::memcpy(&first_word, saved.data(), sizeof(first_word));
  EXPECT_EQ(first_word, 0xcafeu);  // home copy reached the paged-out image
  EXPECT_EQ(h.machine->physical_memory().FreeLocalFrames(1),
            h.machine->physical_memory().local_pages_per_proc());
  h.policy.next = Placement::kLocal;
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va), 0xcafeu);
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerPageout, RoundTripMaterializesPendingZeros) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  ASSERT_EQ(h.machine->LoadWord(*h.task, 1, h.va), 0u);  // RO replica, zero pending
  ASSERT_TRUE(h.machine->PageInfoFor(*h.task, h.va).zero_pending);

  std::vector<std::uint8_t> saved = PageOutAndBackIn(h);
  // The lazy zero-fill cannot stay lazy across a pageout: the image must be zeros.
  for (std::uint8_t byte : saved) {
    ASSERT_EQ(byte, 0);
  }
  EXPECT_FALSE(h.machine->PageInfoFor(*h.task, h.va).zero_pending);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.va), 0u);
  CheckMachineInvariants(*h.machine);
}

TEST(NumaManagerPageout, RoundTripResetsMoveBudgetAndPin) {
  Machine::Options mo;
  mo.config.num_processors = 3;
  mo.config.global_pages = 16;
  mo.config.local_pages_per_proc = 8;
  mo.policy = PolicySpec::MoveLimit(1);
  Machine m(mo);
  Task* task = m.CreateTask("t");
  VirtAddr va = task->MapAnonymous("page", m.page_size());
  m.StoreWord(*task, 0, va, 10);
  m.StoreWord(*task, 1, va, 11);  // one move; budget exhausted
  m.StoreWord(*task, 0, va, 12);  // pins the page globally
  LogicalPage lp = m.DebugLogicalPage(*task, va);
  ASSERT_TRUE(m.move_limit_policy()->IsPinned(lp));

  NumaManager& manager = m.numa_manager();
  const std::uint8_t* content = manager.PrepareForPageout(lp, 0);
  std::vector<std::uint8_t> saved(content, content + m.page_size());
  manager.ResetPage(lp, 0);
  manager.LoadPageContent(lp, saved.data(), 0);

  // A paged-in page is a new placement problem: the move count and pin are gone,
  // so the first write caches locally again, but the content survived the trip.
  EXPECT_EQ(m.move_limit_policy()->MoveCount(lp), 0);
  EXPECT_FALSE(m.move_limit_policy()->IsPinned(lp));
  EXPECT_EQ(m.LoadWord(*task, 2, va), 12u);
  m.StoreWord(*task, 2, va + 4, 13);
  EXPECT_EQ(m.PageInfoFor(*task, va).state, PageState::kLocalWritable);
  EXPECT_EQ(m.PageInfoFor(*task, va).owner, 2);
  CheckMachineInvariants(m);
}

// --- debug access ------------------------------------------------------------------------

TEST(NumaManagerDebug, DebugReadSeesOwnerCopy) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 2, h.va, 31337);
  EXPECT_EQ(h.machine->DebugRead(*h.task, h.va), 31337u);
}

TEST(NumaManagerDebug, DebugWriteVisibleToAllStatesAndKeepsReplicasEqual) {
  CellHarness h;
  h.policy.next = Placement::kLocal;
  h.machine->StoreWord(*h.task, 0, h.va, 1);
  (void)h.machine->LoadWord(*h.task, 1, h.va);  // RO with replicas
  h.machine->DebugWrite(*h.task, h.va + 16, 0xabab);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.va + 16), 0xababu);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.va + 16), 0xababu);
  CheckMachineInvariants(*h.machine);
}

}  // namespace
}  // namespace ace
