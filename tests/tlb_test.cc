// Software-TLB unit and invalidation tests (src/machine/tlb.h).
//
// Three layers of guarantee are frozen here:
//   1. Cache mechanics — hit/miss/fill/conflict-eviction counting on the
//      direct-mapped per-processor array.
//   2. Shootdown completeness — every PageState transition the NUMA protocol can
//      perform (ownership move, page sync, replication invalidate, protection
//      change, CoW shadow break, pageout round-trip, task teardown, pool reclaim)
//      must leave no stale entry behind. Each scenario drives the transition through
//      the real machine and then inspects the TLB directly with Peek().
//   3. Poison mode — with the shootdown sink deliberately detached, the next access
//      through a stale entry must die on ACE_CHECK (stale-entry detection), proving
//      the verify cross-check would catch any future protocol path that bypasses the
//      MMU mutators.

#include <gtest/gtest.h>

#include <memory>

#include "src/machine/machine.h"
#include "src/obs/snapshot.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

Machine::Options SmallMachine(int procs = 3, std::uint32_t tlb_entries = 1024) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.config.global_pages = 32;
  mo.config.local_pages_per_proc = 16;
  mo.config.tlb_entries = tlb_entries;
  return mo;
}

VirtPage PageOf(const Machine& m, VirtAddr va) { return va / m.page_size(); }

// --- cache mechanics ---------------------------------------------------------------

TEST(TlbCache, MissFillThenHit) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());

  ASSERT_TRUE(m.tlb_enabled());
  (void)m.LoadWord(*t, 0, va);  // cold: miss, fault, fill
  const TlbStats& s = m.tlb_stats();
  EXPECT_GE(s.misses, 1u);
  EXPECT_GE(s.fills, 1u);
  std::uint64_t hits_before = s.hits;
  (void)m.LoadWord(*t, 0, va + 4);  // same page: pure hit
  (void)m.LoadWord(*t, 0, va + 8);
  EXPECT_EQ(m.tlb_stats().hits, hits_before + 2);
}

TEST(TlbCache, ReadOnlyEntryMissesOnStoreThenUpgrades) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  (void)m.LoadWord(*t, 1, va);  // read-only replica on proc 1

  std::uint64_t misses_before = m.tlb_stats().misses;
  m.StoreWord(*t, 1, va, 42);  // write needs an upgrade: protection miss
  EXPECT_GT(m.tlb_stats().misses, misses_before);
  EXPECT_EQ(m.LoadWord(*t, 1, va), 42u);
}

TEST(TlbCache, ConflictingPagesEvictEachOther) {
  // 4 entries per processor: pages p and p+4 share a slot.
  Machine m(SmallMachine(/*procs=*/2, /*tlb_entries=*/4));
  Task* t = m.CreateTask("t");
  VirtAddr region = t->MapAnonymous("pages", 8 * m.page_size());
  VirtAddr a = region;
  VirtAddr b = region + 4 * m.page_size();
  ASSERT_EQ(PageOf(m, a) % 4, PageOf(m, b) % 4);

  (void)m.LoadWord(*t, 0, a);
  std::uint64_t evictions_before = m.tlb_stats().conflict_evictions;
  (void)m.LoadWord(*t, 0, b);  // displaces a's entry
  EXPECT_EQ(m.tlb_stats().conflict_evictions, evictions_before + 1);
  EXPECT_EQ(m.tlb().Peek(0, PageOf(m, a)), nullptr);
  EXPECT_NE(m.tlb().Peek(0, PageOf(m, b)), nullptr);
}

TEST(TlbCache, PerProcessorEntriesAreIndependent) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  (void)m.LoadWord(*t, 0, va);
  (void)m.LoadWord(*t, 1, va);
  EXPECT_NE(m.tlb().Peek(0, PageOf(m, va)), nullptr);
  EXPECT_NE(m.tlb().Peek(1, PageOf(m, va)), nullptr);
  EXPECT_EQ(m.tlb().Peek(2, PageOf(m, va)), nullptr);
}

// --- one accounting path; runs are observation only ---------------------------------

TEST(TlbRuns, StatsReferenceTakenBeforeHitsSeesEveryHit) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  (void)m.LoadWord(*t, 0, va);  // cold: miss, fault, fill

  // Every hit is accounted as it happens, so a reference taken once stays current.
  const MachineStats& s = m.stats();
  const std::uint64_t refs_before = s.refs[0].Total();
  const std::uint64_t hits_before = m.tlb_stats().hits;
  for (int i = 0; i < 64; ++i) {
    (void)m.LoadWord(*t, 0, va + static_cast<VirtAddr>(4 * (i % 16)));
  }
  ASSERT_EQ(m.tlb_stats().hits, hits_before + 64);
  EXPECT_EQ(s.refs[0].Total(), refs_before + 64);
  EXPECT_EQ(s.refs[0].fetch_local, refs_before + 64);
  CheckMachineInvariants(m);
}

TEST(TlbRuns, SamePageLoadsCountOneRun) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 1);  // the miss closes any run; caches a writable entry

  const TlbStats before = m.tlb_stats();
  for (int i = 0; i < 64; ++i) {
    (void)m.LoadWord(*t, 0, va + static_cast<VirtAddr>(4 * (i % 16)));
  }
  const TlbStats after = m.tlb_stats();
  EXPECT_EQ(after.hits - before.hits, 64u);
  EXPECT_EQ(after.run_flushes - before.run_flushes, 1u);
  EXPECT_EQ(after.batched_refs - before.batched_refs, 64u);

  // A change of kind on the same page starts a new run.
  m.StoreWord(*t, 0, va, 5);
  EXPECT_EQ(m.tlb_stats().hits, after.hits + 1);
  EXPECT_EQ(m.tlb_stats().run_flushes, after.run_flushes + 1);
}

TEST(TlbRuns, AlternatingPagesCountOneRunPerHit) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr a = t->MapAnonymous("pages", 2 * m.page_size());
  VirtAddr b = a + m.page_size();
  (void)m.LoadWord(*t, 0, a);
  (void)m.LoadWord(*t, 0, b);

  const TlbStats before = m.tlb_stats();
  for (int i = 0; i < 64; ++i) {
    (void)m.LoadWord(*t, 0, i % 2 == 0 ? a : b);
  }
  const TlbStats after = m.tlb_stats();
  EXPECT_EQ(after.hits - before.hits, 64u);
  EXPECT_EQ(after.run_flushes - before.run_flushes, 64u);
}

TEST(TlbRuns, BatchedRefsEqualHits) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr region = t->MapAnonymous("pages", 4 * m.page_size());
  for (int i = 0; i < 256; ++i) {
    const ProcId proc = static_cast<ProcId>(i % 3);
    const VirtAddr va = region + static_cast<VirtAddr>((i * 7 % 4) * m.page_size() + 4 * i);
    if (i % 5 == 0) {
      m.StoreWord(*t, proc, va, static_cast<std::uint32_t>(i));
    } else {
      (void)m.LoadWord(*t, proc, va);
    }
  }
  const TlbStats s = m.tlb_stats();
  EXPECT_GT(s.hits, 0u);
  EXPECT_EQ(s.batched_refs, s.hits);
  EXPECT_GT(s.run_flushes, 0u);
  EXPECT_LE(s.run_flushes, s.hits);
  CheckMachineInvariants(m);
}

// --- shootdown on every protocol transition -----------------------------------------

TEST(TlbShootdown, OwnershipMoveInvalidatesOldOwner) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);  // proc 0 owns local-writable
  ASSERT_NE(m.tlb().Peek(0, PageOf(m, va)), nullptr);

  m.StoreWord(*t, 1, va, 8);  // sync + flush + move to proc 1
  EXPECT_EQ(m.tlb().Peek(0, PageOf(m, va)), nullptr);
  EXPECT_EQ(m.LoadWord(*t, 0, va), 8u);  // refault resolves the new location
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, WriteInvalidatesEveryReadReplica) {
  Machine m(SmallMachine(/*procs=*/4));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);
  for (ProcId p = 1; p < 4; ++p) {
    (void)m.LoadWord(*t, p, va);  // replicate everywhere
  }
  m.StoreWord(*t, 2, va, 9);  // invalidates all other copies
  for (ProcId p = 0; p < 4; ++p) {
    if (p != 2) {
      EXPECT_EQ(m.tlb().Peek(p, PageOf(m, va)), nullptr) << "proc " << p;
    }
  }
  for (ProcId p = 0; p < 4; ++p) {
    EXPECT_EQ(m.LoadWord(*t, p, va), 9u);
  }
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, CowShadowBreakInvalidatesReaders) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr original = t->MapAnonymous("orig", m.page_size());
  m.StoreWord(*t, 0, original, 100);
  const Region* r = t->FindRegion(original);
  VirtAddr copy = t->MapCopy("copy", r->object, 0, m.page_size());

  (void)m.LoadWord(*t, 1, copy);  // reads share the backing page
  m.StoreWord(*t, 1, copy, 999);  // CoW break: private shadow page
  // Whatever entries the break touched, every subsequent access must see the new
  // world: the copy reads 999 everywhere, the original still reads 100.
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(m.LoadWord(*t, p, copy), 999u);
    EXPECT_EQ(m.LoadWord(*t, p, original), 100u);
  }
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, PageoutRoundTripInvalidatesAndRefills) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 4;
  mo.config.local_pages_per_proc = 4;
  mo.enable_pager = true;
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr region = t->MapAnonymous("big", 8 * m.page_size());
  for (int p = 0; p < 8; ++p) {
    m.StoreWord(*t, 0, region + static_cast<VirtAddr>(p) * m.page_size(),
                static_cast<std::uint32_t>(p + 100));
  }
  ASSERT_GT(m.pager()->stats().pageouts, 0u);
  // Evicted pages' translations are gone; the round trip pages content back in.
  for (int p = 0; p < 8; ++p) {
    EXPECT_EQ(m.LoadWord(*t, 0, region + static_cast<VirtAddr>(p) * m.page_size()),
              static_cast<std::uint32_t>(p + 100));
  }
  EXPECT_GT(m.tlb_stats().shootdown_pages, 0u);
  CheckMachineInvariants(m);
}

// --- frame-free paths (audit: teardown, unmap, reclaim) -----------------------------

TEST(TlbShootdown, TaskTeardownLeavesNoStaleEntries) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", 2 * m.page_size());
  m.StoreWord(*t, 0, va, 7);
  (void)m.LoadWord(*t, 1, va + m.page_size());
  VirtPage p0 = PageOf(m, va);
  VirtPage p1 = PageOf(m, va + m.page_size());
  ASSERT_NE(m.tlb().Peek(0, p0), nullptr);

  m.DestroyTask(t);  // VmObject teardown frees every frame
  EXPECT_EQ(m.tlb().Peek(0, p0), nullptr);
  EXPECT_EQ(m.tlb().Peek(1, p1), nullptr);
}

TEST(TlbShootdown, UnmapRegionLeavesNoStaleEntries) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr keep = t->MapAnonymous("keep", m.page_size());
  VirtAddr gone = t->MapAnonymous("gone", m.page_size());
  m.StoreWord(*t, 0, keep, 1);
  m.StoreWord(*t, 0, gone, 2);
  ASSERT_NE(m.tlb().Peek(0, PageOf(m, gone)), nullptr);

  t->UnmapRegion(gone, m.page_pool());
  EXPECT_EQ(m.tlb().Peek(0, PageOf(m, gone)), nullptr);
  EXPECT_EQ(m.LoadWord(*t, 0, keep), 1u);  // unrelated entry survives
  CheckMachineInvariants(m);
}

TEST(TlbShootdown, CountersSurfaceInTheTlbGroup) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);
  m.StoreWord(*t, 1, va, 8);
  const TlbStats& s = m.tlb_stats();
  EXPECT_GT(s.shootdown_pages, 0u);
  // The obs formatting helper renders the group without touching machine state.
  std::string line = FormatTlbCounters(s.hits, s.misses, s.fills, s.conflict_evictions,
                                       s.shootdown_pages, s.shootdown_hits,
                                       s.run_flushes, s.batched_refs);
  EXPECT_NE(line.find("shootdown-pages="), std::string::npos);
}

// --- disabled mode -----------------------------------------------------------------

TEST(TlbDisabled, OptionsDisableMeansNoFillsAndIdenticalValues) {
  Machine::Options mo = SmallMachine();
  mo.enable_tlb = false;
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);
  EXPECT_EQ(m.LoadWord(*t, 1, va), 7u);
  EXPECT_FALSE(m.tlb_enabled());
  EXPECT_EQ(m.tlb_stats().fills, 0u);
  EXPECT_EQ(m.tlb_stats().hits, 0u);
}

// --- poison mode: stale entries must be caught --------------------------------------

TEST(TlbDeath, StaleEntryAfterDetachedSinkTripsVerify) {
  Machine::Options mo = SmallMachine();
  mo.tlb_verify = true;  // force the poison cross-check on regardless of build flags
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("page", m.page_size());
  m.StoreWord(*t, 0, va, 7);  // proc 0 caches its local-writable translation
  ASSERT_TRUE(m.tlb_verify_enabled());
  ASSERT_NE(m.tlb().Peek(0, PageOf(m, va)), nullptr);

  // Simulate a protocol path that bypasses the MMU mutators: detach the sink, then
  // force an ownership move. Proc 0's entry is now stale, and the next hit through
  // it must die on the verify ACE_CHECK instead of silently using the old frame.
  m.pmap().mmus().set_shootdown_sink(nullptr);
  m.StoreWord(*t, 1, va, 8);
  ASSERT_NE(m.tlb().Peek(0, PageOf(m, va)), nullptr) << "entry should be stale";
  EXPECT_DEATH((void)m.LoadWord(*t, 0, va), "poisoned TLB entry");
}

}  // namespace
}  // namespace ace
