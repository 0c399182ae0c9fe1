// Tests for copy-on-write mappings (paper section 2.1: Mach "may reduce privileges to
// implement copy-on-write"; the NUMA layer's ability to drop/tighten mappings at whim
// is what makes this cheap).

#include <gtest/gtest.h>

#include "src/machine/machine.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

Machine::Options SmallMachine(int procs = 3) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.config.global_pages = 32;
  mo.config.local_pages_per_proc = 16;
  return mo;
}

struct CowHarness {
  std::unique_ptr<Machine> machine;
  Task* task = nullptr;
  VirtAddr original = 0;
  VirtAddr copy = 0;

  explicit CowHarness(int procs = 3, std::uint64_t pages = 2) {
    machine = std::make_unique<Machine>(SmallMachine(procs));
    task = machine->CreateTask("t");
    original = task->MapAnonymous("orig", pages * machine->page_size());
    // Populate the original.
    for (std::uint64_t p = 0; p < pages; ++p) {
      machine->StoreWord(*task, 0, original + p * machine->page_size(),
                         static_cast<std::uint32_t>(100 + p));
    }
    const Region* r = task->FindRegion(original);
    copy = task->MapCopy("copy", r->object, 0, pages * machine->page_size());
  }
};

TEST(CopyOnWrite, ReadsShareTheBackingPages) {
  CowHarness h;
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.copy), 100u);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.copy + h.machine->page_size()), 101u);
  // No page copies happened for these reads beyond normal NUMA replication; the
  // backing logical pages serve both addresses.
  EXPECT_EQ(h.machine->DebugLogicalPage(*h.task, h.copy),
            h.machine->DebugLogicalPage(*h.task, h.original));
  CheckMachineInvariants(*h.machine);
}

TEST(CopyOnWrite, WriteCreatesPrivateCopy) {
  CowHarness h;
  h.machine->StoreWord(*h.task, 1, h.copy, 999);
  // The copy sees the new value; the original is untouched.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.copy), 999u);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.original), 100u);
  // Rest of the written page carried the original content over.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.copy + 8),
            h.machine->LoadWord(*h.task, 2, h.original + 8));
  EXPECT_NE(h.machine->DebugLogicalPage(*h.task, h.copy),
            h.machine->DebugLogicalPage(*h.task, h.original));
  CheckMachineInvariants(*h.machine);
}

TEST(CopyOnWrite, WriteToOriginalDoesNotLeakIntoCopyAfterBreak) {
  CowHarness h;
  h.machine->StoreWord(*h.task, 1, h.copy, 999);  // break page 0
  h.machine->StoreWord(*h.task, 0, h.original, 555);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.copy), 999u);
  // Unbroken page 1 still shares: writes to the original ARE visible there (single
  // shadow level, Mach's symmetric-copy caveats simplified; documented).
  h.machine->StoreWord(*h.task, 0, h.original + h.machine->page_size(), 777);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 1, h.copy + h.machine->page_size()), 777u);
}

TEST(CopyOnWrite, EveryProcessorSeesThePrivateCopy) {
  CowHarness h;
  // All three processors read the shared page first (read-only mappings everywhere).
  for (ProcId p = 0; p < 3; ++p) {
    EXPECT_EQ(h.machine->LoadWord(*h.task, p, h.copy), 100u);
  }
  // One processor breaks the page.
  h.machine->StoreWord(*h.task, 1, h.copy, 42);
  // The others must observe the private copy, not their stale backing mappings.
  EXPECT_EQ(h.machine->LoadWord(*h.task, 0, h.copy), 42u);
  EXPECT_EQ(h.machine->LoadWord(*h.task, 2, h.copy), 42u);
  CheckMachineInvariants(*h.machine);
}

TEST(CopyOnWrite, UntouchedBackingPageZeroFills) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr orig = t->MapAnonymous("orig", m.page_size());
  const Region* r = t->FindRegion(orig);
  VirtAddr copy = t->MapCopy("copy", r->object, 0, m.page_size());
  // Write the copy before anyone ever touched the original.
  m.StoreWord(*t, 0, copy + 4, 7);
  EXPECT_EQ(m.LoadWord(*t, 1, copy), 0u);
  EXPECT_EQ(m.LoadWord(*t, 1, copy + 4), 7u);
  EXPECT_EQ(m.LoadWord(*t, 1, orig + 4), 0u);  // original still zero
  CheckMachineInvariants(m);
}

TEST(CopyOnWrite, ShadowPagesParticipateInNumaPlacement) {
  CowHarness h;
  h.machine->StoreWord(*h.task, 1, h.copy, 1);  // break on proc 1
  const NumaPageInfo& info = h.machine->PageInfoFor(*h.task, h.copy);
  EXPECT_EQ(info.state, PageState::kLocalWritable);
  EXPECT_EQ(info.owner, 1);
  // Ping-pong the shadow page: it pins like any other page.
  for (int i = 0; i < 12; ++i) {
    h.machine->StoreWord(*h.task, i % 3, h.copy, static_cast<std::uint32_t>(i));
  }
  EXPECT_EQ(h.machine->PageInfoFor(*h.task, h.copy).state, PageState::kGlobalWritable);
  CheckMachineInvariants(*h.machine);
}

TEST(CopyOnWrite, UnmapReleasesShadowPages) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr orig = t->MapAnonymous("orig", m.page_size());
  m.StoreWord(*t, 0, orig, 1);
  const Region* r = t->FindRegion(orig);
  VirtAddr copy = t->MapCopy("copy", r->object, 0, m.page_size());
  m.StoreWord(*t, 0, copy, 2);  // create shadow page
  std::uint32_t free_before = m.page_pool().FreeCount();
  t->UnmapRegion(copy, m.page_pool());
  EXPECT_EQ(m.page_pool().FreeCount(), free_before + 1);  // shadow page returned
  EXPECT_EQ(m.LoadWord(*t, 1, orig), 1u);                 // backing untouched
  CheckMachineInvariants(m);
}

TEST(CopyOnWrite, ManyCopiesOfOneObject) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  VirtAddr orig = t->MapAnonymous("orig", m.page_size());
  m.StoreWord(*t, 0, orig, 10);
  // Keep the object, not the Region: MapCopy may reallocate the task's region list.
  VmObject* object = t->FindRegion(orig)->object;
  VirtAddr c1 = t->MapCopy("c1", object, 0, m.page_size());
  VirtAddr c2 = t->MapCopy("c2", object, 0, m.page_size());
  m.StoreWord(*t, 1, c1, 11);
  m.StoreWord(*t, 2, c2, 12);
  EXPECT_EQ(m.LoadWord(*t, 0, orig), 10u);
  EXPECT_EQ(m.LoadWord(*t, 0, c1), 11u);
  EXPECT_EQ(m.LoadWord(*t, 0, c2), 12u);
  CheckMachineInvariants(m);
}

TEST(CopyOnWrite, WorksUnderMemoryPressureWithPager) {
  Machine::Options mo = SmallMachine(2);
  mo.config.global_pages = 4;
  mo.enable_pager = true;
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr orig = t->MapAnonymous("orig", 2 * m.page_size());
  m.StoreWord(*t, 0, orig, 1);
  m.StoreWord(*t, 0, orig + m.page_size(), 2);
  const Region* r = t->FindRegion(orig);
  VirtAddr copy = t->MapCopy("copy", r->object, 0, 2 * m.page_size());
  m.StoreWord(*t, 1, copy, 11);
  m.StoreWord(*t, 1, copy + m.page_size(), 12);  // forces eviction of something
  EXPECT_EQ(m.LoadWord(*t, 0, orig), 1u);
  EXPECT_EQ(m.LoadWord(*t, 0, orig + m.page_size()), 2u);
  EXPECT_EQ(m.LoadWord(*t, 0, copy), 11u);
  EXPECT_EQ(m.LoadWord(*t, 0, copy + m.page_size()), 12u);
  CheckMachineInvariants(m);
}

}  // namespace
}  // namespace ace
