// Tests for the data-segregation library and the layout advisor.

#include <gtest/gtest.h>

#include "src/lang/layout_advisor.h"
#include "src/lang/segregated_heap.h"
#include "src/machine/machine.h"

namespace ace {
namespace {

Machine::Options SmallMachine(int procs = 4) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.config.global_pages = 128;
  mo.config.local_pages_per_proc = 64;
  return mo;
}

TEST(SegregatedHeap, NaiveModeInterleavesClassesOnOnePage) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  SegregatedHeap::Options options;
  options.mode = LayoutMode::kNaive;
  options.num_threads = 2;
  SegregatedHeap heap(&m, t, options);
  VirtAddr a = heap.Alloc("a", 16, DataClass::kPrivate, 0);
  VirtAddr b = heap.Alloc("b", 16, DataClass::kWritablyShared);
  VirtAddr c = heap.Alloc("c", 16, DataClass::kPrivate, 1);
  EXPECT_EQ(a / m.page_size(), b / m.page_size());
  EXPECT_EQ(b / m.page_size(), c / m.page_size());
}

TEST(SegregatedHeap, SegregatedModeSeparatesClasses) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  SegregatedHeap::Options options;
  options.mode = LayoutMode::kSegregated;
  options.num_threads = 2;
  SegregatedHeap heap(&m, t, options);
  VirtAddr p0 = heap.Alloc("p0", 16, DataClass::kPrivate, 0);
  VirtAddr p1 = heap.Alloc("p1", 16, DataClass::kPrivate, 1);
  VirtAddr rs = heap.Alloc("rs", 16, DataClass::kReadShared);
  VirtAddr ws = heap.Alloc("ws", 16, DataClass::kWritablyShared);
  // All four on different pages: different-class (and different-owner) objects never
  // share a page.
  std::set<VirtPage> pages = {p0 / m.page_size(), p1 / m.page_size(), rs / m.page_size(),
                              ws / m.page_size()};
  EXPECT_EQ(pages.size(), 4u);
}

TEST(SegregatedHeap, SameClassSameOwnerPacksTogether) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  SegregatedHeap::Options options;
  options.mode = LayoutMode::kSegregated;
  options.num_threads = 2;
  SegregatedHeap heap(&m, t, options);
  VirtAddr a = heap.Alloc("a", 16, DataClass::kPrivate, 1);
  VirtAddr b = heap.Alloc("b", 16, DataClass::kPrivate, 1);
  EXPECT_EQ(a / m.page_size(), b / m.page_size());  // packing within a class is fine
  EXPECT_EQ(b, a + 16);
}

TEST(SegregatedHeap, AllocationsAreWordAligned) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  SegregatedHeap::Options options;
  SegregatedHeap heap(&m, t, options);
  VirtAddr a = heap.Alloc("a", 3, DataClass::kReadShared);
  VirtAddr b = heap.Alloc("b", 5, DataClass::kReadShared);
  EXPECT_EQ(a % 4, 0u);
  EXPECT_EQ(b % 4, 0u);
  EXPECT_GE(b, a + 4);
}

TEST(SegregatedHeap, GrowsBeyondOneRegion) {
  Machine m(SmallMachine());
  Task* t = m.CreateTask("t");
  SegregatedHeap::Options options;
  SegregatedHeap heap(&m, t, options);
  // Allocate more than the initial 8-page segment.
  VirtAddr last = 0;
  for (int i = 0; i < 40; ++i) {
    last = heap.Alloc("chunk" + std::to_string(i), m.page_size(), DataClass::kReadShared);
  }
  // Usable: a store/load roundtrip works in the grown region.
  m.StoreWord(*t, 0, last, 7);
  EXPECT_EQ(m.LoadWord(*t, 1, last), 7u);
}

TEST(SegregatedHeap, RegistersObjectsWithTracer) {
  Machine m(SmallMachine());
  RefTracer tracer(&m);
  Task* t = m.CreateTask("t");
  SegregatedHeap::Options options;
  options.tracer = &tracer;
  SegregatedHeap heap(&m, t, options);
  VirtAddr a = heap.Alloc("thing", 32, DataClass::kReadShared);
  m.StoreWord(*t, 0, a, 1);
  ASSERT_EQ(tracer.objects().size(), 1u);
  EXPECT_EQ(tracer.objects()[0].name, "thing");
  EXPECT_EQ(tracer.objects()[0].counts.stores, 1u);
}

// --- advisor --------------------------------------------------------------------------

TEST(LayoutAdvisor, ClassifiesFromTrace) {
  Machine m(SmallMachine(3));
  RefTracer tracer(&m);
  Task* t = m.CreateTask("t");
  VirtAddr page = t->MapAnonymous("data", m.page_size());
  tracer.AddObject("mine", page, 8);
  tracer.AddObject("lut", page + 8, 8);
  tracer.AddObject("queue", page + 16, 8);
  // mine: thread 1 only. lut: read by all. queue: written by all.
  m.StoreWord(*t, 1, page, 1);
  (void)m.LoadWord(*t, 0, page + 8);
  (void)m.LoadWord(*t, 1, page + 8);
  (void)m.LoadWord(*t, 2, page + 8);
  m.StoreWord(*t, 0, page + 16, 1);
  m.StoreWord(*t, 2, page + 16, 2);

  LayoutPlan plan = AdviseLayout(tracer);
  ASSERT_EQ(plan.objects.size(), 3u);
  const ObjectAdvice* mine = plan.Find("mine");
  ASSERT_NE(mine, nullptr);
  EXPECT_EQ(mine->cls, DataClass::kPrivate);
  EXPECT_EQ(mine->owner_tid, 1);
  EXPECT_TRUE(mine->was_falsely_shared);
  EXPECT_EQ(plan.Find("lut")->cls, DataClass::kReadShared);
  EXPECT_EQ(plan.Find("queue")->cls, DataClass::kWritablyShared);
  EXPECT_FALSE(plan.Find("queue")->was_falsely_shared);
  EXPECT_EQ(plan.falsely_shared, 2);  // mine and lut
}

TEST(LayoutAdvisor, ReadMostlyHeuristic) {
  // Written once by one processor, then read heavily by everyone: read-shared
  // ("data that is writable, but that is never written").
  Machine m(SmallMachine(3));
  RefTracer tracer(&m);
  Task* t = m.CreateTask("t");
  VirtAddr page = t->MapAnonymous("data", m.page_size());
  tracer.AddObject("init-then-read", page, 64);
  m.StoreWord(*t, 0, page, 1);
  for (int i = 0; i < 100; ++i) {
    (void)m.LoadWord(*t, static_cast<ProcId>(i % 3), page + static_cast<VirtAddr>((i % 16) * 4));
  }
  LayoutPlan plan = AdviseLayout(tracer);
  EXPECT_EQ(plan.Find("init-then-read")->cls, DataClass::kReadShared);
}

TEST(LayoutAdvisor, HeavilyWrittenSharedStaysShared) {
  Machine m(SmallMachine(2));
  RefTracer tracer(&m);
  Task* t = m.CreateTask("t");
  VirtAddr page = t->MapAnonymous("data", m.page_size());
  tracer.AddObject("hot", page, 4);
  for (int i = 0; i < 50; ++i) {
    m.StoreWord(*t, i % 2, page, 1);
  }
  LayoutPlan plan = AdviseLayout(tracer);
  EXPECT_EQ(plan.Find("hot")->cls, DataClass::kWritablyShared);
}

TEST(LayoutAdvisor, UnreferencedDefaultsToPrivate) {
  Machine m(SmallMachine(2));
  RefTracer tracer(&m);
  tracer.AddObject("cold", 0x10000, 16);
  LayoutPlan plan = AdviseLayout(tracer);
  EXPECT_EQ(plan.Find("cold")->cls, DataClass::kPrivate);
  EXPECT_EQ(plan.Find("cold")->owner_tid, 0);
}

}  // namespace
}  // namespace ace
