// Cross-module integration tests: pager under threaded load, remote-homed pageout,
// reconsideration with the re-examination daemon, and multi-feature combinations.

#include <gtest/gtest.h>

#include "src/machine/machine.h"
#include "src/threads/runtime.h"
#include "src/threads/sim_span.h"
#include "src/threads/sync.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

TEST(Integration, PagingUnderThreadedLoad) {
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.config.global_pages = 8;
  mo.config.local_pages_per_proc = 8;
  mo.enable_pager = true;
  mo.pager.disk_read_ns = 500'000;
  mo.pager.disk_write_ns = 500'000;
  Machine m(mo);
  Task* t = m.CreateTask("t");
  // 24 pages of per-thread data on an 8-page machine.
  constexpr std::uint32_t kPagesPerThread = 6;
  VirtAddr data = t->MapAnonymous("data", 4ull * kPagesPerThread * 4096);

  Runtime rt(&m, t);
  rt.Run(4, [&](int tid, Env& env) {
    VirtAddr mine = data + static_cast<VirtAddr>(tid) * kPagesPerThread * 4096;
    for (int pass = 0; pass < 3; ++pass) {
      for (std::uint32_t p = 0; p < kPagesPerThread; ++p) {
        VirtAddr va = mine + static_cast<VirtAddr>(p) * 4096;
        std::uint32_t expected = static_cast<std::uint32_t>(tid * 100 + p);
        if (pass == 0) {
          env.Store(va, expected);
        } else {
          EXPECT_EQ(env.Load(va), expected) << "tid " << tid << " page " << p;
        }
      }
    }
  });
  EXPECT_GT(m.pager()->stats().pageouts, 0u);
  EXPECT_GT(m.pager()->stats().pageins, 0u);
  CheckMachineInvariants(m);
}

TEST(Integration, RemoteHomedPageSurvivesPageout) {
  Machine::Options mo;
  mo.config.num_processors = 3;
  mo.config.global_pages = 3;
  mo.config.local_pages_per_proc = 4;
  mo.policy = PolicySpec::RemoteHome(1);
  mo.enable_pager = true;
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr shared = t->MapAnonymous("shared", m.page_size());
  // Home the page remotely (ping-pong past threshold 1).
  for (int i = 0; i < 6; ++i) {
    m.StoreWord(*t, i % 2, shared, static_cast<std::uint32_t>(i + 50));
  }
  ASSERT_EQ(m.PageInfoFor(*t, shared).state, PageState::kRemoteHomed);
  // Force it out with fresh allocations.
  VirtAddr filler = t->MapAnonymous("filler", 3 * m.page_size());
  for (int p = 0; p < 3; ++p) {
    m.StoreWord(*t, 2, filler + static_cast<VirtAddr>(p) * m.page_size(), 1);
  }
  // Content must come back intact; placement starts over.
  EXPECT_EQ(m.LoadWord(*t, 1, shared), 55u);
  CheckMachineInvariants(m);
}

TEST(Integration, ReconsiderWithReexamineDaemon) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.policy = PolicySpec::Reconsider(2, /*after_ns=*/1'000'000);
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", m.page_size());
  for (int i = 0; i < 8; ++i) {
    m.StoreWord(*t, i % 2, va, 1);  // pin under the reconsider policy
  }
  ASSERT_EQ(m.PageInfoFor(*t, va).state, PageState::kGlobalWritable);
  // Let virtual time pass, run the daemon, touch the page from one processor only.
  m.Compute(0, 2'000'000);
  m.ReexamineGlobalPages(0);
  m.StoreWord(*t, 0, va, 9);
  EXPECT_EQ(m.PageInfoFor(*t, va).state, PageState::kLocalWritable);
  EXPECT_GT(m.reconsider_policy()->unpin_events(), 0u);
  CheckMachineInvariants(m);
}

TEST(Integration, SpanWorkloadAcrossAllFeatures) {
  // Pager + reconsider policy + threaded barrier workload, verified end to end.
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.config.global_pages = 24;
  mo.config.local_pages_per_proc = 16;
  mo.policy = PolicySpec::Reconsider(4, 5'000'000);
  mo.enable_pager = true;
  Machine m(mo);
  Task* t = m.CreateTask("t");
  VirtAddr data = t->MapAnonymous("data", 16 * 4096);
  VirtAddr bar = t->MapAnonymous("barrier", 4096);
  Barrier barrier(bar, 4);

  Runtime rt(&m, t);
  rt.Run(4, [&](int tid, Env& env) {
    std::uint32_t sense = 0;
    SimSpan<std::uint32_t> a(env, data, 16 * 1024);
    for (int phase = 0; phase < 3; ++phase) {
      for (int i = tid; i < 16 * 1024; i += 4 * 64) {
        a[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(phase * 1000 + i);
      }
      barrier.Wait(env, &sense);
      for (int i = (tid + 1) % 4; i < 16 * 1024; i += 4 * 64) {
        EXPECT_EQ(a.Get(static_cast<std::size_t>(i)),
                  static_cast<std::uint32_t>(phase * 1000 + i));
      }
      barrier.Wait(env, &sense);
    }
  });
  CheckMachineInvariants(m);
}

TEST(Integration, TwoTasksShareTheMachineFairly) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  Machine m(mo);
  Task* t1 = m.CreateTask("t1");
  Task* t2 = m.CreateTask("t2");
  VirtAddr a1 = t1->MapAnonymous("a", 2 * m.page_size());
  VirtAddr a2 = t2->MapAnonymous("a", 2 * m.page_size());
  for (int i = 0; i < 50; ++i) {
    m.StoreWord(*t1, 0, a1 + static_cast<VirtAddr>((i % 512) * 4), static_cast<std::uint32_t>(i));
    m.StoreWord(*t2, 1, a2 + static_cast<VirtAddr>((i % 512) * 4),
                static_cast<std::uint32_t>(i + 1000));
  }
  // Word 0 was written only at i == 0; word 49 at i == 49. Cross-processor reads see
  // each task's own data with no bleed-through.
  EXPECT_EQ(m.DebugRead(*t1, a1), 0u);
  EXPECT_EQ(m.DebugRead(*t2, a2), 1000u);
  EXPECT_EQ(m.LoadWord(*t1, 1, a1 + 49 * 4), 49u);
  EXPECT_EQ(m.LoadWord(*t2, 0, a2 + 49 * 4), 1049u);
  CheckMachineInvariants(m);
}

}  // namespace
}  // namespace ace
