// Unit tests for the Machine facade: the reference path, atomics, time accounting,
// debug access, policy plumbing and multi-task behaviour.

#include <gtest/gtest.h>

#include <optional>

#include "src/machine/machine.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

Machine::Options SmallMachine(int procs = 4) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.config.global_pages = 64;
  mo.config.local_pages_per_proc = 32;
  return mo;
}

TEST(Machine, UserTimeChargedPerReferenceClass) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  m.StoreWord(*t, 0, va, 1);  // establishes a local page on 0
  TimeNs before = m.clocks().user_ns(0);
  (void)m.LoadWord(*t, 0, va);
  EXPECT_EQ(m.clocks().user_ns(0) - before, 650);
  before = m.clocks().user_ns(0);
  m.StoreWord(*t, 0, va, 2);
  EXPECT_EQ(m.clocks().user_ns(0) - before, 840);
}

// Figure 1 / section 2.2: "The corresponding times for global memory are 1.5us and
// 1.4us." A page ping-ponged past the pin threshold lives in global memory, and the
// reference path charges every processor the global latencies for it.
TEST(Machine, GlobalReferencesChargePaperLatencies) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  for (int i = 0; i < 12; ++i) {
    m.StoreWord(*t, i % 2, va, static_cast<std::uint32_t>(i));
  }
  ASSERT_EQ(m.PageInfoFor(*t, va).state, PageState::kGlobalWritable);
  for (ProcId proc : {0, 3}) {
    TimeNs before = m.clocks().user_ns(proc);
    (void)m.LoadWord(*t, proc, va + 8);
    EXPECT_EQ(m.clocks().user_ns(proc) - before, 1500) << "fetch on " << proc;
    before = m.clocks().user_ns(proc);
    m.StoreWord(*t, proc, va + 8, 7);
    EXPECT_EQ(m.clocks().user_ns(proc) - before, 1400) << "store on " << proc;
  }
}

TEST(Machine, SystemTimeChargedOnFaults) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  EXPECT_EQ(m.clocks().TotalSystem(), 0);
  m.StoreWord(*t, 0, va, 1);
  EXPECT_GT(m.clocks().system_ns(0), 0);  // fault base + zero-fill
  EXPECT_EQ(m.stats().page_faults, 1u);
  // A mapped access adds no system time.
  TimeNs sys = m.clocks().system_ns(0);
  m.StoreWord(*t, 0, va, 2);
  EXPECT_EQ(m.clocks().system_ns(0), sys);
}

TEST(Machine, TestAndSetReturnsOldValueAndChargesBoth) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  m.StoreWord(*t, 0, va, 5);
  TimeNs before = m.clocks().user_ns(0);
  EXPECT_EQ(m.TestAndSet(*t, 0, va, 9), 5u);
  EXPECT_EQ(m.LoadWord(*t, 0, va), 9u);
  // fetch + store + the verification load
  EXPECT_EQ(m.clocks().user_ns(0) - before, 650 + 840 + 650);
}

TEST(Machine, FetchAddAndFetchOr) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  EXPECT_EQ(m.FetchAdd(*t, 0, va, 5), 0u);
  EXPECT_EQ(m.FetchAdd(*t, 0, va, 3), 5u);
  EXPECT_EQ(m.LoadWord(*t, 0, va), 8u);
  EXPECT_EQ(m.FetchOr(*t, 0, va + 4, 0x10), 0u);
  EXPECT_EQ(m.FetchOr(*t, 0, va + 4, 0x01), 0x10u);
  EXPECT_EQ(m.LoadWord(*t, 0, va + 4), 0x11u);
}

TEST(Machine, ComputeChargesUserTimeOnly) {
  Machine m(SmallMachine(2));
  m.Compute(1, 12345);
  EXPECT_EQ(m.clocks().user_ns(1), 12345);
  EXPECT_EQ(m.clocks().system_ns(1), 0);
}

TEST(Machine, RefStatsDistinguishClasses) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  m.StoreWord(*t, 0, va, 1);
  (void)m.LoadWord(*t, 0, va);
  EXPECT_EQ(m.stats().refs[0].store_local, 1u);
  EXPECT_EQ(m.stats().refs[0].fetch_local, 1u);
  // Pin the page, then check global accounting.
  for (int i = 0; i < 12; ++i) {
    m.StoreWord(*t, i % 2, va, 1);
  }
  std::uint64_t gf = m.stats().refs[1].fetch_global;
  (void)m.LoadWord(*t, 1, va);
  EXPECT_EQ(m.stats().refs[1].fetch_global, gf + 1);
}

TEST(Machine, DebugAccessHasNoSideEffects) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  m.StoreWord(*t, 0, va, 123);
  TimeNs user = m.clocks().TotalUser();
  TimeNs sys = m.clocks().TotalSystem();
  std::uint64_t refs = m.stats().TotalRefs().Total();
  EXPECT_EQ(m.DebugRead(*t, va), 123u);
  m.DebugWrite(*t, va + 4, 456);
  EXPECT_EQ(m.DebugRead(*t, va + 4), 456u);
  EXPECT_EQ(m.clocks().TotalUser(), user);
  EXPECT_EQ(m.clocks().TotalSystem(), sys);
  EXPECT_EQ(m.stats().TotalRefs().Total(), refs);
}

TEST(Machine, DebugReadOfUntouchedPageIsZero) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  EXPECT_EQ(m.DebugRead(*t, va), 0u);
  EXPECT_EQ(m.stats().page_faults, 0u);
}

TEST(Machine, PolicyAccessors) {
  Machine m(SmallMachine(2));
  EXPECT_NE(m.move_limit_policy(), nullptr);
  EXPECT_EQ(m.reconsider_policy(), nullptr);
  EXPECT_STREQ(m.policy().name(), "move-limit");

  Machine::Options mo = SmallMachine(2);
  mo.policy = PolicySpec::Reconsider(4, 1000);
  Machine m2(mo);
  EXPECT_EQ(m2.move_limit_policy(), nullptr);
  EXPECT_NE(m2.reconsider_policy(), nullptr);
}

TEST(PolicySpec, NameRoundTripsThroughFromName) {
  for (const PolicySpec& spec :
       {PolicySpec::MoveLimit(3), PolicySpec::AllGlobal(), PolicySpec::AllLocal(),
        PolicySpec::Reconsider(3, 50'000'000), PolicySpec::RemoteHome(3)}) {
    std::optional<PolicySpec> parsed = PolicySpec::FromName(spec.Name(), 3);
    ASSERT_TRUE(parsed.has_value()) << spec.Name();
    EXPECT_EQ(parsed->kind, spec.kind) << spec.Name();
    EXPECT_STREQ(parsed->Name(), spec.Name());
    if (spec.kind != PolicySpec::Kind::kAllGlobal && spec.kind != PolicySpec::Kind::kAllLocal) {
      EXPECT_EQ(parsed->move_threshold, 3) << spec.Name();
    }
    if (spec.kind == PolicySpec::Kind::kReconsider) {
      EXPECT_EQ(parsed->reconsider_after_ns, 50'000'000);
    }
  }
  EXPECT_FALSE(PolicySpec::FromName("movelimit", 4).has_value());
  EXPECT_FALSE(PolicySpec::FromName("", 4).has_value());
}

TEST(Machine, CustomPolicyIsUsed) {
  ScriptedPolicy policy;
  policy.next = Placement::kGlobal;
  Machine::Options mo = SmallMachine(2);
  mo.custom_policy = &policy;
  Machine m(mo);
  EXPECT_EQ(m.move_limit_policy(), nullptr);
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  m.StoreWord(*t, 0, va, 1);
  EXPECT_EQ(m.PageInfoFor(*t, va).state, PageState::kGlobalWritable);
}

TEST(Machine, TasksAreIsolatedAddressSpaces) {
  Machine m(SmallMachine(2));
  Task* t1 = m.CreateTask("t1");
  Task* t2 = m.CreateTask("t2");
  VirtAddr a1 = t1->MapAnonymous("p", 4096);
  VirtAddr a2 = t2->MapAnonymous("p", 4096);
  EXPECT_NE(a1, a2);  // distinct va bases
  m.StoreWord(*t1, 0, a1, 111);
  m.StoreWord(*t2, 0, a2, 222);
  EXPECT_EQ(m.LoadWord(*t1, 1, a1), 111u);
  EXPECT_EQ(m.LoadWord(*t2, 1, a2), 222u);
  m.DestroyTask(t1);
  EXPECT_EQ(m.LoadWord(*t2, 0, a2), 222u);  // t2 unaffected
}

TEST(Machine, ReexamineGlobalPagesForcesRefaults) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  for (int i = 0; i < 12; ++i) {
    m.StoreWord(*t, i % 2, va, 1);  // pin
  }
  ASSERT_EQ(m.PageInfoFor(*t, va).state, PageState::kGlobalWritable);
  std::uint64_t faults = m.stats().page_faults;
  EXPECT_EQ(m.ReexamineGlobalPages(0), 1u);
  (void)m.LoadWord(*t, 0, va);
  EXPECT_GT(m.stats().page_faults, faults);
  CheckMachineInvariants(m);
}

TEST(Machine, InvariantsHoldAfterMixedWorkload) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  VirtAddr region = t->MapAnonymous("data", 16 * 4096);
  for (int i = 0; i < 500; ++i) {
    ProcId p = static_cast<ProcId>(i % 4);
    VirtAddr va = region + static_cast<VirtAddr>((i * 37) % (16 * 1024)) * 4;
    if (i % 3 == 0) {
      m.StoreWord(*t, p, va, static_cast<std::uint32_t>(i));
    } else {
      (void)m.LoadWord(*t, p, va);
    }
  }
  CheckMachineInvariants(m);
}

TEST(MachineDeath, MisalignedAccessAborts) {
  // ACE_DCHECK is compiled out in release; only check in debug builds.
#ifndef NDEBUG
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  EXPECT_DEATH(m.LoadWord(*t, 0, va + 2), "ACE_CHECK");
#else
  GTEST_SKIP() << "alignment checks are debug-only";
#endif
}

}  // namespace
}  // namespace ace
