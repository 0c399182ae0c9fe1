// Tests for the fault-injection subsystem (src/inject) and the graceful-degradation
// semantics it exercises: plan grammar round trips, schedule semantics, injector
// determinism, the per-PageState exhaustion fallbacks (with and without the pageout
// daemon), and zero-cost-when-unarmed.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/inject/fault_plan.h"
#include "src/machine/chaos.h"
#include "src/machine/machine.h"
#include "src/machine/recovery.h"
#include "src/numa/replica_manager.h"
#include "tests/machine_invariants.h"

namespace ace {
namespace {

FaultPlan Plan(const std::string& text) {
  FaultPlan plan;
  std::string error;
  EXPECT_TRUE(FaultPlan::Parse(text, &plan, &error)) << text << ": " << error;
  return plan;
}

// --- plan grammar ---------------------------------------------------------------------

TEST(FaultPlan, FormatParseRoundTrip) {
  const char* kCanonical =
      "local-exhausted@every:3;copy-fail@nth:5;pool-exhausted@p:0.02:7;"
      "frame-alloc@window:100:2000;skip-sync@always";
  FaultPlan plan = Plan(kCanonical);
  ASSERT_EQ(plan.schedules.size(), 5u);
  EXPECT_EQ(plan.Format(), kCanonical);

  FaultPlan reparsed = Plan(plan.Format());
  ASSERT_EQ(reparsed.schedules.size(), plan.schedules.size());
  for (std::size_t i = 0; i < plan.schedules.size(); ++i) {
    EXPECT_EQ(reparsed.schedules[i].Format(), plan.schedules[i].Format()) << i;
  }
}

TEST(FaultPlan, ParsedFieldsAreExact) {
  FaultPlan plan = Plan("victim-contention@every:4");
  ASSERT_EQ(plan.schedules.size(), 1u);
  EXPECT_EQ(plan.schedules[0].site, FaultSite::kPageoutVictimContention);
  EXPECT_EQ(plan.schedules[0].kind, FaultSchedule::Kind::kEveryK);
  EXPECT_EQ(plan.schedules[0].n, 4u);

  plan = Plan("pool-exhausted@p:0.25:99");
  EXPECT_EQ(plan.schedules[0].site, FaultSite::kGlobalPoolExhausted);
  EXPECT_DOUBLE_EQ(plan.schedules[0].probability, 0.25);
  EXPECT_EQ(plan.schedules[0].seed, 99u);

  plan = Plan("frame-alloc@window:10:20");
  EXPECT_EQ(plan.schedules[0].t_begin, 10);
  EXPECT_EQ(plan.schedules[0].t_end, 20);
}

// One case per malformed-grammar class. Every rejection must name the offending
// schedule substring and its byte offset so a bad entry in a long plan is findable
// without bisecting.
TEST(FaultPlan, RejectsMalformedInput) {
  struct Case {
    const char* text;      // the whole plan handed to Parse
    const char* schedule;  // the schedule substring the error must quote
    std::size_t offset;    // its byte offset in `text`
  };
  const Case kCases[] = {
      {"copy-fail", "copy-fail", 0},                       // missing '@trigger'
      {"no-such-site@always", "no-such-site@always", 0},   // unknown site
      {"copy-fail@sometimes", "copy-fail@sometimes", 0},   // unknown trigger kind
      {"copy-fail@nth:", "copy-fail@nth:", 0},             // nth without a count
      {"copy-fail@nth:0", "copy-fail@nth:0", 0},           // nth of zero
      {"copy-fail@every:x", "copy-fail@every:x", 0},       // non-numeric period
      {"copy-fail@p:1.5", "copy-fail@p:1.5", 0},           // probability > 1
      {"copy-fail@p:-0.1", "copy-fail@p:-0.1", 0},         // probability < 0
      {"copy-fail@p:zzz", "copy-fail@p:zzz", 0},           // non-numeric probability
      {"copy-fail@p:0.5:abc", "copy-fail@p:0.5:abc", 0},   // malformed seed
      {"copy-fail@window:9", "copy-fail@window:9", 0},     // window missing T1
      {"copy-fail@window:5:5", "copy-fail@window:5:5", 0}, // empty window (T1 <= T0)
      {"copy-fail@window:a:b", "copy-fail@window:a:b", 0}, // non-numeric window bounds
      // The bad schedule buried mid-plan: the offset must point at it, not at 0.
      {"frame-alloc@nth:2;copy-fail@bogus;skip-sync@always", "copy-fail@bogus", 18},
  };
  for (const Case& c : kCases) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(c.text, &plan, &error)) << c.text;
    EXPECT_NE(error.find(std::string("'") + c.schedule + "'"), std::string::npos)
        << c.text << ": error does not quote the schedule: " << error;
    EXPECT_NE(error.find("at offset " + std::to_string(c.offset)), std::string::npos)
        << c.text << ": error does not carry the offset: " << error;
  }
}

// Every *well-formed* trigger class round-trips Format -> Parse -> Format exactly,
// so replay command lines built from Format() always re-parse.
TEST(FaultPlan, EveryTriggerClassRoundTrips) {
  const char* kPlans[] = {
      "copy-fail@nth:1",
      "local-exhausted@every:7",
      "pool-exhausted@p:0.125",
      "victim-contention@p:0.25:1234",
      "frame-alloc@window:100:2000",
      "skip-move-count@always",
  };
  for (const char* text : kPlans) {
    FaultPlan plan = Plan(text);
    ASSERT_EQ(plan.schedules.size(), 1u) << text;
    EXPECT_EQ(plan.Format(), text);
    EXPECT_EQ(Plan(plan.Format()).Format(), text);
  }
}

TEST(FaultPlan, ToleratesStraySeparators) {
  FaultPlan plan = Plan("copy-fail@always;;frame-alloc@nth:2;");
  EXPECT_EQ(plan.schedules.size(), 2u);
  EXPECT_TRUE(Plan(";").empty());
}

TEST(FaultPlan, EmptyPlanFormatsEmpty) {
  FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.Format(), "");
}

// --- schedule semantics ---------------------------------------------------------------

TEST(FaultInjector, NthFiresExactlyOnce) {
  FaultInjector inj(Plan("copy-fail@nth:3"));
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (inj.ShouldInject(FaultSite::kReplicationCopyFail)) {
      ++fired;
      EXPECT_EQ(inj.occurrences(FaultSite::kReplicationCopyFail), 3u);
    }
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(inj.fires(FaultSite::kReplicationCopyFail), 1u);
  EXPECT_EQ(inj.occurrences(FaultSite::kReplicationCopyFail), 10u);
}

TEST(FaultInjector, EveryKFiresPeriodically) {
  FaultInjector inj(Plan("frame-alloc@every:4"));
  std::string pattern;
  for (int i = 0; i < 12; ++i) {
    pattern += inj.ShouldInject(FaultSite::kFrameAllocTransient) ? 'X' : '.';
  }
  EXPECT_EQ(pattern, "...X...X...X");
}

TEST(FaultInjector, SitesCountIndependently) {
  FaultInjector inj(Plan("copy-fail@nth:1;frame-alloc@nth:2"));
  EXPECT_TRUE(inj.ShouldInject(FaultSite::kReplicationCopyFail));
  EXPECT_FALSE(inj.ShouldInject(FaultSite::kFrameAllocTransient));  // occurrence 1
  EXPECT_TRUE(inj.ShouldInject(FaultSite::kFrameAllocTransient));   // occurrence 2
  EXPECT_EQ(inj.total_fires(), 2u);
}

TEST(FaultInjector, AlwaysFiresEveryOccurrence) {
  FaultInjector inj(Plan("local-exhausted@always"));
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(inj.ShouldInject(FaultSite::kLocalExhausted));
  }
  // Other sites are untouched.
  EXPECT_FALSE(inj.ShouldInject(FaultSite::kReplicationCopyFail));
}

TEST(FaultInjector, ProbabilityIsDeterministicPerSeed) {
  auto pattern = [](std::uint64_t seed) {
    FaultInjector inj(Plan("copy-fail@p:0.5:17"), seed);
    std::string out;
    for (int i = 0; i < 256; ++i) {
      out += inj.ShouldInject(FaultSite::kReplicationCopyFail) ? 'X' : '.';
    }
    return out;
  };
  EXPECT_EQ(pattern(1), pattern(1));  // same seed: bit-identical replay
  EXPECT_NE(pattern(1), pattern(2));  // different seed: different stream
  std::size_t fires = 0;
  for (char c : pattern(1)) {
    fires += c == 'X';
  }
  EXPECT_GT(fires, 64u);  // ~128 expected; loose bounds, deterministic anyway
  EXPECT_LT(fires, 192u);
}

TEST(FaultInjector, WindowUsesVirtualTime) {
  ProcClocks clocks(2);
  FaultInjector inj(Plan("frame-alloc@window:100:200"));
  inj.set_clocks(&clocks);
  EXPECT_FALSE(inj.ShouldInject(FaultSite::kFrameAllocTransient, 0));  // t=0
  clocks.ChargeUser(0, 150);
  EXPECT_TRUE(inj.ShouldInject(FaultSite::kFrameAllocTransient, 0));   // t=150
  EXPECT_FALSE(inj.ShouldInject(FaultSite::kFrameAllocTransient, 1));  // proc 1 at t=0
  clocks.ChargeUser(0, 100);
  EXPECT_FALSE(inj.ShouldInject(FaultSite::kFrameAllocTransient, 0));  // t=250, past end
}

// --- per-PageState exhaustion fallbacks -----------------------------------------------
//
// For every protocol state whose LOCAL action needs a fresh local frame, force the
// frame allocation to fail mid-operation (after cleanup has begun) and check the
// request degrades to the GLOBAL path: no abort, correct content, the page ends
// global-writable, and the degradation counters record it. Runs with the pager both
// off and on (the fallback must not depend on a pageout daemon existing).

class DegradeTest : public ::testing::TestWithParam<bool> {  // param: pager on?
 protected:
  ScriptedPolicy policy_;
  std::unique_ptr<Machine> machine_;
  Task* task_ = nullptr;
  VirtAddr va_ = 0;

  void SetUp() override {
    Machine::Options mo;
    mo.config.num_processors = 3;
    mo.config.global_pages = 16;
    mo.config.local_pages_per_proc = 8;
    mo.custom_policy = &policy_;
    mo.enable_pager = GetParam();
    machine_ = std::make_unique<Machine>(mo);
    task_ = machine_->CreateTask("degrade");
    va_ = task_->MapAnonymous("page", machine_->page_size());
  }

  // Drive the page to a state, then re-fault with `inj` armed and a LOCAL decision.
  void DegradedAccessFrom(FaultInjector* inj, AccessKind kind) {
    LogicalPage lp = machine_->DebugLogicalPage(*task_, va_);
    machine_->pmap().RemoveAll(lp);
    machine_->physical_memory().set_fault_injector(inj);
    machine_->numa_manager().set_fault_injector(inj);
    policy_.next = Placement::kLocal;
    if (kind == AccessKind::kFetch) {
      EXPECT_EQ(machine_->LoadWord(*task_, 0, va_), 0xbeefu);
    } else {
      machine_->StoreWord(*task_, 0, va_, 0xbeefu);
    }
    machine_->physical_memory().set_fault_injector(nullptr);
    machine_->numa_manager().set_fault_injector(nullptr);
  }

  void CheckDegraded() {
    EXPECT_EQ(machine_->PageInfoFor(*task_, va_).state, PageState::kGlobalWritable);
    EXPECT_EQ(machine_->DebugRead(*task_, va_), 0xbeefu);
    EXPECT_GE(machine_->stats().degraded_global_fallbacks, 1u);
    CheckMachineInvariants(*machine_);
  }
};

TEST_P(DegradeTest, ReadOnlyReplicaRequest) {
  policy_.next = Placement::kLocal;
  machine_->StoreWord(*task_, 1, va_, 0xbeef);
  (void)machine_->LoadWord(*task_, 1, va_);  // still LW on 1; RO via global store first
  policy_.next = Placement::kGlobal;
  (void)machine_->LoadWord(*task_, 1, va_);  // GW
  policy_.next = Placement::kLocal;
  (void)machine_->LoadWord(*task_, 1, va_);  // RO with a replica on node 1

  FaultInjector inj(Plan("frame-alloc@always"));
  DegradedAccessFrom(&inj, AccessKind::kFetch);
  CheckDegraded();
}

TEST_P(DegradeTest, GlobalWritablePage) {
  policy_.next = Placement::kGlobal;
  machine_->StoreWord(*task_, 1, va_, 0xbeef);  // GW

  FaultInjector inj(Plan("frame-alloc@always"));
  DegradedAccessFrom(&inj, AccessKind::kFetch);
  CheckDegraded();
}

TEST_P(DegradeTest, LocalWritableOnAnotherNode) {
  policy_.next = Placement::kLocal;
  machine_->StoreWord(*task_, 1, va_, 0xbeef);  // LW on node 1

  FaultInjector inj(Plan("frame-alloc@always"));
  DegradedAccessFrom(&inj, AccessKind::kStore);
  CheckDegraded();
  // The owner's content survived the sync&flush that preceded the failed copy.
  EXPECT_EQ(machine_->DebugRead(*task_, va_), 0xbeefu);
}

TEST_P(DegradeTest, RemoteHomedPage) {
  policy_.next = Placement::kRemoteHome;
  machine_->StoreWord(*task_, 1, va_, 0xbeef);  // homed at node 1
  ASSERT_EQ(machine_->PageInfoFor(*task_, va_).state, PageState::kRemoteHomed);

  FaultInjector inj(Plan("frame-alloc@always"));
  DegradedAccessFrom(&inj, AccessKind::kFetch);
  CheckDegraded();
}

TEST_P(DegradeTest, ReplicationCopyFailure) {
  policy_.next = Placement::kGlobal;
  machine_->StoreWord(*task_, 1, va_, 0xbeef);  // GW

  FaultInjector inj(Plan("copy-fail@always"));
  DegradedAccessFrom(&inj, AccessKind::kFetch);
  EXPECT_EQ(machine_->DebugRead(*task_, va_), 0xbeefu);
  EXPECT_GE(machine_->stats().degraded_copy_failures, 1u);
  EXPECT_GE(machine_->stats().degraded_global_fallbacks, 1u);
  // The frame allocated for the failed copy was returned, not leaked.
  EXPECT_EQ(machine_->physical_memory().FreeLocalFrames(0), 8u);
  CheckMachineInvariants(*machine_);
}

TEST_P(DegradeTest, PrecheckExhaustionUsesTheOldGracefulPath) {
  // kLocalExhausted fires at the placement *precheck*, before any cleanup: that is
  // the paper's original local-memory-full fallback, counted as local_alloc_failures
  // and NOT as a mid-operation degradation.
  FaultInjector inj(Plan("local-exhausted@always"));
  machine_->numa_manager().set_fault_injector(&inj);
  policy_.next = Placement::kLocal;
  machine_->StoreWord(*task_, 0, va_, 0xbeef);
  machine_->numa_manager().set_fault_injector(nullptr);

  EXPECT_EQ(machine_->PageInfoFor(*task_, va_).state, PageState::kGlobalWritable);
  EXPECT_EQ(machine_->DebugRead(*task_, va_), 0xbeefu);
  EXPECT_GE(machine_->stats().local_alloc_failures, 1u);
  EXPECT_EQ(machine_->stats().degraded_global_fallbacks, 0u);
  CheckMachineInvariants(*machine_);
}

INSTANTIATE_TEST_SUITE_P(PageoutOffAndOn, DegradeTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "PagerOn" : "PagerOff";
                         });

// --- pool exhaustion and victim contention under the pager ----------------------------

TEST(PagerDegradeTest, InjectedPoolExhaustionIsAbsorbedByRetry) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 8;
  mo.enable_pager = true;
  mo.fault_plan = Plan("pool-exhausted@every:3");
  Machine machine(mo);
  Task* task = machine.CreateTask("pool");
  VirtAddr va = task->MapAnonymous("data", 32 * machine.page_size());

  // Touch 32 pages through an 8-page pool: every allocation beyond the pool drives a
  // pageout, and every 3rd allocation is additionally injected to fail first.
  for (std::uint32_t p = 0; p < 32; ++p) {
    machine.StoreWord(*task, 0, va + static_cast<VirtAddr>(p) * machine.page_size(), p + 7);
  }
  for (std::uint32_t p = 0; p < 32; ++p) {
    EXPECT_EQ(machine.LoadWord(*task, 1, va + static_cast<VirtAddr>(p) * machine.page_size()),
              p + 7);
  }
  ASSERT_NE(machine.fault_injector(), nullptr);
  EXPECT_GT(machine.fault_injector()->fires(FaultSite::kGlobalPoolExhausted), 0u);
  EXPECT_GT(machine.pager()->stats().pageouts, 0u);
  machine.numa_manager().VerifyAllInvariants();
}

// An injected pool miss before any page is resident leaves the pager nothing to
// evict, but the pool still has free pages: the retried allocation must succeed.
TEST(PagerDegradeTest, TransientPoolMissOnAFreshMachineIsRetried) {
  for (bool store : {true, false}) {
    Machine::Options mo;
    mo.config.num_processors = 2;
    mo.config.global_pages = 8;
    mo.enable_pager = true;
    mo.fault_plan = Plan("pool-exhausted@nth:1");
    Machine machine(mo);
    Task* task = machine.CreateTask("fresh");
    VirtAddr va = task->MapAnonymous("data", machine.page_size());

    if (store) {
      machine.StoreWord(*task, 0, va, 42);
      EXPECT_EQ(machine.LoadWord(*task, 1, va), 42u);
    } else {
      EXPECT_EQ(machine.LoadWord(*task, 0, va), 0u);  // a zero-filled first touch
    }
    EXPECT_EQ(machine.fault_injector()->fires(FaultSite::kGlobalPoolExhausted), 1u);
    EXPECT_EQ(machine.pager()->stats().pageouts, 0u);
    EXPECT_EQ(machine.stats().degraded_oom_faults, 0u);
    machine.numa_manager().VerifyAllInvariants();
  }
}

TEST(PagerDegradeTest, VictimContentionSparesPagesButEvictionProceeds) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 8;
  mo.enable_pager = true;
  mo.fault_plan = Plan("victim-contention@every:2");
  Machine machine(mo);
  Task* task = machine.CreateTask("victim");
  VirtAddr va = task->MapAnonymous("data", 24 * machine.page_size());

  for (std::uint32_t p = 0; p < 24; ++p) {
    machine.StoreWord(*task, 0, va + static_cast<VirtAddr>(p) * machine.page_size(), p + 3);
  }
  for (std::uint32_t p = 0; p < 24; ++p) {
    EXPECT_EQ(machine.LoadWord(*task, 0, va + static_cast<VirtAddr>(p) * machine.page_size()),
              p + 3);
  }
  EXPECT_GT(machine.fault_injector()->fires(FaultSite::kPageoutVictimContention), 0u);
  EXPECT_GT(machine.pager()->stats().second_chances, 0u);  // spared victims were requeued
  EXPECT_GT(machine.pager()->stats().pageouts, 0u);        // but eviction still made progress
  machine.numa_manager().VerifyAllInvariants();
}

// --- chaos grammar --------------------------------------------------------------------

TEST(ChaosPlan, FormatParseRoundTrip) {
  const char* kCanonical =
      "drain-mem@2:30000000:60000000:0;stall-proc@1:36000000:56000000;"
      "slow-link@0:1000:2000:3000";
  FaultPlan plan = Plan(kCanonical);
  ASSERT_EQ(plan.chaos.size(), 3u);
  EXPECT_TRUE(plan.schedules.empty());
  EXPECT_EQ(plan.Format(), kCanonical);
  EXPECT_EQ(Plan(plan.Format()).Format(), kCanonical);

  EXPECT_EQ(plan.chaos[0].kind, ChaosKind::kDrainMem);
  EXPECT_EQ(plan.chaos[0].node, 2u);
  EXPECT_EQ(plan.chaos[0].t_begin, 30'000'000);
  EXPECT_EQ(plan.chaos[0].t_end, 60'000'000);
  EXPECT_EQ(plan.chaos[0].permille, 0u);
  EXPECT_EQ(plan.chaos[1].kind, ChaosKind::kStallProc);
  EXPECT_EQ(plan.chaos[2].kind, ChaosKind::kSlowLink);
  EXPECT_EQ(plan.chaos[2].permille, 3000u);
}

TEST(ChaosPlan, DrainPermilleIsOptionalAndCanonicalizes) {
  // Omitted permille = hot-remove; Format always writes it back explicitly.
  FaultPlan plan = Plan("drain-mem@1:10:20");
  ASSERT_EQ(plan.chaos.size(), 1u);
  EXPECT_EQ(plan.chaos[0].permille, 0u);
  EXPECT_EQ(plan.Format(), "drain-mem@1:10:20:0");
  EXPECT_EQ(Plan("drain-mem@1:10:20:250").Format(), "drain-mem@1:10:20:250");
}

TEST(ChaosPlan, UnderscoreNamesAreAliases) {
  const char* kAliased = "drain_mem@1:10:20:500;stall_proc@0:5:9;slow_link@2:1:2:1500";
  const char* kCanonical = "drain-mem@1:10:20:500;stall-proc@0:5:9;slow-link@2:1:2:1500";
  EXPECT_EQ(Plan(kAliased).Format(), kCanonical);
}

TEST(ChaosPlan, SchedulesAndChaosMixInOnePlan) {
  FaultPlan plan = Plan("frame-alloc@nth:2;drain-mem@0:10:20:0;copy-fail@always");
  EXPECT_EQ(plan.schedules.size(), 2u);
  EXPECT_EQ(plan.chaos.size(), 1u);
  // Format groups schedules first, then chaos; the grouped form still round-trips.
  EXPECT_EQ(plan.Format(), "frame-alloc@nth:2;copy-fail@always;drain-mem@0:10:20:0");
  EXPECT_EQ(Plan(plan.Format()).Format(), plan.Format());
}

TEST(ChaosPlan, RejectsMalformedEvents) {
  const char* kBad[] = {
      "drain-mem@16:10:20",       // node >= kMaxProcessors
      "drain-mem@x:10:20",        // non-numeric node
      "drain-mem@1:20:20",        // empty window (T1 <= T0)
      "drain-mem@1:20:10",        // inverted window
      "drain-mem@1:10:20:1001",   // residual permille > 1000
      "stall-proc@1:10",          // missing T1
      "slow-link@1:10:20",        // slow-link without its multiplier
      "slow-link@1:10:20:999",    // multiplier < 1000 (a speedup, not a degradation)
      "kill-node@1",              // missing the death timestamp
      "kill-node@1:10:20",        // a kill has no recovery window: NODE:T0 only
      "kill-node@16:10",          // node >= kMaxProcessors
      "corrupt-page@1:10",        // missing T1
      "corrupt-page@1:20:10",     // inverted window
      "corrupt-page@1:10:20:0",   // permille 0 corrupts nothing: not a valid event
      "corrupt-page@1:10:20:1001",  // permille > 1000
  };
  for (const char* text : kBad) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(text, &plan, &error)) << text;
    EXPECT_NE(error.find(std::string("'") + text + "'"), std::string::npos)
        << text << ": error does not quote the event: " << error;
  }
}

// Satellite contract: a plan naming an unknown site must list every valid site and
// chaos name, so a typo is fixable straight from the error text. Table-driven over
// representative misspellings of both vocabularies.
TEST(ChaosPlan, UnknownNameErrorListsEveryValidName) {
  const char* kTypos[] = {
      "no-such-site@always",
      "drain-men@1:10:20",
      "stallproc@1:10:20",
      "slow-links@1:10:20:2000",
      "local-exhau@every:3",
  };
  const char* kAllNames[] = {
      "local-exhausted", "pool-exhausted", "victim-contention", "frame-alloc",
      "copy-fail",       "skip-sync",      "skip-move-count",   "drain-mem",
      "stall-proc",      "slow-link",      "kill-node",         "corrupt-page",
  };
  for (const char* text : kTypos) {
    FaultPlan plan;
    std::string error;
    EXPECT_FALSE(FaultPlan::Parse(text, &plan, &error)) << text;
    for (const char* name : kAllNames) {
      EXPECT_NE(error.find(name), std::string::npos)
          << text << ": error must list valid name '" << name << "': " << error;
    }
  }
  // The helper the tools print on bad --plan input carries the same list.
  std::string names = ValidPlanNames();
  for (const char* name : kAllNames) {
    EXPECT_NE(names.find(name), std::string::npos) << name;
  }
}

TEST(ChaosPlan, PermanentEventsRoundTripAndCanonicalize) {
  FaultPlan plan = Plan("kill-node@2:30000000;corrupt-page@1:10:20:250");
  ASSERT_EQ(plan.chaos.size(), 2u);
  EXPECT_EQ(plan.chaos[0].kind, ChaosKind::kKillNode);
  EXPECT_EQ(plan.chaos[0].node, 2u);
  EXPECT_EQ(plan.chaos[0].t_begin, 30'000'000);
  EXPECT_EQ(plan.chaos[0].t_end, 30'000'000);  // one-shot: the window collapses to T0
  EXPECT_EQ(plan.chaos[1].kind, ChaosKind::kCorruptPage);
  EXPECT_EQ(plan.chaos[1].permille, 250u);
  EXPECT_EQ(plan.Format(), "kill-node@2:30000000;corrupt-page@1:10:20:250");
  EXPECT_EQ(Plan(plan.Format()).Format(), plan.Format());

  // Omitted corruption density defaults to 100 (10% of resident frames) and Format
  // always writes it back explicitly.
  EXPECT_EQ(Plan("corrupt-page@1:10:20").Format(), "corrupt-page@1:10:20:100");

  // Only the permanent kinds arm the durability subsystem.
  EXPECT_TRUE(plan.has_durable_chaos());
  EXPECT_TRUE(Plan("corrupt-page@0:10:20").has_durable_chaos());
  EXPECT_FALSE(Plan("drain-mem@1:10:20;slow-link@0:1:2:2000").has_durable_chaos());
  EXPECT_FALSE(Plan("frame-alloc@nth:2").has_durable_chaos());
}

// --- chaos controller arming ----------------------------------------------------------

TEST(ChaosController, ArmedOnlyWhenThePlanCarriesChaosEvents) {
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.fault_plan = Plan("drain-mem@1:10000:20000:0");
  Machine with_chaos(mo);
  ASSERT_NE(with_chaos.chaos(), nullptr);
  EXPECT_EQ(with_chaos.chaos()->num_events(), 1u);
  // A chaos-only plan arms no site injector; a schedules-only plan arms no chaos.
  EXPECT_EQ(with_chaos.fault_injector(), nullptr);

  mo.fault_plan = Plan("frame-alloc@nth:2");
  Machine schedules_only(mo);
  EXPECT_EQ(schedules_only.chaos(), nullptr);
  ASSERT_NE(schedules_only.fault_injector(), nullptr);

  mo.fault_plan = Plan("slow-link@0:10:20:2000");
  Machine slow(mo);
  ASSERT_NE(slow.chaos(), nullptr);
  EXPECT_EQ(slow.chaos()->num_events(), 1u);
}

TEST(ChaosController, DurabilityArmedOnlyWhenThePlanCarriesPermanentChaos) {
  // Transient chaos arms the controller but must NOT build the durability pair:
  // disarmed machines keep the exact pre-durability code paths and counters.
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.fault_plan = Plan("drain-mem@1:10000:20000:0");
  Machine transient(mo);
  ASSERT_NE(transient.chaos(), nullptr);
  EXPECT_EQ(transient.replica_manager(), nullptr);
  EXPECT_EQ(transient.recovery(), nullptr);

  mo.fault_plan = Plan("kill-node@1:900000000000");
  Machine durable(mo);
  ASSERT_NE(durable.replica_manager(), nullptr);
  ASSERT_NE(durable.recovery(), nullptr);
  EXPECT_FALSE(durable.recovery()->has_dead_nodes());
  EXPECT_EQ(durable.recovery()->live_processors(), 4);
  EXPECT_EQ(durable.replica_manager()->open_journals(), 0u);

  mo.fault_plan = Plan("corrupt-page@0:10000:20000");
  Machine scrub(mo);
  EXPECT_NE(scrub.replica_manager(), nullptr);
  EXPECT_NE(scrub.recovery(), nullptr);
}

TEST(ChaosController, EventsOnNonexistentNodesAreDropped) {
  // A plan written for a larger machine replays harmlessly on a smaller one.
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.fault_plan = Plan("drain-mem@7:10:20:0;stall-proc@1:10:20");
  Machine machine(mo);
  ASSERT_NE(machine.chaos(), nullptr);
  EXPECT_EQ(machine.chaos()->num_events(), 1u);
}

TEST(ChaosController, SlowLinkDilatesOnlyTheNamedProcessorInsideTheWindow) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.fault_plan = Plan("slow-link@1:1000:2000:3000");
  Machine machine(mo);
  ASSERT_NE(machine.chaos(), nullptr);
  // Before activation every processor is at identity.
  EXPECT_EQ(machine.chaos()->AdjustCost(0, 100), 100);
  EXPECT_EQ(machine.chaos()->AdjustCost(1, 100), 100);
  machine.chaos()->Advance(1500, 0);  // crosses T0: window active on proc 1
  EXPECT_EQ(machine.chaos()->AdjustCost(0, 100), 100);
  EXPECT_EQ(machine.chaos()->AdjustCost(1, 100), 300);
  machine.chaos()->Advance(2500, 0);  // crosses T1: back to identity
  EXPECT_EQ(machine.chaos()->AdjustCost(1, 100), 100);
  EXPECT_EQ(machine.stats().chaos_events, 2u);  // activation + recovery
}

// --- zero cost when unarmed -----------------------------------------------------------

TEST(FaultInjection, UnarmedMachineHasNoInjectorAndNoDegradation) {
  Machine::Options mo;
  mo.config.num_processors = 2;
  mo.config.global_pages = 16;
  Machine machine(mo);
  EXPECT_EQ(machine.fault_injector(), nullptr);
  Task* task = machine.CreateTask("clean");
  VirtAddr va = task->MapAnonymous("data", 4 * machine.page_size());
  for (int p = 0; p < 4; ++p) {
    machine.StoreWord(*task, 0, va + static_cast<VirtAddr>(p) * machine.page_size(), p);
    (void)machine.LoadWord(*task, 1, va + static_cast<VirtAddr>(p) * machine.page_size());
  }
  const MachineStats& s = machine.stats();
  EXPECT_EQ(s.degraded_global_fallbacks, 0u);
  EXPECT_EQ(s.degraded_copy_failures, 0u);
  EXPECT_EQ(s.degraded_pool_retries, 0u);
  EXPECT_EQ(s.degraded_oom_faults, 0u);
  // The same zero-cost contract for chaos: no controller, counters exactly zero.
  EXPECT_EQ(machine.chaos(), nullptr);
  EXPECT_EQ(s.chaos_events, 0u);
  EXPECT_EQ(s.evacuated_pages, 0u);
}

}  // namespace
}  // namespace ace
