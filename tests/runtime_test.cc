// Unit tests for the fiber runtime: deterministic scheduling, affinity, migration,
// timeslicing, per-fiber FP control state, unwinding on an app exception, the pinned
// dispatch order, and the SimSpan accessors.

#include <gtest/gtest.h>

#include <cfenv>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/inject/fault_plan.h"
#include "src/machine/machine.h"
#include "src/machine/recovery.h"
#include "src/obs/sampler.h"
#include "src/threads/runtime.h"
#include "src/threads/sim_span.h"

namespace ace {
namespace {

Machine::Options SmallMachine(int procs) {
  Machine::Options mo;
  mo.config.num_processors = procs;
  mo.config.global_pages = 64;
  mo.config.local_pages_per_proc = 32;
  return mo;
}

TEST(Runtime, ThreadsStartOnAffinityProcessors) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  std::vector<ProcId> procs(6, kNoProc);
  Runtime rt(&m, t);
  rt.Run(6, [&](int tid, Env& env) {
    procs[static_cast<std::size_t>(tid)] = env.proc();
    env.Compute(100);
  });
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(procs[static_cast<std::size_t>(i)], i % 4);
  }
}

TEST(Runtime, MinTimeSchedulingInterleavesFairly) {
  // Two threads on different processors doing equal work must end with equal clocks.
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(2, [&](int, Env& env) {
    for (int i = 0; i < 100; ++i) {
      env.Compute(1000);
    }
  });
  EXPECT_EQ(m.clocks().user_ns(0), m.clocks().user_ns(1));
}

TEST(Runtime, CausalityAcrossThreads) {
  // A value stored by thread 0 "before" (in virtual time) thread 1 reads it must be
  // visible: min-time dispatch guarantees reads happen at clocks >= the writer's.
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr flag = t->MapAnonymous("flag", 4096);
  VirtAddr data = t->MapAnonymous("data", 4096);
  std::uint32_t observed = 0;
  Runtime rt(&m, t);
  rt.Run(2, [&](int tid, Env& env) {
    if (tid == 0) {
      env.Store(data, 99);
      env.Store(flag, 1);
    } else {
      while (env.Load(flag) == 0) {
        env.Compute(500);
      }
      observed = env.Load(data);
    }
  });
  EXPECT_EQ(observed, 99u);
}

TEST(Runtime, VoluntaryYieldDoesNotAdvanceTime) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(1, [&](int, Env& env) {
    env.Yield();
    env.Yield();
  });
  EXPECT_EQ(m.clocks().TotalUser(), 0);
}

TEST(Runtime, MultipleThreadsPerProcessorTimeslice) {
  // 3 threads on 1 processor: all must finish, sharing the single clock.
  Machine m(SmallMachine(1));
  Task* t = m.CreateTask("t");
  std::vector<int> done(3, 0);
  Runtime rt(&m, t);
  rt.Run(3, [&](int tid, Env& env) {
    for (int i = 0; i < 50; ++i) {
      env.Compute(10'000);
    }
    done[static_cast<std::size_t>(tid)] = 1;
  });
  EXPECT_EQ(done, (std::vector<int>{1, 1, 1}));
  EXPECT_EQ(m.clocks().user_ns(0), 3 * 50 * 10'000);
}

TEST(Runtime, MigratingSchedulerMoves) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  Runtime::Options options;
  options.scheduler = SchedulerKind::kMigrating;
  options.migrate_quantum_ns = 100'000;
  Runtime rt(&m, t, options);
  std::vector<ProcId> seen;
  rt.Run(1, [&](int, Env& env) {
    for (int i = 0; i < 100; ++i) {
      env.Compute(10'000);
      if (seen.empty() || seen.back() != env.proc()) {
        seen.push_back(env.proc());
      }
    }
  });
  EXPECT_GT(rt.migrations(), 0u);
  EXPECT_GT(seen.size(), 1u);  // actually ran on several processors
}

TEST(Runtime, AffinitySchedulerNeverMigrates) {
  Machine m(SmallMachine(4));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(4, [&](int tid, Env& env) {
    for (int i = 0; i < 20; ++i) {
      env.Compute(50'000);
      EXPECT_EQ(env.proc(), tid % 4);
    }
  });
  EXPECT_EQ(rt.migrations(), 0u);
}

TEST(Runtime, SequentialRunsOnSameRuntime) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  Runtime rt(&m, t);
  rt.Run(2, [&](int tid, Env& env) { env.Store(va + static_cast<VirtAddr>(tid) * 4, 1); });
  rt.Run(2, [&](int tid, Env& env) {
    env.Store(va + static_cast<VirtAddr>(tid) * 4, env.Load(va + static_cast<VirtAddr>(tid) * 4) + 1);
  });
  EXPECT_EQ(m.DebugRead(*t, va), 2u);
  EXPECT_EQ(m.DebugRead(*t, va + 4), 2u);
}

TEST(SimSpan, ProxyReadsAndWrites) {
  Machine m(SmallMachine(1));
  Task* t = m.CreateTask("t");
  VirtAddr va = t->MapAnonymous("p", 4096);
  Runtime rt(&m, t);
  rt.Run(1, [&](int, Env& env) {
    SimSpan<std::int32_t> ints(env, va, 8);
    ints[0] = -5;
    ints[1] = ints.Get(0);          // proxy-to-proxy copy through simulated memory
    ints[2] = ints.Get(0) + 7;
    ints[3] = 100;
    ints[3] += 1;
    ints[3] -= 3;
    EXPECT_EQ(ints.Get(1), -5);
    EXPECT_EQ(ints.Get(2), 2);
    EXPECT_EQ(ints.Get(3), 98);

    SimSpan<float> floats(env, va + 64, 4);
    floats[0] = 1.5f;
    floats[1] = floats.Get(0) * 2.0f;
    EXPECT_FLOAT_EQ(floats.Get(1), 3.0f);

    SimSpan<std::int32_t> sub = ints.Sub(2, 2);
    EXPECT_EQ(sub.Get(0), 2);
    EXPECT_EQ(sub.size(), 2u);
  });
}

TEST(Runtime, ContextSwitchesAreCounted) {
  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  rt.Run(2, [&](int, Env& env) {
    for (int i = 0; i < 10; ++i) {
      env.Compute(1000);
    }
  });
  EXPECT_GE(rt.context_switches(), 2u);  // at least each thread dispatched once
}

// Dispatches and stack switches are machine counters (src/sim/stats.h), so the
// bench baselines gate them exactly. A lone fiber re-dispatches itself after every
// op without switching stacks: its only stack switch is the entry from Run().
TEST(Runtime, HostCountersLandInMachineStats) {
  Machine lone_machine(SmallMachine(1));
  Runtime lone(&lone_machine, lone_machine.CreateTask("t"));
  lone.Run(1, [&](int, Env& env) {
    for (int i = 0; i < 10; ++i) {
      env.Compute(1000);
    }
  });
  const MachineStats& lone_stats = lone_machine.stats();
  EXPECT_EQ(lone_stats.dispatches, lone.context_switches());
  EXPECT_EQ(lone_stats.dispatches, 11u);  // the entry, then one per Compute
  EXPECT_EQ(lone_stats.stack_switches, 1u);

  Machine m(SmallMachine(7));
  Runtime rt(&m, m.CreateTask("t"));
  rt.Run(7, [&](int tid, Env& env) {
    for (int i = 0; i < 20; ++i) {
      env.Compute(100 + 10 * tid);
    }
  });
  const MachineStats& stats = m.stats();
  EXPECT_EQ(stats.dispatches, rt.context_switches());
  EXPECT_GT(stats.stack_switches, 7u);  // every fiber entered, then interleaved
  EXPECT_LE(stats.stack_switches, stats.dispatches);
}

// The fiber switch saves and restores the SSE and x87 control words per context: a
// rounding mode one fiber sets survives every switch away and back, and never leaks
// into a sibling or into Run()'s caller.
TEST(Runtime, RoundingModeIsPerFiber) {
  volatile double one = 1.0;
  volatile double three = 3.0;
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  const double third_up = one / three;
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  const double third_nearest = one / three;
  ASSERT_NE(third_up, third_nearest);

  Machine m(SmallMachine(2));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  std::vector<int> wrong_mode(3, 0);
  std::vector<int> wrong_quotient(3, 0);
  rt.Run(3, [&](int tid, Env& env) {
    const int want = tid == 0 ? FE_UPWARD : FE_TONEAREST;
    const double want_third = tid == 0 ? third_up : third_nearest;
    if (tid == 0) {
      std::fesetround(FE_UPWARD);
    }
    for (int i = 0; i < 200; ++i) {
      env.Compute(100 + 10 * tid);
      wrong_mode[static_cast<std::size_t>(tid)] += std::fegetround() != want;
      wrong_quotient[static_cast<std::size_t>(tid)] += one / three != want_third;
    }
  });
  EXPECT_GT(rt.context_switches(), 200u);  // the fibers really did interleave
  EXPECT_EQ(wrong_mode, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(wrong_quotient, (std::vector<int>{0, 0, 0}));
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

// An exception escaping one fiber's body ends the run: Run() rethrows it once every
// sibling has unwound, and no sibling gets past the Env op it is parked in or, for a
// fiber not yet started, its first one. Fiber 0 throws after 40 ops.
struct KilledRun {
  std::vector<int> ops_before;  // Env ops each fiber completed before the throw
  std::vector<int> ops_after;   // ... and after it
};

KilledRun RunUntilAppThrows(int procs, int threads) {
  Machine m(SmallMachine(procs));
  Task* t = m.CreateTask("t");
  Runtime rt(&m, t);
  bool thrown = false;
  KilledRun run{std::vector<int>(static_cast<std::size_t>(threads), 0),
                std::vector<int>(static_cast<std::size_t>(threads), 0)};
  try {
    rt.Run(threads, [&](int tid, Env& env) {
      for (int i = 0; i < 1000; ++i) {
        if (tid == 0 && i == 40) {
          thrown = true;
          throw std::runtime_error("app failure");
        }
        env.Compute(100);
        (thrown ? run.ops_after : run.ops_before)[static_cast<std::size_t>(tid)]++;
      }
    });
    ADD_FAILURE() << "Run returned normally";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "app failure");
  }
  EXPECT_TRUE(thrown);
  return run;
}

TEST(Runtime, AppExceptionStopsSiblingsAtTheirNextOp) {
  // Siblings on other processors are mid-streak: parked with clocks within the
  // deadline they will be dispatched under.
  KilledRun mid = RunUntilAppThrows(/*procs=*/2, /*threads=*/3);
  EXPECT_EQ(mid.ops_before[0], 40);
  EXPECT_GT(mid.ops_before[1], 0);
  EXPECT_GT(mid.ops_before[2], 0);
  EXPECT_EQ(mid.ops_after, (std::vector<int>{0, 0, 0}));

  // One processor and a 1 ms timeslice: fiber 0 runs its 40 ops in one streak, so
  // its siblings first run after the throw, each under a deadline a timeslice ahead.
  KilledRun fresh = RunUntilAppThrows(/*procs=*/1, /*threads=*/3);
  EXPECT_EQ(fresh.ops_before, (std::vector<int>{40, 0, 0}));
  EXPECT_EQ(fresh.ops_after, (std::vector<int>{0, 0, 0}));
}

// --- pinned dispatch order ----------------------------------------------------------
//
// Each configuration records every Env op, in the global order the single host thread
// runs them, as (tid, processor clock right after the op) and hashes the sequence with
// FNV-1a. The hash, the dispatch count and the final processor clocks are pinned: any
// change to which fiber the scheduler picks, or to when it preempts, moves them.

struct DispatchOrder {
  std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
  std::uint64_t dispatches = 0;
  std::uint64_t migrations = 0;
  std::uint64_t chaos_events = 0;
  std::uint64_t samples = 0;
  std::vector<TimeNs> clocks;

  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 1099511628211ull;
    }
  }
};

struct OrderCase {
  int procs = 7;
  int threads = 7;
  Runtime::Options options;
  std::string plan;          // fault plan text; empty = no chaos
  bool migrate_to = false;   // two fibers call Env::MigrateTo mid-run
  bool sampled = false;      // a bare LiveSampler and a watchdog that never trips
  bool foreign = false;      // fibers charge processor 0 directly and use the atomics
};

DispatchOrder RunOrderCase(const OrderCase& c) {
  Machine::Options mo = SmallMachine(c.procs);
  if (!c.plan.empty()) {
    std::string error;
    EXPECT_TRUE(FaultPlan::Parse(c.plan, &mo.fault_plan, &error)) << error;
  }
  Machine m(mo);
  Task* t = m.CreateTask("t");
  const VirtAddr shared = t->MapAnonymous("shared", 8 * m.page_size());
  DispatchOrder order;
  Runtime::Options ro = c.options;
  LiveSampler::Options so;
  so.interval_ns = 1'000'000;
  LiveSampler sampler(so, /*sink=*/nullptr);
  if (c.sampled) {
    sampler.SetSource(&Machine::LiveCaptureThunk, &m);
    LiveRunMeta meta;
    meta.procs = c.procs;
    meta.threads = c.threads;
    sampler.BeginRun(std::move(meta));
    ro.sampler = &sampler;
    ro.watchdog.deadline_ns = 1'000'000'000'000;
    ro.watchdog.move_budget = 1'000'000'000;
  }
  Runtime rt(&m, t, ro);
  rt.Run(c.threads, [&](int tid, Env& env) {
    auto record = [&] {
      order.Mix(static_cast<std::uint64_t>(tid));
      order.Mix(static_cast<std::uint64_t>(m.clocks().now(env.proc())));
    };
    const int iters = 300 + 37 * tid;
    for (int i = 0; i < iters; ++i) {
      env.Compute(50 + 13 * ((tid * 7 + i) % 11));
      record();
      if (i % 5 == 0) {
        const auto page = static_cast<VirtAddr>((tid + i) % 8);
        env.Store(shared + page * m.page_size() + static_cast<VirtAddr>(tid % 16) * 4,
                  static_cast<std::uint32_t>(i));
        record();
      }
      if (i % 3 == 0) {
        env.Load(shared + static_cast<VirtAddr>((3 * i + tid) % 8) * m.page_size());
        record();
      }
      if (i % 17 == 0) {
        env.Yield();
        record();
      }
      if (c.migrate_to && tid == 2 && i == iters / 2) {
        env.MigrateTo((env.proc() + 3) % c.procs, /*move_pages=*/true);
        record();
      }
      if (c.migrate_to && tid == 5 && i == iters / 3) {
        env.MigrateTo(0, /*move_pages=*/false);
        record();
      }
      if (c.foreign) {
        // As the UnixMaster fixture does: work charged straight to processor 0,
        // outside any Env op, so a clock other than the running one moves between
        // dispatches. The next Env op of this fiber is what yields.
        const VirtAddr word = shared + static_cast<VirtAddr>(i % 8) * m.page_size() + 64;
        if (i % 7 == 0) {
          m.Compute(0, 3'000 + 500 * tid);
          order.Mix(m.clocks().now(0));
        }
        if (i % 9 == 0 && env.proc() != 0) {
          order.Mix(m.LoadWord(*t, 0, word));
          order.Mix(m.clocks().now(0));
        }
        if (i % 4 == 0) {
          order.Mix(env.TestAndSet(word + 4, static_cast<std::uint32_t>(tid + 1)));
          record();
        }
        if (i % 6 == 1) {
          order.Mix(env.FetchAdd(word + 8, static_cast<std::uint32_t>(tid) + 1));
          record();
        }
        if (i % 10 == 3) {
          order.Mix(env.FetchOr(word + 12, 1u << (tid % 32)));
          record();
        }
      }
    }
  });
  order.dispatches = rt.context_switches();
  order.migrations = rt.migrations();
  order.chaos_events = m.stats().chaos_events;
  order.samples = sampler.samples();
  for (int p = 0; p < c.procs; ++p) {
    order.clocks.push_back(m.clocks().now(static_cast<ProcId>(p)));
  }
  return order;
}

void ExpectOrder(const DispatchOrder& got, std::uint64_t hash, std::uint64_t dispatches,
                 const std::vector<TimeNs>& clocks) {
  EXPECT_EQ(got.hash, hash);
  EXPECT_EQ(got.dispatches, dispatches);
  EXPECT_EQ(got.clocks, clocks);
}

TEST(DispatchOrder, SevenFibersOnSevenProcessors) {
  OrderCase c;
  const DispatchOrder got = RunOrderCase(c);
  EXPECT_EQ(got.migrations, 0u);
  ExpectOrder(got, 4262820187080138673ull, 1490, {29377924, 25818801, 27869650, 24608104, 25922879, 28341016, 25562381});
}

TEST(DispatchOrder, SixteenFibersShareSevenProcessors) {
  OrderCase c;
  c.threads = 16;
  c.options.timeslice_ns = 100'000;
  const DispatchOrder got = RunOrderCase(c);
  ExpectOrder(got, 17191797237645396074ull, 4805, {31570777, 33202714, 29956045, 27638530, 31397178, 33843402, 31501746});
}

TEST(DispatchOrder, MigratingScheduler) {
  OrderCase c;
  c.procs = 4;
  c.threads = 5;
  c.options.scheduler = SchedulerKind::kMigrating;
  c.options.migrate_quantum_ns = 1'000'000;
  const DispatchOrder got = RunOrderCase(c);
  EXPECT_GT(got.migrations, 0u);
  ExpectOrder(got, 7955199047735173077ull, 372, {98825102, 105010249, 106011749, 106288077});
}

TEST(DispatchOrder, MigrateToMidRun) {
  OrderCase c;
  c.procs = 4;
  c.threads = 6;
  c.migrate_to = true;
  const DispatchOrder got = RunOrderCase(c);
  EXPECT_EQ(got.migrations, 2u);
  ExpectOrder(got, 15234585296151555811ull, 534, {50525227, 48678410, 48512194, 46541374});
}

TEST(DispatchOrder, ChaosStallRunsTheHooks) {
  // A stall pads processor 1's clock; the drain charges evacuation time to the
  // dispatching processor. Both move clocks inside the dispatch hooks.
  OrderCase c;
  c.procs = 4;
  c.threads = 6;
  c.plan = "stall-proc@1:10000000:25000000;drain-mem@3:15000000:30000000:0";
  const DispatchOrder got = RunOrderCase(c);
  EXPECT_EQ(got.chaos_events, 3u);  // the one-shot stall, the drain and its recovery
  ExpectOrder(got, 3785844775754113683ull, 450, {62314553, 64989585, 59474480, 61583674});
}

TEST(DispatchOrder, KillNodeRehomesFibers) {
  OrderCase c;
  c.procs = 4;
  c.threads = 6;
  c.plan = "kill-node@2:20000000";
  const DispatchOrder got = RunOrderCase(c);
  EXPECT_EQ(got.chaos_events, 1u);
  EXPECT_GT(got.migrations, 0u);  // the dead node's fibers moved
  ExpectOrder(got, 6894223846143925848ull, 462, {73492723, 71744057, 25152586, 67949916});
}

TEST(DispatchOrder, SamplerAndWatchdogArmedWithoutChaos) {
  // The sampler ticks every 1 ms of virtual time and the watchdog checks both limits
  // on every dispatch; neither moves a clock, so only the hook order is pinned.
  OrderCase c;
  c.procs = 4;
  c.threads = 6;
  c.sampled = true;
  const DispatchOrder got = RunOrderCase(c);
  EXPECT_EQ(got.chaos_events, 0u);
  EXPECT_GT(got.samples, 0u);
  ExpectOrder(got, 11915409074880420223ull, 982, {50236573, 48781007, 48678410, 46541374});
}

TEST(DispatchOrder, MigratingAndMigrateToSkipADeadNode) {
  // Every way a fiber changes processor at once: the kMigrating rotation, explicit
  // MigrateTo calls and the kill-node rehome. After the kill, the rotation and
  // MigrateTo both have to step over the dead node.
  OrderCase c;
  c.procs = 4;
  c.threads = 6;
  c.options.scheduler = SchedulerKind::kMigrating;
  c.options.migrate_quantum_ns = 1'000'000;
  c.migrate_to = true;
  c.plan = "kill-node@2:20000000";
  const DispatchOrder got = RunOrderCase(c);
  EXPECT_EQ(got.chaos_events, 1u);
  EXPECT_EQ(got.migrations, 166u);
  ExpectOrder(got, 9023638249039397376ull, 1156, {196375197, 190522631, 24300119, 196016752});
}

TEST(DispatchOrder, ForeignChargesAndAtomics) {
  // A fiber moves processor 0's clock without an Env op (Machine::Compute and
  // Machine::LoadWord on processor 0), so the running fiber is not the only one whose
  // clock changes between dispatches; TestAndSet, FetchAdd and FetchOr yield like a
  // load, and their return values are hashed too.
  OrderCase c;
  c.procs = 4;
  c.threads = 6;
  c.foreign = true;
  const DispatchOrder got = RunOrderCase(c);
  ExpectOrder(got, 1989984590613604709ull, 1022, {59241463, 42428487, 39829180, 41206124});
}

}  // namespace
}  // namespace ace
