// Micro-benchmarks of the NUMA management mechanism itself (google-benchmark).
//
// The paper reports the mechanism cost only in aggregate (Table 4); these micros break
// out the host-side cost of the individual operations so regressions in the simulator
// hot paths are visible: the translated fast path, the fault/replication path, page
// copies, policy decisions, full protocol transitions, the runtime's dispatch and
// fiber switch, and the serving clients' Zipf draw.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "src/machine/machine.h"
#include "src/serving/zipf.h"
#include "src/threads/fiber_context.h"
#include "src/threads/runtime.h"

namespace {

ace::Machine::Options SmallOptions() {
  ace::Machine::Options mo;
  mo.config.num_processors = 4;
  mo.config.global_pages = 1024;
  mo.config.local_pages_per_proc = 256;
  return mo;
}

// The fast path: a mapped local reference (one translate + charge + data access).
void BM_LocalLoadFastPath(benchmark::State& state) {
  ace::Machine m(SmallOptions());
  ace::Task* task = m.CreateTask("t");
  ace::VirtAddr va = task->MapAnonymous("data", m.page_size());
  m.StoreWord(*task, 0, va, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.LoadWord(*task, 0, va));
  }
}
BENCHMARK(BM_LocalLoadFastPath);

// Global (pinned) reference fast path.
void BM_GlobalLoadFastPath(benchmark::State& state) {
  ace::Machine m(SmallOptions());
  ace::Task* task = m.CreateTask("t");
  ace::VirtAddr va = task->MapAnonymous("data", m.page_size());
  for (int i = 0; i < 12; ++i) {
    m.StoreWord(*task, i % 2, va, 1);  // ping-pong until pinned
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.LoadWord(*task, 0, va));
  }
}
BENCHMARK(BM_GlobalLoadFastPath);

// First-touch fault: zero-fill + placement + mapping (a fresh page every iteration).
void BM_ZeroFillFault(benchmark::State& state) {
  ace::Machine m(SmallOptions());
  ace::Task* task = m.CreateTask("t");
  ace::VirtAddr region = task->MapAnonymous("data", 512 * m.page_size());
  std::uint64_t page = 0;
  for (auto _ : state) {
    if (page >= 512) {
      state.PauseTiming();
      task->UnmapRegion(region, m.page_pool());
      region = task->MapAnonymous("data", 512 * m.page_size());
      page = 0;
      state.ResumeTiming();
    }
    m.StoreWord(*task, 0, region + page * m.page_size(), 1);
    ++page;
  }
}
BENCHMARK(BM_ZeroFillFault);

// Read replication: another processor faults in a read-only copy.
void BM_ReplicationFault(benchmark::State& state) {
  ace::Machine m(SmallOptions());
  ace::Task* task = m.CreateTask("t");
  ace::VirtAddr va = task->MapAnonymous("data", m.page_size());
  m.StoreWord(*task, 0, va, 1);
  ace::LogicalPage lp = m.DebugLogicalPage(*task, va);
  int reader = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.LoadWord(*task, reader, va));
    state.PauseTiming();
    m.pmap().manager().HandleRequest(lp, ace::AccessKind::kStore, 0,
                                     ace::Protection::kReadWrite);  // reclaim ownership
    state.ResumeTiming();
  }
}
BENCHMARK(BM_ReplicationFault);

// A full ownership migration (write fault on a page owned elsewhere).
void BM_OwnershipMigration(benchmark::State& state) {
  ace::Machine::Options mo = SmallOptions();
  mo.policy = ace::PolicySpec::MoveLimit(1 << 30);  // never pin
  ace::Machine m(mo);
  ace::Task* task = m.CreateTask("t");
  ace::VirtAddr va = task->MapAnonymous("data", m.page_size());
  m.StoreWord(*task, 0, va, 1);
  int writer = 0;
  for (auto _ : state) {
    writer ^= 1;
    m.StoreWord(*task, writer, va, 2);
  }
}
BENCHMARK(BM_OwnershipMigration);

// Raw page copy between frames.
void BM_PageCopy(benchmark::State& state) {
  ace::MachineConfig config;
  config.num_processors = 2;
  config.global_pages = 16;
  config.local_pages_per_proc = 16;
  ace::PhysicalMemory phys(config);
  ace::FrameRef local = phys.AllocLocal(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(phys.CopyPage(ace::FrameRef::Global(0), local, 0));
  }
}
BENCHMARK(BM_PageCopy);

// Policy decision cost.
void BM_PolicyDecision(benchmark::State& state) {
  ace::MoveLimitPolicy policy(1024, ace::MoveLimitPolicy::Options{4}, nullptr);
  ace::LogicalPage lp = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.CachePolicy(lp, ace::AccessKind::kFetch, 0));
    lp = (lp + 1) % 1024;
  }
}
BENCHMARK(BM_PolicyDecision);

// --- runtime dispatch -------------------------------------------------------------------
//
// Env::Compute(1) on lockstep fibers: each op moves the running fiber's clock past the
// others', so nearly every op dispatches (pick, deadline, fiber switch). The
// BM_EnvOpNoDispatch ns_per_op is the same op on a fiber that never dispatches; the
// difference between the two ns_per_op, divided by dispatches_per_op, is the host cost
// of one dispatch. layerbench's threads.dispatch_ns probe measures the same quantity.

// `total_ops` Env ops split evenly over `fibers` lockstep fibers: Env::Compute(1), or
// with `loads` an Env::Load of a word on the fiber's own page, which after its first
// touch is a local TLB hit. With `fibers` == 1, a second fiber sleeps far ahead in
// virtual time so the runner's deadline stays open and it never dispatches (a lone
// fiber would dispatch to itself on every op). Returns the dispatch count.
std::uint64_t EnvOpRun(ace::Machine& m, ace::Task* task, ace::VirtAddr pages, int fibers,
                       int total_ops, bool loads) {
  ace::Runtime rt(&m, task);
  const bool solo = fibers == 1;
  const int per_fiber = total_ops / fibers;
  const ace::VirtAddr page_size = m.page_size();
  rt.Run(solo ? 2 : fibers, [=](int tid, ace::Env& env) {
    if (solo && tid == 1) {
      env.Compute(ace::TimeNs{1} << 50);
      return;
    }
    const ace::VirtAddr va = pages + static_cast<ace::VirtAddr>(tid) * page_size;
    for (int i = 0; i < per_fiber; ++i) {
      if (loads) {
        benchmark::DoNotOptimize(env.Load(va));
      } else {
        env.Compute(1);
      }
    }
  });
  return rt.context_switches();
}

// Runs EnvOpRun once per iteration on a 7-processor machine (the layerbench shape)
// and reports ns_per_op and dispatches_per_op.
void RunEnvOps(benchmark::State& state, int fibers, int total_ops, bool loads = false) {
  ace::Machine::Options mo;
  mo.config.num_processors = 7;
  ace::Machine m(mo);
  ace::Task* task = m.CreateTask("t");
  const ace::VirtAddr pages =
      task->MapAnonymous("pages", static_cast<std::uint64_t>(fibers) * m.page_size());
  std::uint64_t dispatches = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (auto _ : state) {
    dispatches = EnvOpRun(m, task, pages, fibers, total_ops, loads);
  }
  const std::chrono::duration<double, std::nano> elapsed = std::chrono::steady_clock::now() - t0;
  state.counters["ns_per_op"] =
      elapsed.count() / (static_cast<double>(state.iterations()) * total_ops);
  state.counters["dispatches_per_op"] =
      static_cast<double>(dispatches) / static_cast<double>(total_ops);
}

// Lockstep fibers; 64 of them share the 7 processors, so the timeslice rule is live.
void BM_Dispatch(benchmark::State& state) {
  const int fibers = static_cast<int>(state.range(0));
  RunEnvOps(state, fibers, fibers * (fibers > 7 ? 2'000 : 20'000));
}
BENCHMARK(BM_Dispatch)->Arg(7)->Arg(64);

// The Env op alone: the solo fiber's deadline never closes.
void BM_EnvOpNoDispatch(benchmark::State& state) { RunEnvOps(state, 1, 140'000); }
BENCHMARK(BM_EnvOpNoDispatch);

// The reference path end to end: Env::Load on seven lockstep fibers, each a local
// TLB hit followed by a dispatch.
void BM_EnvLoadWithDispatch(benchmark::State& state) {
  RunEnvOps(state, 7, 140'000, /*loads=*/true);
}
BENCHMARK(BM_EnvLoadWithDispatch);

// A bare ping-pong through FiberContext, no scheduler: one iteration is two stack
// switches (main -> fiber -> main).
struct PingPong {
  ace::FiberContext main_ctx;
  ace::FiberContext fiber_ctx;
};
PingPong* g_ping_pong = nullptr;

void PingPongEntry() {
  for (;;) {
    ace::FiberContext::Switch(&g_ping_pong->fiber_ctx, &g_ping_pong->main_ctx);
  }
}

void BM_FiberSwitch(benchmark::State& state) {
  PingPong pp;
  std::vector<char> stack(64 * 1024);
  pp.fiber_ctx.Seed(stack.data(), stack.size(), &PingPongEntry);
  g_ping_pong = &pp;
  for (auto _ : state) {
    ace::FiberContext::Switch(&pp.main_ctx, &pp.fiber_ctx);
  }
  g_ping_pong = nullptr;  // the fiber stays parked in its loop and is never resumed
}
BENCHMARK(BM_FiberSwitch);

// One serving-client key draw (skew 0.9, the serving default) over range(0) keys.
void BM_ZipfSample(benchmark::State& state) {
  const ace::ZipfSampler zipf(static_cast<std::uint32_t>(state.range(0)), 0.9);
  ace::ServingRng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample)->Arg(128)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
