#include "layerbench/probes.h"

#include <algorithm>
#include <memory>
#include <vector>

#include "src/serving/latency.h"
#include "src/serving/workload.h"
#include "src/serving/zipf.h"
#include "src/threads/runtime.h"

namespace layerbench {
namespace {

constexpr int kReps = 7;  // timed repetitions per probe, after one warm-up

// Keeps probed results observable so the timed loops cannot be folded away.
volatile std::uint64_t g_sink = 0;

struct Timed {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

// Warm up with one call of `rep`, then return the ns per call of the fastest of
// kReps repetitions (interference from other tenants only ever slows one down).
template <typename Rep>
double FastestNsPerCall(const char* name, SpanLog* spans, Rep&& rep) {
  rep();
  double fastest = 0;
  const std::int64_t t0 = NowNs();
  for (int i = 0; i < kReps; ++i) {
    const Timed t = rep();
    ACE_CHECK(t.calls > 0);
    const double per_call = static_cast<double>(t.ns) / static_cast<double>(t.calls);
    fastest = i == 0 ? per_call : std::min(fastest, per_call);
  }
  spans->Add(name, t0, NowNs());
  return fastest;
}

// A probe machine: the workload's shape, optionally with a move threshold high
// enough that ping-ponging pages never pin.
struct ProbeMachine {
  std::unique_ptr<ace::Machine> machine;
  ace::Task* task = nullptr;

  ProbeMachine(const WorkloadSpec& spec, bool never_pin) {
    ace::Machine::Options options = MachineOptionsFor(spec);
    if (never_pin) {
      options.policy = ace::PolicySpec::MoveLimit(1 << 30);
    }
    machine = std::make_unique<ace::Machine>(options);
    task = machine->CreateTask("probe");
  }
  ace::Machine& m() { return *machine; }
  const ace::MachineStats& stats() { return machine->stats(); }
};

// `total_ops` Env::Compute(1) calls split evenly over `fibers` lockstep fibers of a
// fresh runtime; with `fibers` == 1, one fiber runs them all while a second one
// sleeps far ahead in virtual time, which keeps the runner's deadline open so it
// never dispatches (a lone fiber would dispatch to itself on every op).
struct ComputeRunResult {
  std::int64_t ns = 0;
  std::uint64_t dispatches = 0;
};
ComputeRunResult ComputeRun(ace::Machine& machine, ace::Task* task, int fibers,
                            int total_ops) {
  ace::Runtime rt(&machine, task);
  const bool solo = fibers == 1;
  const int per_fiber = total_ops / fibers;
  const std::int64_t t0 = NowNs();
  rt.Run(solo ? 2 : fibers, [per_fiber, solo](int tid, ace::Env& env) {
    if (solo && tid == 1) {
      env.Compute(ace::TimeNs{1} << 50);
      return;
    }
    for (int i = 0; i < per_fiber; ++i) {
      env.Compute(1);
    }
  });
  return {NowNs() - t0, rt.context_switches()};
}

struct DispatchCost {
  double dispatch_ns = 0;  // per dispatch, over the no-dispatch op
  double op_ns = 0;        // per Env::Compute that does not dispatch
};

// Host ns per dispatch at `fibers` lockstep fibers: their per-op cost minus that of
// the same ops on one fiber that never dispatches.
DispatchCost Dispatch(const WorkloadSpec& spec, int fibers, int total_ops, const char* name,
                      SpanLog* spans) {
  ProbeMachine pm(spec, false);
  std::uint64_t dispatches = 0;
  const double many = FastestNsPerCall(name, spans, [&] {
    const ComputeRunResult r = ComputeRun(pm.m(), pm.task, fibers, total_ops);
    dispatches = r.dispatches;
    return Timed{r.ns, static_cast<std::uint64_t>(total_ops)};
  });
  const double one = FastestNsPerCall("probe.dispatch_none", spans, [&] {
    const ComputeRunResult r = ComputeRun(pm.m(), pm.task, 1, total_ops);
    ACE_CHECK_MSG(r.dispatches < 16, "the solo fiber dispatched");
    return Timed{r.ns, static_cast<std::uint64_t>(total_ops)};
  });
  ACE_CHECK_MSG(dispatches > 0, "the lockstep fibers never dispatched");
  ACE_CHECK_MSG(many > one, "dispatching ops cost no more than non-dispatching ones");
  const double dispatches_per_op =
      static_cast<double>(dispatches) / static_cast<double>(total_ops);
  return {(many - one) / dispatches_per_op, one};
}

// LoadWord loop over `addrs` (a power-of-two count) as processor `proc`. Checks that
// every load was served from `cls`.
double LoadHitNs(ProbeMachine& pm, ace::ProcId proc, const std::vector<ace::VirtAddr>& addrs,
                 ace::MemoryClass cls, const char* name, SpanLog* spans) {
  constexpr std::uint64_t kLoads = 4'000'000;
  const std::size_t mask = addrs.size() - 1;
  const ace::ProcRefCounts before = pm.stats().refs[static_cast<std::size_t>(proc)];
  const double ns = FastestNsPerCall(name, spans, [&] {
    std::uint32_t sum = 0;
    const std::int64_t t0 = NowNs();
    for (std::uint64_t i = 0; i < kLoads; ++i) {
      sum += pm.m().LoadWord(*pm.task, proc, addrs[i & mask]);
    }
    const std::int64_t t1 = NowNs();
    g_sink = g_sink + sum;
    return Timed{t1 - t0, kLoads};
  });
  const ace::ProcRefCounts after = pm.stats().refs[static_cast<std::size_t>(proc)];
  const std::uint64_t served = cls == ace::MemoryClass::kLocal
                                   ? after.fetch_local - before.fetch_local
                                   : after.fetch_global - before.fetch_global;
  ACE_CHECK_MSG(served == kLoads * (kReps + 1), "probe loads left their memory class");
  return ns;
}

}  // namespace

ProbeCosts RunProbes(const WorkloadSpec& spec, std::uint64_t seed,
                     std::uint64_t serving_seed, SpanLog* spans) {
  ProbeCosts c;
  ace::ServingRng rng(seed);
  const std::uint32_t page = MachineOptionsFor(spec).config.page_size;

  // --- threads ------------------------------------------------------------------
  const DispatchCost d7 = Dispatch(spec, 7, 7 * 100'000, "probe.dispatch_7", spans);
  c.dispatch_ns = d7.dispatch_ns;
  c.op_ns = d7.op_ns;
  c.dispatch_ns_64 = Dispatch(spec, 64, 64 * 4'000, "probe.dispatch_64", spans).dispatch_ns;

  // --- machine ------------------------------------------------------------------
  // The word offsets of one page in a seeded order; `on(vas)` interleaves them over
  // the pages at `vas`, one reference per page in turn.
  std::vector<std::uint32_t> offsets(page / 4);
  for (std::uint32_t i = 0; i < offsets.size(); ++i) {
    offsets[i] = i * 4;
  }
  for (std::size_t i = offsets.size() - 1; i > 0; --i) {
    std::swap(offsets[i], offsets[rng.Below(i + 1)]);
  }
  auto on = [&](std::vector<ace::VirtAddr> vas) {
    std::vector<ace::VirtAddr> addrs;
    for (std::uint32_t off : offsets) {
      for (ace::VirtAddr va : vas) {
        addrs.push_back(va + off);
      }
    }
    return addrs;
  };
  {
    ProbeMachine pm(spec, false);
    const ace::VirtAddr va = pm.task->MapAnonymous("local", 2 * page);
    pm.m().StoreWord(*pm.task, 0, va, 1);  // first write: local-writable on proc 0
    pm.m().StoreWord(*pm.task, 0, va + page, 1);
    c.hit_ns_local = LoadHitNs(pm, 0, on({va}), ace::MemoryClass::kLocal,
                               "probe.hit_local", spans);
    c.hit_ns_alternating = LoadHitNs(pm, 0, on({va, va + page}), ace::MemoryClass::kLocal,
                                     "probe.hit_alternating", spans);
  }
  {
    ProbeMachine pm(spec, false);
    const ace::VirtAddr va = pm.task->MapAnonymous("pinned", page);
    for (int i = 0; i < 64 && pm.stats().pages_pinned == 0; ++i) {
      pm.m().StoreWord(*pm.task, static_cast<ace::ProcId>(i & 1), va, 1);
    }
    ACE_CHECK_MSG(pm.stats().pages_pinned == 1, "ping-pong writes did not pin the page");
    c.hit_ns_global = LoadHitNs(pm, 0, on({va}), ace::MemoryClass::kGlobal,
                                "probe.hit_global", spans);
  }
  {
    ProbeMachine pm(spec, false);
    constexpr std::uint64_t kCalls = 10'000'000;
    c.compute_ns = FastestNsPerCall("probe.compute", spans, [&] {
      const std::int64_t t0 = NowNs();
      for (std::uint64_t i = 0; i < kCalls; ++i) {
        pm.m().Compute(0, 1);
      }
      return Timed{NowNs() - t0, kCalls};
    });
  }

  // --- vm -----------------------------------------------------------------------
  c.fault_ns = FastestNsPerCall("probe.fault", spans, [&] {
    constexpr std::uint32_t kPages = 1536;  // within one processor's local memory
    ProbeMachine pm(spec, false);
    const ace::VirtAddr va = pm.task->MapAnonymous("fresh", std::uint64_t{kPages} * page);
    const std::int64_t t0 = NowNs();
    for (std::uint32_t i = 0; i < kPages; ++i) {
      pm.m().StoreWord(*pm.task, 0, va + std::uint64_t{i} * page + offsets[i % offsets.size()],
                       i);
    }
    const std::int64_t t1 = NowNs();
    ACE_CHECK_MSG(pm.stats().zero_fills == kPages, "fault probe did not zero-fill");
    return Timed{t1 - t0, kPages};
  });

  // --- numa ---------------------------------------------------------------------
  {
    ProbeMachine pm(spec, true);
    const ace::VirtAddr va = pm.task->MapAnonymous("pingpong", page);
    pm.m().StoreWord(*pm.task, 0, va, 0);
    constexpr std::uint32_t kStores = 2000;
    c.migration_ns = FastestNsPerCall("probe.migration", spans, [&] {
      const std::uint64_t moves = pm.stats().ownership_moves;
      const std::int64_t t0 = NowNs();
      for (std::uint32_t i = 0; i < kStores; ++i) {
        pm.m().StoreWord(*pm.task, static_cast<ace::ProcId>(1 - (i & 1)), va, i);
      }
      const std::int64_t t1 = NowNs();
      ACE_CHECK_MSG(pm.stats().ownership_moves - moves == kStores,
                    "alternating stores did not move ownership");
      return Timed{t1 - t0, kStores};
    });
  }
  {
    ProbeMachine pm(spec, true);
    const ace::VirtAddr va = pm.task->MapAnonymous("replicate", page);
    pm.m().StoreWord(*pm.task, 0, va, 7);
    const ace::LogicalPage lp = pm.m().DebugLogicalPage(*pm.task, va);
    constexpr std::uint32_t kLoads = 2000;
    c.replication_ns = FastestNsPerCall("probe.replication", spans, [&] {
      const std::uint64_t copies = pm.stats().page_copies;
      std::int64_t ns = 0;
      std::uint32_t sum = 0;
      for (std::uint32_t i = 0; i < kLoads; ++i) {
        pm.m().numa_manager().HandleRequest(lp, ace::AccessKind::kStore, 0,
                                            ace::Protection::kReadWrite);
        const std::int64_t t0 = NowNs();
        sum += pm.m().LoadWord(*pm.task, 1, va);
        ns += NowNs() - t0;
      }
      ACE_CHECK_MSG(sum == 7 * kLoads, "replicated page lost its content");
      ACE_CHECK_MSG(pm.stats().page_copies - copies >= kLoads,
                    "the second reader did not replicate the page");
      return Timed{ns, kLoads};
    });
  }

  // --- sim ----------------------------------------------------------------------
  {
    ProbeMachine pm(spec, false);
    ace::PhysicalMemory& phys = pm.m().physical_memory();
    const ace::FrameRef src = phys.AllocLocal(0);
    const ace::FrameRef dst = phys.AllocLocal(1);
    ACE_CHECK(src.valid() && dst.valid());
    constexpr std::uint64_t kCopies = 20'000;
    c.copy_ns = FastestNsPerCall("probe.copy", spans, [&] {
      ace::TimeNs charged = 0;
      const std::int64_t t0 = NowNs();
      for (std::uint64_t i = 0; i < kCopies; ++i) {
        charged += phys.CopyPage(i % 2 == 0 ? src : dst, i % 2 == 0 ? dst : src, 0);
      }
      const std::int64_t t1 = NowNs();
      g_sink = g_sink + static_cast<std::uint64_t>(charged);
      return Timed{t1 - t0, kCopies};
    });
    phys.FreeLocal(src);
    phys.FreeLocal(dst);
  }

  // --- serving ------------------------------------------------------------------
  const ace::ServingParams params =
      ace::ResolveServingParams(AppConfigFor(*FindWorkload("serving"), serving_seed));
  c.build_ms = 1e-6 * FastestNsPerCall("probe.serving_build", spans, [&] {
    const std::int64_t t0 = NowNs();
    const ace::ServingWorkload wl = ace::BuildServingWorkload(params, 7);
    const std::int64_t t1 = NowNs();
    g_sink = g_sink + wl.total_requests;
    return Timed{t1 - t0, 1};
  });
  {
    const ace::ZipfSampler zipf(params.keys_per_tenant, params.zipf_skew);
    constexpr std::uint64_t kDraws = 250'000;
    c.zipf_ns = FastestNsPerCall("probe.zipf", spans, [&] {
      std::uint64_t sum = 0;
      const std::int64_t t0 = NowNs();
      for (std::uint64_t i = 0; i < kDraws; ++i) {
        sum += zipf.Sample(rng);
      }
      const std::int64_t t1 = NowNs();
      g_sink = g_sink + sum;
      return Timed{t1 - t0, kDraws};
    });
  }
  {
    std::vector<std::uint64_t> latencies(4096);
    for (std::uint64_t& v : latencies) {
      v = rng.Below(100'000'000);  // up to 100 ms of virtual time
    }
    constexpr std::uint64_t kRecords = 4'000'000;
    c.hist_ns = FastestNsPerCall("probe.histogram", spans, [&] {
      ace::LatencyHistogram hist;
      const std::int64_t t0 = NowNs();
      for (std::uint64_t i = 0; i < kRecords; ++i) {
        hist.Record(latencies[i & 4095]);
      }
      const std::int64_t t1 = NowNs();
      g_sink = g_sink + hist.count();
      return Timed{t1 - t0, kRecords};
    });
  }
  return c;
}

ProbeCosts Fastest(ProbeCosts a, const ProbeCosts& b) {
  for (double ProbeCosts::*field :
       {&ProbeCosts::dispatch_ns, &ProbeCosts::dispatch_ns_64, &ProbeCosts::op_ns,
        &ProbeCosts::hit_ns_local, &ProbeCosts::hit_ns_global,
        &ProbeCosts::hit_ns_alternating, &ProbeCosts::compute_ns, &ProbeCosts::fault_ns,
        &ProbeCosts::migration_ns, &ProbeCosts::replication_ns, &ProbeCosts::copy_ns,
        &ProbeCosts::build_ms, &ProbeCosts::zipf_ns, &ProbeCosts::hist_ns}) {
    a.*field = std::min(a.*field, b.*field);
  }
  return a;
}

}  // namespace layerbench
