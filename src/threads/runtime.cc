#include "src/threads/runtime.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "src/machine/chaos.h"
#include "src/machine/recovery.h"
#include "src/obs/sampler.h"

namespace ace {
namespace {

// Internal unwind signal: thrown by MaybeYield once killing_ is set, caught by
// FiberTrampoline. Never escapes the runtime (callers see RunKilledError instead).
struct FiberKill {};

// Bytes of host stack for every fiber.
constexpr std::size_t kFiberStackBytes = 256 * 1024;

}  // namespace

thread_local Runtime* Runtime::active_ = nullptr;

// --- Env ---------------------------------------------------------------------------------

Machine& Env::machine() { return runtime_->machine(); }
Task& Env::task() { return runtime_->task(); }

std::uint32_t Env::Load(VirtAddr va) {
  std::uint32_t v = runtime_->machine_->LoadWord(runtime_->task(), proc_, va);
  runtime_->MaybeYield(*this, /*voluntary=*/false);
  return v;
}

void Env::Store(VirtAddr va, std::uint32_t value) {
  runtime_->machine_->StoreWord(runtime_->task(), proc_, va, value);
  runtime_->MaybeYield(*this, /*voluntary=*/false);
}

std::uint32_t Env::TestAndSet(VirtAddr va, std::uint32_t new_value) {
  std::uint32_t v = runtime_->machine_->TestAndSet(runtime_->task(), proc_, va, new_value);
  runtime_->MaybeYield(*this, /*voluntary=*/false);
  return v;
}

std::uint32_t Env::FetchAdd(VirtAddr va, std::uint32_t delta) {
  std::uint32_t v = runtime_->machine_->FetchAdd(runtime_->task(), proc_, va, delta);
  runtime_->MaybeYield(*this, /*voluntary=*/false);
  return v;
}

std::uint32_t Env::FetchOr(VirtAddr va, std::uint32_t bits) {
  std::uint32_t v = runtime_->machine_->FetchOr(runtime_->task(), proc_, va, bits);
  runtime_->MaybeYield(*this, /*voluntary=*/false);
  return v;
}

void Env::Compute(TimeNs ns) {
  runtime_->machine_->Compute(proc_, ns);
  runtime_->MaybeYield(*this, /*voluntary=*/false);
}

void Env::Yield() { runtime_->MaybeYield(*this, /*voluntary=*/true); }

void Env::MigrateTo(ProcId new_proc, bool move_pages) {
  ACE_CHECK(new_proc >= 0 && new_proc < runtime_->machine_->num_processors());
  // A migration aimed at a node lost to kill-node chaos lands on the next live
  // processor instead — a real OS refuses to bind to an offline CPU.
  new_proc = runtime_->LiveProcFrom(new_proc);
  if (new_proc == proc_) {
    return;
  }
  runtime_->MoveFiber(*runtime_->fibers_[static_cast<std::size_t>(tid_)], new_proc,
                      move_pages);
  runtime_->MaybeYield(*this, /*voluntary=*/true);
}

// --- Runtime ---------------------------------------------------------------------------

Runtime::Runtime(Machine* machine, Task* task, Options options)
    : machine_(machine), task_(task), options_(options) {
  ACE_CHECK(machine_ != nullptr && task_ != nullptr);
  ACE_CHECK(options_.timeslice_ns >= 0);
  dispatches_at_start_ = machine_->stats().dispatches;
}

Runtime::~Runtime() = default;

void Runtime::FiberTrampoline() {
  Runtime* rt = active_;
  ACE_CHECK(rt != nullptr && rt->current_ >= 0);
  Fiber& fiber = *rt->fibers_[static_cast<std::size_t>(rt->current_)];
  try {
    (*rt->body_)(fiber.env.tid_, fiber.env);
  } catch (const FiberKill&) {
    // Watchdog unwind: the fiber's stack has been cleanly destroyed; nothing to do.
  } catch (...) {
    // Application code threw. Remember the first exception and unwind the sibling
    // fibers too (their stacks must be destroyed before Run can rethrow).
    if (!rt->fiber_exception_) {
      rt->fiber_exception_ = std::current_exception();
    }
    rt->killing_ = true;
  }
  fiber.finished = true;
  rt->live_count_--;
  // Hand off for good — to the next runnable fiber, or back to Run() when this was
  // the last one. This context is never resumed either way.
  if (rt->live_count_ > 0) {
    rt->DispatchNextFrom(&fiber.ctx, -1);
  } else {
    FiberContext::Switch(&fiber.ctx, &rt->main_ctx_);
  }
  ACE_CHECK_MSG(false, "finished fiber was resumed");
}

int Runtime::PickWithDeadline(TimeNs* deadline) const {
  // One pass keeps the running minimum (clock, seq) and, alongside it, that minimum's
  // deadline: the smallest contribution of every other runnable fiber, where a fiber
  // on the best fiber's processor contributes best_clock + timeslice and any other
  // fiber its own clock. Fibers on one processor share its clock, so when a new
  // minimum on processor p displaces the old best on q the deadline updates exactly:
  //  - p != q: every fiber seen so far has a clock >= the old best's, and the old best
  //    now contributes exactly that clock, so the old best's clock is the deadline;
  //  - p == q: every other fiber's contribution is unchanged and the old best adds
  //    clock + timeslice.
  // The "no fiber yet" sentinels need no special case: the first runnable fiber
  // displaces them and, as p != kNoProc, leaves the deadline at kNone.
  constexpr TimeNs kNone = std::numeric_limits<TimeNs>::max();
  const TimeNs slice = options_.timeslice_ns;
  int best = -1;
  ProcId best_proc = kNoProc;
  TimeNs best_clock = kNone;
  std::uint64_t best_seq = 0;
  TimeNs dl = kNone;
  const std::size_t n = fibers_.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Fiber& f = *fibers_[i];
    if (f.finished) {
      continue;
    }
    const ProcId proc = f.env.proc_;
    const TimeNs clock = now_[proc];
    if (clock < best_clock || (clock == best_clock && f.seq < best_seq)) {
      dl = proc != best_proc ? best_clock : std::min(dl, clock + slice);
      best = static_cast<int>(i);
      best_proc = proc;
      best_clock = clock;
      best_seq = f.seq;
    } else {
      dl = std::min(dl, proc == best_proc ? best_clock + slice : clock);
    }
  }
  // No other runnable fiber: -1 makes the lone fiber re-dispatch at its next op.
  *deadline = dl == kNone ? -1 : dl;
  return best;
}

void Runtime::MaybeYield(Env& env, bool voluntary) {
  if (killing_) {
    throw FiberKill{};
  }
  if (options_.scheduler == SchedulerKind::kMigrating) {
    Fiber& fiber = *fibers_[static_cast<std::size_t>(env.tid_)];
    TimeNs ran = now_[env.proc_] - fiber.migrate_epoch_ns;
    if (ran >= options_.migrate_quantum_ns) {
      // Move to the next processor, modeling the original Mach single-queue scheduler
      // under which "processes mov[ed] between processors far too often" (sec. 4.7).
      // The rotation stops at the fiber's own processor (live by construction) when no
      // other one survives kill-node chaos.
      MoveFiber(fiber, LiveProcFrom((env.proc_ + 1) % machine_->num_processors()),
                /*move_pages=*/false);
      voluntary = true;  // force a pass through the scheduler to recompute deadlines
    }
  }

  if (!voluntary && now_[env.proc_] <= current_deadline_) {
    return;  // still the earliest runnable thread: keep running without a switch
  }
  Fiber& fiber = *fibers_[static_cast<std::size_t>(env.tid_)];
  fiber.seq = next_seq_++;
  DispatchNextFrom(&fiber.ctx, env.tid_);
  if (killing_) {
    // The kill arrived while this fiber was parked; unwind before touching the
    // machine again.
    throw FiberKill{};
  }
}

void Runtime::DispatchNextFrom(FiberContext* from, int self) {
  TimeNs deadline = 0;
  int next = PickWithDeadline(&deadline);
  ACE_CHECK_MSG(next >= 0, "no runnable thread but work remains");
  if (hooks_armed_) {
    next = RunDispatchHooks(next, &deadline);
  }
  current_ = next;
  current_deadline_ = deadline;
  MachineStats& stats = machine_->stats();
  stats.dispatches++;
  if (next == self) {
    return;  // the yielding fiber won the dispatch again: no stack switch needed
  }
  stats.stack_switches++;
  FiberContext::Switch(from, &fibers_[static_cast<std::size_t>(next)]->ctx);
}

int Runtime::RunDispatchHooks(int next, TimeNs* deadline) {
  if (machine_->chaos() != nullptr) {
    // Chaos transitions fire when the minimum runnable clock — monotone across
    // dispatches — crosses an event boundary. A transition can advance a clock (a
    // stall pads the node to its window end) or charge evacuation time to the
    // chosen fiber's processor, so re-pick until no further transition applies;
    // each event transitions at most twice, so the loop is bounded.
    while (machine_->chaos()->Advance(
        now_[fibers_[static_cast<std::size_t>(next)]->env.proc_],
        fibers_[static_cast<std::size_t>(next)]->env.proc_)) {
      next = PickWithDeadline(deadline);
    }
    // A kill-node transition orphans the fibers bound to the dead processor; move
    // them to live processors before dispatching (a dead node must never execute).
    if (machine_->recovery() != nullptr && machine_->recovery()->has_dead_nodes()) {
      if (RehomeDeadNodeFibers()) {
        next = PickWithDeadline(deadline);
      }
    }
  }
  if (options_.sampler != nullptr) {
    // The chosen fiber's clock is the minimum runnable clock — monotone
    // nondecreasing across dispatches, so it is a valid sample timestamp.
    options_.sampler->Tick(now_[fibers_[static_cast<std::size_t>(next)]->env.proc_]);
  }
  CheckWatchdog(next);
  return next;
}

bool Runtime::RehomeDeadNodeFibers() {
  RecoveryManager* recovery = machine_->recovery();
  bool moved = false;
  for (auto& fp : fibers_) {
    Fiber& fiber = *fp;
    if (fiber.finished || !recovery->node_dead(fiber.env.proc_)) {
      continue;
    }
    // Deterministic new home: the surviving processor with the smallest clock (ties
    // to the lowest id) — the same min-clock rule every dispatch uses, so the choice
    // is a pure function of simulation state.
    ProcId best = kNoProc;
    for (int p = 0; p < machine_->num_processors(); ++p) {
      ProcId cand = static_cast<ProcId>(p);
      if (recovery->node_dead(cand)) {
        continue;
      }
      if (best == kNoProc || now_[cand] < now_[best]) {
        best = cand;
      }
    }
    ACE_CHECK_MSG(best != kNoProc, "kill-node left no surviving processor");
    // The dead node's pages were already re-homed to global memory by the recovery
    // manager, so there is nothing to move.
    MoveFiber(fiber, best, /*move_pages=*/false);
    moved = true;
  }
  return moved;
}

void Runtime::MoveFiber(Fiber& fiber, ProcId to, bool move_pages) {
  const ProcId from = fiber.env.proc_;
  // Keep causality: the destination may be behind (it may have sat empty while this
  // thread worked); pad it with idle time so the thread cannot observe state "before"
  // it was produced.
  const TimeNs skew = now_[from] - now_[to];
  if (skew > 0) {
    machine_->clocks().ChargeIdle(to, skew);
  }
  if (move_pages) {
    machine_->numa_manager().MigrateResidentPages(from, to);
  }
  fiber.env.proc_ = to;
  fiber.migrate_epoch_ns = now_[to];
  migrations_++;
}

ProcId Runtime::LiveProcFrom(ProcId proc) const {
  const RecoveryManager* recovery = machine_->recovery();
  if (recovery != nullptr) {
    // Terminates: the recovery manager keeps at least one processor alive.
    while (recovery->node_dead(proc)) {
      proc = (proc + 1) % machine_->num_processors();
    }
  }
  return proc;
}

void Runtime::CheckWatchdog(int next) {
  const WatchdogLimits& wd = options_.watchdog;
  if (killing_ || !wd.enabled()) {
    return;
  }
  const Fiber& fiber = *fibers_[static_cast<std::size_t>(next)];
  TimeNs clock = now_[fiber.env.proc_];
  char summary[160];
  if (wd.deadline_ns > 0 && clock > wd.deadline_ns) {
    std::snprintf(summary, sizeof summary,
                  "earliest runnable virtual clock %lld ns passed the deadline of "
                  "%lld ns",
                  static_cast<long long>(clock), static_cast<long long>(wd.deadline_ns));
    killing_ = true;
    kill_reason_ = "watchdog-deadline";
    kill_detail_ = BuildKillReport(*machine_, summary);
    return;
  }
  // Livelock budget, read straight from the machine's counters whether or not a
  // sampler is attached, so sampling never moves the trip.
  const MachineStats& stats = machine_->stats();
  const std::uint64_t traffic = stats.ownership_moves + stats.page_syncs;
  if (wd.move_budget > 0 && traffic > wd.move_budget) {
    std::snprintf(summary, sizeof summary,
                  "consistency traffic (ownership_moves + page_syncs = %llu) passed "
                  "the move budget of %llu",
                  static_cast<unsigned long long>(traffic),
                  static_cast<unsigned long long>(wd.move_budget));
    killing_ = true;
    kill_reason_ = "watchdog-livelock";
    kill_detail_ = BuildKillReport(*machine_, summary);
  }
}

void Runtime::Run(int num_threads, const Body& body) {
  ACE_CHECK(num_threads >= 1);
  ACE_CHECK_MSG(active_ == nullptr, "nested Runtime::Run is not supported");
  // Restore the per-host-thread dispatch state on every exit path. Without this an
  // exception escaping Run leaves the thread_local active_ dangling, corrupting the
  // next simulation the sweep pool schedules onto this host thread.
  struct DispatchStateGuard {
    Runtime* rt;
    ~DispatchStateGuard() {
      rt->current_ = -1;
      rt->body_ = nullptr;
      active_ = nullptr;
    }
  } guard{this};
  active_ = this;
  body_ = &body;
  fibers_.clear();
  now_ = machine_->clocks().now_data();
  live_count_ = num_threads;
  killing_ = false;
  kill_reason_.clear();
  kill_detail_.clear();
  fiber_exception_ = nullptr;
  hooks_armed_ = machine_->chaos() != nullptr || options_.sampler != nullptr ||
                 options_.watchdog.enabled();

  for (int i = 0; i < num_threads; ++i) {
    auto fiber = std::make_unique<Fiber>();
    fiber->env.runtime_ = this;
    fiber->env.tid_ = i;
    fiber->env.proc_ = static_cast<ProcId>(i % machine_->num_processors());
    // Left uninitialized: nothing reads a stack byte before writing it, and
    // zero-filling seven 256 KB stacks cost ~0.85 ms per Run(), mostly first-touch
    // page faults, which is several percent of a short simulation.
    fiber->stack = std::make_unique_for_overwrite<char[]>(kFiberStackBytes);
    fiber->seq = next_seq_++;
    fiber->migrate_epoch_ns = now_[fiber->env.proc_];
    fiber->ctx.Seed(fiber->stack.get(), kFiberStackBytes, &Runtime::FiberTrampoline);
    fibers_.push_back(std::move(fiber));
  }

  // One dispatch enters the fiber world; thereafter fibers dispatch each other
  // directly (MaybeYield / FiberTrampoline), and the last finisher switches back
  // here. The dispatch sequence — and thus every scheduling decision and counter —
  // is identical to a central pick-switch-return loop; the direct handoff just
  // halves the context switches executed per dispatch.
  DispatchNextFrom(&main_ctx_, -1);
  ACE_CHECK(live_count_ == 0);

  // Every fiber stack has been unwound; safe to surface what ended the run.
  if (fiber_exception_) {
    std::rethrow_exception(fiber_exception_);
  }
  if (killing_) {
    throw RunKilledError(kill_reason_, kill_detail_);
  }
}

}  // namespace ace
