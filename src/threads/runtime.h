// A deterministic C-Threads-like runtime over the simulated machine.
//
// The paper's applications are Mach C-Threads (or EPEX FORTRAN) programs; here they
// are C++ functions executed on fibers, one fiber per simulated thread. A single host
// thread runs everything: the scheduler always resumes the fiber whose processor has
// the smallest virtual clock (ties broken by dispatch sequence: the fiber that yielded
// least recently wins), so every run is bit-reproducible. A fiber keeps running without
// a context switch while its processor clock remains the minimum — the common case for
// page-local streaks.
//
// Scheduling policy mirrors paper section 4.7: the default binds each thread to a
// processor for its lifetime ("we modified the Mach scheduler to bind each newly
// created process to a processor"); the kMigrating mode models the original Mach
// scheduler where "processes mov[ed] between processors far too often", for the
// `ablations` suite's `/migrating` cells.

#ifndef SRC_THREADS_RUNTIME_H_
#define SRC_THREADS_RUNTIME_H_

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/machine/machine.h"
#include "src/threads/fiber_context.h"
#include "src/threads/watchdog.h"

namespace ace {

class LiveSampler;
class Runtime;

// Per-thread handle through which application code touches simulated memory. All
// loads/stores/atomics charge the thread's current processor and may context-switch.
class Env {
 public:
  std::uint32_t Load(VirtAddr va);
  void Store(VirtAddr va, std::uint32_t value);
  std::uint32_t TestAndSet(VirtAddr va, std::uint32_t new_value);
  std::uint32_t FetchAdd(VirtAddr va, std::uint32_t delta);
  std::uint32_t FetchOr(VirtAddr va, std::uint32_t bits);

  // Charge `ns` of pure computation (no memory reference).
  void Compute(TimeNs ns);

  // Voluntarily let other threads run if they are behind (no time charge).
  void Yield();

  // Move this thread to another processor (paper section 4.7's load-balancing future
  // work). With `move_pages`, the thread's local-writable pages are bulk-migrated to
  // the new home ("move their local pages with them"); without it they stay behind
  // and trickle over through faults — the comparison the LoadBalance ablation app
  // measures.
  void MigrateTo(ProcId new_proc, bool move_pages);

  int tid() const { return tid_; }
  ProcId proc() const { return proc_; }
  Runtime& runtime() { return *runtime_; }
  Machine& machine();
  Task& task();

 private:
  friend class Runtime;
  Runtime* runtime_ = nullptr;
  int tid_ = -1;
  ProcId proc_ = kNoProc;
};

enum class SchedulerKind {
  kAffinity = 0,   // bind thread i to processor (i % P) for its lifetime
  kMigrating = 1,  // move each thread to the next processor every quantum
};

class Runtime {
 public:
  struct Options {
    SchedulerKind scheduler = SchedulerKind::kAffinity;
    // Virtual-time quantum between forced migrations (kMigrating only).
    TimeNs migrate_quantum_ns = 2'000'000;
    // Timeslice used only when several threads share one processor.
    TimeNs timeslice_ns = 1'000'000;
    // Hung-run limits, checked once per dispatch, and only when the dispatch hooks
    // are armed (chaos, a sampler or a limit). Disabled by default: the checks are
    // two integer compares and change no scheduling decision, so the happy path
    // stays bit-identical. When a limit trips, Run() unwinds every fiber and
    // throws RunKilledError (see watchdog.h).
    WatchdogLimits watchdog;
    // Optional live-telemetry sampler (src/obs/sampler.h). Ticked once per dispatch
    // with the chosen fiber's virtual clock — the minimum runnable clock, which is
    // monotone nondecreasing. A pure observer: the watchdog reads the machine's
    // counters, not the samples. Not owned; one compare per dispatch when attached,
    // untouched code path when null.
    LiveSampler* sampler = nullptr;
  };

  Runtime(Machine* machine, Task* task, Options options);
  Runtime(Machine* machine, Task* task) : Runtime(machine, task, Options()) {}
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  using Body = std::function<void(int tid, Env& env)>;

  // Spawn `num_threads` fibers running `body` and run them to completion. Thread i
  // starts on processor (i % num_processors). Deterministic; returns when all threads
  // have finished.
  void Run(int num_threads, const Body& body);

  Machine& machine() { return *machine_; }
  Task& task() { return *task_; }

  // Dispatches performed since this runtime was constructed (scheduling fidelity
  // metric), including a fiber re-dispatched to itself with no stack switch: the
  // machine's `dispatches` counter (src/sim/stats.h) less its value at construction.
  std::uint64_t context_switches() const {
    return machine_->stats().dispatches - dispatches_at_start_;
  }
  std::uint64_t migrations() const { return migrations_; }

 private:
  friend class Env;

  struct Fiber {
    FiberContext ctx;
    std::unique_ptr<char[]> stack;
    Env env;
    bool finished = false;
    std::uint64_t seq = 0;         // dispatch sequence number (round-robin tie-break)
    TimeNs migrate_epoch_ns = 0;   // proc clock when the thread landed on this proc
  };

  static void FiberTrampoline();

  // Check watchdog limits before dispatching `next`; on a trip, record the kill
  // reason/diagnostics and flip killing_ so every fiber unwinds at its next Env op.
  void CheckWatchdog(int next);

  // Run the armed per-dispatch hooks for the picked fiber `next`: chaos transitions
  // and rehomes (each change of clocks re-picks and rewrites `deadline`), the live
  // sampler tick, then the watchdog check; neither of the last two moves a clock.
  // Returns the fiber to dispatch. Only called when hooks_armed_.
  int RunDispatchHooks(int next, TimeNs* deadline);

  // The dispatcher: pick the earliest runnable fiber, stamp the dispatch bookkeeping
  // (armed hooks, deadline, sequence counters) and switch to it directly from
  // `from` — fiber to fiber, with no intermediate hop through a scheduler context.
  // When the chosen fiber is `self` (the caller re-earning the CPU after a voluntary
  // yield) the dispatch is counted but no stack switch happens. Exactly one dispatch
  // is performed per call, preserving the dispatch sequence — and the `dispatches`
  // count — of a central scheduler loop.
  void DispatchNextFrom(FiberContext* from, int self);

  // Called by Env after every time-advancing operation: switch to the scheduler if
  // this thread's processor clock is no longer the minimum.
  void MaybeYield(Env& env, bool voluntary);

  // One pass over the fibers: return the next fiber to dispatch (-1 if none runnable)
  // and store its deadline — the smallest clock among the *other* runnable fibers,
  // where a fiber sharing the chosen fiber's processor counts as that clock plus a
  // timeslice — or -1 when no other fiber is runnable.
  int PickWithDeadline(TimeNs* deadline) const;
  // Move every unfinished fiber whose processor died (kill-node chaos) to the
  // surviving processor with the smallest clock. Returns true when any fiber moved
  // (the caller re-picks). Only ever called when the machine's recovery manager
  // reports dead nodes.
  bool RehomeDeadNodeFibers();
  // The one fiber move, shared by Env::MigrateTo, the kMigrating rotation and the
  // dead-node rehome: idle-pad the destination up to the fiber's clock, migrate the
  // fiber's local-writable pages along when `move_pages`, rebind, restart the
  // migration epoch and count the migration.
  void MoveFiber(Fiber& fiber, ProcId to, bool move_pages);
  // `proc`, or the next processor after it that kill-node chaos has not taken.
  ProcId LiveProcFrom(ProcId proc) const;

  Machine* machine_;
  Task* task_;
  Options options_;

  std::vector<std::unique_ptr<Fiber>> fibers_;
  // The machine's per-processor clocks (ProcClocks::now_data), taken once per Run():
  // every clock read in the runtime is one indexed load through it.
  const TimeNs* now_ = nullptr;
  FiberContext main_ctx_;  // Run()'s own context; resumed when the last fiber exits
  int current_ = -1;
  TimeNs current_deadline_ = 0;
  int live_count_ = 0;
  std::uint64_t next_seq_ = 0;
  const Body* body_ = nullptr;
  // Any of chaos, the live sampler or a watchdog limit is attached. Fixed for the
  // whole of a Run(), so an unarmed run's dispatch skips all three with one branch.
  bool hooks_armed_ = false;

  std::uint64_t dispatches_at_start_ = 0;
  std::uint64_t migrations_ = 0;

  // Kill state: set once (by the watchdog or by a fiber's escaped exception), then
  // every fiber throws an internal unwind exception at its next Env operation. Run()
  // rethrows once all fibers have finished.
  bool killing_ = false;
  std::string kill_reason_;
  std::string kill_detail_;
  std::exception_ptr fiber_exception_;

  // Thread-local so independent simulations may run concurrently on host threads
  // (the sweep engine, src/metrics/sweep); a runtime never spans host threads.
  static thread_local Runtime* active_;
};

}  // namespace ace

#endif  // SRC_THREADS_RUNTIME_H_
