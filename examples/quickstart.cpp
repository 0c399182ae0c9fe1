// Quickstart: build a simulated ACE, run parallel threads on it, and watch the
// automatic NUMA page placement at work.
//
//   cmake -B build -G Ninja && cmake --build build && ./build/examples/quickstart

#include <cstdio>

#include "src/machine/machine.h"
#include "src/threads/runtime.h"
#include "src/threads/sim_span.h"
#include "src/threads/sync.h"

int main() {
  // 1. Boot a machine: 4 processors, the paper's default move-limit policy
  //    (replicate read-only pages, migrate written pages, pin after 4 moves).
  ace::Machine::Options options;
  options.config.num_processors = 4;
  ace::Machine machine(options);

  // 2. Create an address space and map three regions.
  ace::Task* task = machine.CreateTask("quickstart");
  ace::VirtAddr input = task->MapAnonymous("input", 64 * 1024);    // read-mostly
  ace::VirtAddr partial = task->MapAnonymous("partial", 4096);     // per-thread slots
  ace::VirtAddr counter = task->MapAnonymous("counter", 4096);     // writably shared
  ace::VirtAddr bar = task->MapAnonymous("barrier", 4096);

  // 3. Run four threads: fill the input once, then have everyone read it while
  //    hammering a shared counter.
  constexpr int kWords = 16 * 1024;
  ace::Runtime runtime(&machine, task);
  ace::Barrier barrier(bar, 4);
  runtime.Run(4, [&](int tid, ace::Env& env) {
    std::uint32_t sense = 0;
    ace::SimSpan<std::uint32_t> in(env, input, kWords);
    if (tid == 0) {
      for (int i = 0; i < kWords; ++i) {
        in[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(i * 3 + 1);
      }
    }
    barrier.Wait(env, &sense);

    std::uint32_t sum = 0;
    for (int i = tid; i < kWords; i += 4) {
      sum += in.Get(static_cast<std::size_t>(i));  // replicated -> local fetches
    }
    ace::SimSpan<std::uint32_t> out(env, partial, 16);
    out[static_cast<std::size_t>(tid)] = sum;     // one writer -> stays local
    for (int i = 0; i < 64; ++i) {
      env.FetchAdd(counter, 1);                   // many writers -> pinned global
    }
  });

  // 4. Inspect what the placement machinery did.
  const ace::MachineStats& stats = machine.stats();
  std::printf("page faults:        %llu\n", (unsigned long long)stats.page_faults);
  std::printf("pages replicated:   %llu copies\n", (unsigned long long)stats.page_copies);
  std::printf("ownership moves:    %llu\n", (unsigned long long)stats.ownership_moves);
  std::printf("pages pinned:       %llu\n", (unsigned long long)stats.pages_pinned);
  std::printf("local ref fraction: %.3f\n", stats.MeasuredAlpha());

  const ace::NumaPageInfo& input_page = machine.PageInfoFor(*task, input);
  const ace::NumaPageInfo& counter_page = machine.PageInfoFor(*task, counter);
  std::printf("\ninput page state:   %s with %d local copies (replicated read-only)\n",
              ace::PageStateName(input_page.state), input_page.copies.Count());
  std::printf("counter page state: %s (writably shared -> pinned in global memory)\n",
              ace::PageStateName(counter_page.state));

  std::printf("\ntotal user time:    %.3f ms across %d processors\n",
              machine.clocks().TotalUser() * 1e-6, machine.num_processors());
  std::printf("total system time:  %.3f ms (fault handling + page movement)\n",
              machine.clocks().TotalSystem() * 1e-6);
  const std::uint32_t value = machine.DebugRead(*task, counter);
  std::printf("counter value:      %u (expected %u)\n", value, 4u * 64u);
  return value == 4u * 64u ? 0 : 1;
}
