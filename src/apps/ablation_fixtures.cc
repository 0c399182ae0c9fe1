// The bespoke workloads of the section 4 ablations (the `ablations` sweep suite and
// its render views). Like resilience_fixtures.cc, each is resolvable through
// CreateAppByName — so a sweep cell or `ace_run --app` can name it — but kept out of
// AllAppFactories: none belongs to Table 3, the smoke suite or the soak. Each
// verifies its result through simulated memory, as the App contract requires, and
// `variant` selects the configuration a view row compares.
//
//   PhaseChange (section 4.3) — pages are writably shared during a short setup phase
//       (and get pinned), then each page is used by exactly one thread for a long
//       steady state. Thread 0 doubles as the reconsideration daemon, dropping the
//       mappings of global pages every 20 passes so the policy is re-consulted (the
//       pageout analogue the paper mentions: pinned pages never fault on their own).
//       Move-limit leaves the pages global forever; reconsider unpins them.
//   UnixMaster (section 4.6) — a purely private workload in which `variant % 100`
//       percent of iterations trap to the Unix master (processor 0). Below 100 the
//       master reads and writes the caller's private buffer (copyin/copyout, the
//       original Mach behaviour); from 100 up it does not (the paper's ad hoc fix).
//   LoadBalance (section 4.7) — one compute-bound job with a 24-page working set,
//       bounced between processors by a load balancer 6 times. Variant 0 stays,
//       1 moves the thread only (its pages trickle over by fault), 2 moves the
//       thread and its local pages with it (the paper's proposal).
//   RemoteMix (section 4.4) — one writably-shared page referenced by processors 0
//       and 1; `variant` percent of the references come from processor 0, which the
//       remote-home policy makes the page's home.

#include <vector>

#include "src/apps/app.h"
#include "src/threads/sim_span.h"
#include "src/threads/sync.h"

namespace ace {
namespace {

AppResult Verdict(bool ok, std::uint64_t work_units, const std::string& what) {
  AppResult result;
  result.ok = ok;
  result.work_units = work_units;
  result.detail = what + (ok ? " ok" : " MISMATCH");
  return result;
}

class PhaseChange : public App {
 public:
  const char* name() const override { return "PhaseChange"; }

  AppResult Run(Machine& machine, const AppConfig& config) override {
    const int n = config.num_threads;
    Task* task = machine.CreateTask("phase-change");
    const std::uint32_t page_words = machine.page_size() / kWordBytes;
    const auto pages = static_cast<std::uint32_t>(2 * n);
    VirtAddr data_va =
        task->MapAnonymous("data", static_cast<std::uint64_t>(pages) * machine.page_size());
    VirtAddr bar_va = task->MapAnonymous("barrier", machine.page_size());
    Barrier barrier(bar_va, n);

    Runtime rt(&machine, task, config.runtime);
    rt.Run(n, [&](int tid, Env& env) {
      std::uint32_t sense = 0;
      SimSpan<std::uint32_t> data(env, data_va, static_cast<std::size_t>(pages) * page_words);
      // Setup: every page gets a word from several threads -> writably shared, pinned.
      for (std::uint32_t round = 0; round < kSetupRounds; ++round) {
        for (std::uint32_t p = 0; p < pages; ++p) {
          if ((p + round) % static_cast<std::uint32_t>(n) == static_cast<std::uint32_t>(tid)) {
            data[static_cast<std::size_t>(p) * page_words + round] = tid + 1;
          }
        }
      }
      barrier.Wait(env, &sense);

      // Steady state: each thread reads and writes only its own two pages.
      std::uint32_t my_first = static_cast<std::uint32_t>(tid) * 2;
      for (int pass = 0; pass < kPasses; ++pass) {
        if (tid == 0 && pass % 20 == 19) {
          machine.ReexamineGlobalPages(env.proc());
        }
        for (std::uint32_t p = my_first; p < my_first + 2; ++p) {
          for (std::uint32_t w = 8; w < page_words; w += 16) {
            std::size_t idx = static_cast<std::size_t>(p) * page_words + w;
            data[idx] = data.Get(idx) + 1;
          }
        }
      }
    });

    bool ok = true;
    for (std::uint32_t p = 0; p < pages; ++p) {
      VirtAddr page_va = data_va + static_cast<VirtAddr>(p) * machine.page_size();
      for (std::uint32_t round = 0; round < kSetupRounds; ++round) {
        ok = ok && machine.DebugRead(*task, page_va + round * kWordBytes) ==
                       (p + round) % static_cast<std::uint32_t>(n) + 1;
      }
      for (std::uint32_t w = 8; w < page_words; w += 16) {
        ok = ok && machine.DebugRead(*task, page_va + w * kWordBytes) ==
                       static_cast<std::uint32_t>(kPasses);
      }
    }
    return Verdict(ok, pages, "pages=" + std::to_string(pages));
  }

 private:
  static constexpr std::uint32_t kSetupRounds = 6;
  static constexpr int kPasses = 120;
};

class UnixMaster : public App {
 public:
  const char* name() const override { return "UnixMaster"; }

  AppResult Run(Machine& machine, const AppConfig& config) override {
    const int n = config.num_threads;
    const int syscall_percent = config.variant % 100;
    const bool master_touches_user = config.variant < 100;
    Task* task = machine.CreateTask("workload");
    VirtAddr priv = task->MapAnonymous("private-buffers",
                                       static_cast<std::uint64_t>(n) * machine.page_size());
    // Host shadow of word 1, the one the master's copyout overwrites.
    std::vector<std::uint32_t> expect_word1(static_cast<std::size_t>(n), 0);

    Runtime rt(&machine, task, config.runtime);
    rt.Run(n, [&](int tid, Env& env) {
      VirtAddr mine = priv + static_cast<VirtAddr>(tid) * machine.page_size();
      SimSpan<std::uint32_t> buf(env, mine, kWordsPerThread);
      std::uint32_t& word1 = expect_word1[static_cast<std::size_t>(tid)];
      for (int i = 0; i < kIterations; ++i) {
        for (int w = 0; w < kWordsPerThread; ++w) {
          buf[static_cast<std::size_t>(w)] = buf.Get(static_cast<std::size_t>(w)) + 1;
        }
        ++word1;
        env.Compute(20'000);
        if (syscall_percent > 0 && i % 100 < syscall_percent) {
          // Trap to the Unix master (processor 0): kernel work plus — unless fixed —
          // copyin/copyout of the caller's user structure from the master processor.
          machine.Compute(0, 15'000);
          if (master_touches_user && env.proc() != 0) {
            std::uint32_t v = machine.LoadWord(*task, 0, mine);
            machine.StoreWord(*task, 0, mine + kWordBytes, v + 1);
            word1 = static_cast<std::uint32_t>(i) + 2;
          }
        }
      }
    });

    bool ok = true;
    for (int tid = 0; tid < n; ++tid) {
      VirtAddr mine = priv + static_cast<VirtAddr>(tid) * machine.page_size();
      for (int w = 0; w < kWordsPerThread; ++w) {
        std::uint32_t want = w == 1 ? expect_word1[static_cast<std::size_t>(tid)]
                                    : static_cast<std::uint32_t>(kIterations);
        ok = ok && machine.DebugRead(*task, mine + static_cast<VirtAddr>(w) * kWordBytes) == want;
      }
    }
    return Verdict(ok, static_cast<std::uint64_t>(n) * kIterations,
                   "syscalls=" + std::to_string(syscall_percent) + "%" +
                       (master_touches_user ? "" : " fixed"));
  }

 private:
  static constexpr int kIterations = 400;
  static constexpr int kWordsPerThread = 64;
};

class LoadBalance : public App {
 public:
  const char* name() const override { return "LoadBalance"; }

  AppResult Run(Machine& machine, const AppConfig& config) override {
    const int strategy = config.variant;  // 0 stay, 1 move thread, 2 move thread+pages
    Task* task = machine.CreateTask("job");
    const std::uint32_t words = kPagesWorkingSet * (machine.page_size() / kWordBytes);
    VirtAddr data = task->MapAnonymous(
        "working-set", static_cast<std::uint64_t>(kPagesWorkingSet) * machine.page_size());

    Runtime rt(&machine, task, config.runtime);
    rt.Run(1, [&](int, Env& env) {
      SimSpan<std::uint32_t> a(env, data, words);
      for (int epoch = 0; epoch <= kRebalances; ++epoch) {
        for (int i = 0; i < kPassesPerEpoch; ++i) {
          for (std::uint32_t w = 0; w < words; w += 8) {
            a[w] = a.Get(w) + 1;
          }
        }
        if (strategy != 0 && epoch < kRebalances) {
          // The load balancer bounces the job to the next processor.
          env.MigrateTo((env.proc() + 1) % machine.num_processors(),
                        /*move_pages=*/strategy == 2);
        }
      }
    });

    bool ok = true;
    for (std::uint32_t w = 0; w < words; w += 8) {
      ok = ok && machine.DebugRead(*task, data + static_cast<VirtAddr>(w) * kWordBytes) ==
                     static_cast<std::uint32_t>((kRebalances + 1) * kPassesPerEpoch);
    }
    return Verdict(ok, words / 8, "strategy=" + std::to_string(strategy));
  }

 private:
  static constexpr std::uint32_t kPagesWorkingSet = 24;
  static constexpr int kRebalances = 6;
  static constexpr int kPassesPerEpoch = 3;
};

class RemoteMix : public App {
 public:
  const char* name() const override { return "RemoteMix"; }

  AppResult Run(Machine& machine, const AppConfig& config) override {
    const int heavy_percent = config.variant;
    const ProcId light = 1 % machine.num_processors();
    Task* task = machine.CreateTask("t");
    VirtAddr va = task->MapAnonymous("shared", machine.page_size());
    for (int i = 0; i < 10; ++i) {
      // Both policies give up on pure-local placement.
      machine.StoreWord(*task, i % 2 == 0 ? 0 : light, va, 1);
    }
    bool ok = true;
    std::uint32_t last = 1;
    for (int i = 0; i < kRefs; ++i) {
      ProcId proc = i % 100 < heavy_percent ? 0 : light;
      if (i % 2 == 0) {
        last = static_cast<std::uint32_t>(i);
        machine.StoreWord(*task, proc, va, last);
      } else {
        ok = ok && machine.LoadWord(*task, proc, va) == last;
      }
    }
    ok = ok && machine.DebugRead(*task, va) == last;
    return Verdict(ok, kRefs, "home-refs=" + std::to_string(heavy_percent) + "%");
  }

 private:
  static constexpr int kRefs = 4000;
};

}  // namespace

std::unique_ptr<App> CreatePhaseChange() { return std::make_unique<PhaseChange>(); }
std::unique_ptr<App> CreateUnixMaster() { return std::make_unique<UnixMaster>(); }
std::unique_ptr<App> CreateLoadBalance() { return std::make_unique<LoadBalance>(); }
std::unique_ptr<App> CreateRemoteMix() { return std::make_unique<RemoteMix>(); }

}  // namespace ace
