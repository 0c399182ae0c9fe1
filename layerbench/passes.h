// Workloads and timed passes of the layered host-time benchmark.
//
// A pass is one complete App::Run on a freshly constructed Machine: construction is
// timed as set-up, the run as the pass wall. Every pass leaves a simulated outcome
// (the app's own result, every MachineStats field, the TLB counter group and the
// virtual clocks) that is a pure function of the workload, so each pass is compared
// with the first one of its kind and any difference counts as a failed pass.

#ifndef LAYERBENCH_PASSES_H_
#define LAYERBENCH_PASSES_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/app.h"
#include "src/machine/machine.h"

namespace layerbench {

// Host wall clock, in nanoseconds since an arbitrary epoch.
inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Median of a non-empty sample (mean of the middle pair for even sizes).
inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// In-memory span log: name, start and duration, printed when the benchmark ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = 0;
  };

  void Add(std::string name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({std::move(name), start_ns - origin_ns_, end_ns - start_ns});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::int64_t origin_ns_ = NowNs();
  std::vector<Span> spans_;
};

struct WorkloadSpec {
  const char* name;
  const char* app;     // CreateAppByName key
  double scale;
  int move_threshold;
  bool serving;        // scored per request instead of per pass
};

// The benchmark's workloads, or nullptr for an unknown name.
const WorkloadSpec* FindWorkload(const std::string& name);

// 7 processors, 4 KiB pages, 4096 global pages, move-limit policy at the workload's
// threshold, TLB on, TLB poison cross-check off.
ace::Machine::Options MachineOptionsFor(const WorkloadSpec& spec);
ace::AppConfig AppConfigFor(const WorkloadSpec& spec, std::uint64_t serving_seed);

// Counts references issued by a different processor than the previous reference:
// a lower bound on fiber dispatches that switched stacks. Attaching it forces the
// machine's per-reference recording path.
struct SwitchCounter {
  ace::ProcId last = ace::kNoProc;
  std::uint64_t switches = 0;

  static void Observe(void* ctx, ace::ProcId proc, ace::VirtAddr, ace::AccessKind,
                      ace::MemoryClass) {
    auto* self = static_cast<SwitchCounter*>(ctx);
    if (proc != self->last) {
      self->switches += self->last != ace::kNoProc;
      self->last = proc;
    }
  }
};

struct PassOutcome {
  // Host side.
  double setup_s = 0;
  double wall_s = 0;
  // Simulated side: identical on every pass of one workload and mode.
  ace::AppResult result;
  ace::MachineStats stats;
  ace::TlbStats tlb;
  std::vector<ace::TimeNs> proc_now;
  ace::TimeNs total_user_ns = 0;
  ace::TimeNs total_system_ns = 0;

  std::uint64_t Refs() const { return stats.TotalRefs().Total(); }
  // The app-reported metric `key`, or 0 when the app does not report it.
  double AppMetric(const std::string& key) const;
  // Virtual time at which the last processor finished, in ns.
  ace::TimeNs MakespanNs() const;
};

// Construct the machine and app, run one pass and collect its outcome. With a
// non-null `counter`, the counter observes every reference of the run; a non-null
// `spans` records the set-up and the pass.
PassOutcome RunPass(const WorkloadSpec& spec, const ace::AppConfig& config,
                    SwitchCounter* counter, SpanLog* spans);

// Empty when `b` reproduces `a` exactly; otherwise names the first difference.
// `with_tlb` also compares the TLB counter group, whose batching counters
// legitimately differ between observed and unobserved passes.
std::string SimulationDiff(const PassOutcome& a, const PassOutcome& b, bool with_tlb);

}  // namespace layerbench

#endif  // LAYERBENCH_PASSES_H_
