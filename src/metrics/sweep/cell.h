// One cell of the experiment matrix.
//
// The paper's whole evaluation is a matrix — application × placement × policy knobs
// (Tables 3-5, the threshold and G/L sweeps, the section 4 ablations) — and every
// reproduced table is a view over the same cell shape. A cell names one (app, threads,
// scale, policy, G/L ratio, variant, page size, scheduler) combination; *running* it
// produces either the full three-placement experiment (Tnuma/Tglobal/Tlocal plus the
// derived model, as Tables 3/4 need) or just the NUMA placement (as the threshold
// sweep needs). Cells are independent and
// deterministic, which is what lets the sweep engine (runner.h) dispatch them onto a
// host-thread pool without changing any measured value.

#ifndef SRC_METRICS_SWEEP_CELL_H_
#define SRC_METRICS_SWEEP_CELL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/machine/machine.h"
#include "src/threads/runtime.h"

namespace ace {

// Sentinel move threshold meaning "never pin" (rendered as "inf" in keys/tables).
inline constexpr int kInfMoveThreshold = 1 << 30;

enum class CellMode {
  kFullExperiment,  // numa + global + local placements, model solved (Tables 3/4)
  kNumaOnly,        // the automatic-policy run alone (threshold-sweep style cells)
  // The serving workload under two policies — the cell's move-limit configuration
  // and the all-global baseline — scored on per-request latency: the app's own
  // metrics (request counts, p50/p95/p99 overall and per tenant) are emitted
  // unprefixed for the numa run and prefixed with kGlobalLegPrefix for the
  // all-global run, alongside t_numa/t_global and the usual counters. All
  // virtual-time-derived and exact.
  kServing,
  // The full experiment with the numa run traced (RefTracer epoch tracking): adds
  // section 3.1's Toptimal estimate as opt_* metrics (runner.h).
  kOptimal,
};

// Prefix of every metric of a serving cell's all-global leg ("g_requests"). A
// baseline gates such a metric at its unprefixed name's tolerance unless it lists
// the prefixed name itself (baseline.cc).
inline constexpr char kGlobalLegPrefix[] = "g_";

struct SweepCell {
  std::string app;
  int threads = 7;
  double scale = 1.0;
  // The numa run's policy. Its move threshold is always part of the key ("/mt4");
  // a kind other than move-limit appends "/<name>", and reconsider also its pin
  // lifetime ("/reconsider20ms").
  PolicySpec policy = PolicySpec::MoveLimit(4);
  // G/L latency ratio override; 0 = the machine's default latencies (~2.3 fetch).
  double gl_ratio = 0.0;
  CellMode mode = CellMode::kFullExperiment;
  // Application variant (AppConfig::variant); nonzero appends "/v<n>".
  int variant = 0;
  // Page size in bytes, at constant total memory: the base config's global and
  // per-processor local bytes. A size other than 4096 appends "/ps<bytes>".
  std::uint32_t page_size = 4096;
  // Thread scheduler; the migrating one appends "/migrating".
  SchedulerKind scheduler = SchedulerKind::kAffinity;
  // Deterministic fault-injection plan for this cell (src/inject grammar), normally
  // empty. Non-empty plans are part of the cell's identity (Key) — the same matrix
  // with and without injection must never collide in baselines.
  std::string fault_plan;
  std::uint64_t fault_seed = 0;
  // Serving-mode axes (kServing cells only; ignored — and left at defaults —
  // elsewhere). Part of the cell's identity so the sweep engine can matrix
  // tenants × skew × churn × policy.
  int tenants = 4;
  double zipf_skew = 0.9;
  int churn = 3;

  // Unique, human-readable identity: "FFT/t7/s1/mt4/gl0". Baseline comparison and
  // deduplication key cells by this string. Each axis above at a non-default value
  // appends its segment after "/gl"; a non-empty fault plan appends "/plan=<plan>"
  // (and "/fs<seed>" when seeded); a serving cell appends
  // "/serving/ten<T>/z<skew>/ch<phases>".
  std::string Key() const;
};

// The measured values of one executed cell. Metrics are kept as an ordered
// name/value list (not a struct) so serialization, baseline comparison, and future
// metrics stay generic; the order is fixed by the runner and deterministic.
// Undefined values (alpha for an app with no data references) are NaN and serialize
// as JSON null.
struct CellResult {
  SweepCell cell;
  bool ok = false;            // application self-verification across all placements
  std::string detail;         // verification detail of the numa run
  std::vector<std::pair<std::string, double>> metrics;

  // --- resilience bookkeeping (the run-resilience layer, runner.h) -------------------
  // Why the cell's run *died*, or empty if it ran to completion (ok reflects
  // verification, not survival): "watchdog-deadline", "watchdog-livelock" or
  // "exception". Dead cells carry no metrics.
  std::string failure_kind;
  std::string failure_detail;  // kill report / exception text

  // A cell that died (as opposed to completing with a verification verdict).
  bool died() const { return !failure_kind.empty(); }

  double MetricOr(const std::string& name, double fallback) const {
    for (const auto& [key, value] : metrics) {
      if (key == name) {
        return value;
      }
    }
    return fallback;
  }
};

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_CELL_H_
