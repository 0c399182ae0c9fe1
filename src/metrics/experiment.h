// The Table 3 / Table 4 experiment runner.
//
// Reproduces the paper's measurement procedure (section 3.1):
//   Tnuma   — total user time across all processors under the automatic policy;
//   Tglobal — total user time with a modified policy placing all data pages in global
//             memory;
//   Tlocal  — total user time of a single-threaded run on a single-processor system,
//             where all data is necessarily local;
//   Snuma / Sglobal — the corresponding total system times (Table 4).
// Alpha, beta, gamma are then derived with the analytic model.

#ifndef SRC_METRICS_EXPERIMENT_H_
#define SRC_METRICS_EXPERIMENT_H_

#include <memory>
#include <string>

#include "src/apps/app.h"
#include "src/machine/machine.h"
#include "src/metrics/model.h"
#include "src/trace/optimal.h"

namespace ace {

class LiveSampler;

struct ExperimentOptions {
  MachineConfig config;         // base machine (processor count = parallel runs)
  int num_threads = 7;          // worker threads for the numa/global runs
  double scale = 1.0;           // workload scale
  int variant = 0;              // app variant
  // The numa run's policy. The local run keeps move-limit at the same threshold
  // (on one processor no page ever moves).
  PolicySpec policy = PolicySpec::MoveLimit(4);
  SchedulerKind scheduler = SchedulerKind::kAffinity;
  // When > 0, scale the global-memory latencies to this ratio over the local ones
  // (the section 4.4 G/L sensitivity knob). 0 keeps the machine's default latencies.
  double gl_ratio = 0.0;
  // Deterministic fault injection for every placement run (empty = disarmed).
  FaultPlan fault_plan;
  std::uint64_t fault_seed = 0;
  // Software-TLB fast path (src/machine/tlb.h). Off-by-default nowhere: both
  // settings must produce byte-identical metrics; the refs_per_sec bench and the
  // differential equivalence suite run both ways through this knob. The ACE_TLB
  // environment variable still overrides at Machine construction.
  bool enable_tlb = true;
  // TLB stale-entry poison mode: -1 = build default (on under ACE_CHECK_INVARIANTS),
  // 0 = off, 1 = on. The refs_per_sec bench forces 0: verify re-resolves every hit
  // through the pmap, so leaving it on would measure the debug cross-check, not the
  // fast path.
  int tlb_verify = -1;
  // Hung-run limits for the runtime (disabled by default). When armed, event tracing
  // is enabled on the machine so a kill report can name the ping-ponging page and the
  // last trace events; tracing never changes virtual time, so metrics are unaffected.
  WatchdogLimits watchdog;
  // Live telemetry (src/obs/sampler.h). When set, every placement run becomes one
  // ace-live-v1 segment: RunPlacement binds the machine as the capture source, enables
  // heat profiling (the sampler's hot-page and decision columns), hooks the sampler
  // into the runtime's dispatch loop, and closes the segment with the run's outcome.
  // Not owned. Counters and app results are byte-identical with and without it.
  LiveSampler* sampler = nullptr;
  // Free-form label echoed as "tag" in each segment's meta (bench cell id, soak seed).
  std::string live_tag;
  // Serving-workload knobs, forwarded into AppConfig (ignored by the batch apps).
  ServingOptions serving;
  // Record per-page write epochs during the run and estimate the optimal placement
  // from them (section 3.1's Toptimal; src/trace/optimal.h). RunExperiment traces
  // only its numa run.
  bool estimate_optimal = false;
};

// The machine config `options` actually runs with: `config` with the G/L latency
// override applied (identity when gl_ratio is 0).
MachineConfig EffectiveConfig(const ExperimentOptions& options);

// One placement run of one application.
struct PlacementRun {
  double user_sec = 0.0;
  double system_sec = 0.0;
  AppResult app;
  MachineStats stats;
  double measured_alpha = 0.0;  // directly counted locality fraction
  std::uint64_t pages_pinned = 0;
  // Software-TLB fast-path counters (all zero when the TLB is disabled). These are
  // deterministic for a given source tree and config, like every MachineStats
  // counter, and prove in the bench output that the fast path actually engaged.
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_fills = 0;
  std::uint64_t tlb_shootdown_pages = 0;
  std::uint64_t tlb_batched_refs = 0;
  // Pins the reconsider policy let expire (0 under every other policy).
  std::uint64_t unpin_events = 0;
  // The optimal-placement estimate (set only with ExperimentOptions::estimate_optimal).
  OptimalEstimate optimal;
};

struct ExperimentResult {
  std::string app_name;
  PlacementRun numa;
  PlacementRun global;
  PlacementRun local;
  ModelParams model;  // derived from the three user times
  double gl_ratio = 2.0;

  bool AllOk() const { return numa.app.ok && global.app.ok && local.app.ok; }
};

// Run one application under one policy/machine combination.
PlacementRun RunPlacement(App& app, const ExperimentOptions& options, PolicySpec policy,
                          int num_processors, int num_threads);

// Run the full three-placement experiment for `app_name`.
ExperimentResult RunExperiment(const std::string& app_name, const ExperimentOptions& options);

}  // namespace ace

#endif  // SRC_METRICS_EXPERIMENT_H_
