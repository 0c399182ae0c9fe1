// The Table 3 / Table 4 experiment runner.
//
// Reproduces the paper's measurement procedure (section 3.1):
//   Tnuma   — total user time across all processors under the automatic policy;
//   Tglobal — total user time with a modified policy placing all data pages in global
//             memory;
//   Tlocal  — total user time of a single-threaded run on a single-processor system,
//             where all data is necessarily local;
//   Snuma / Sglobal — the corresponding total system times (Table 4).
// Alpha, beta, gamma are then derived with the analytic model. The three runs are one
// program on one machine configuration and differ only in placement.
//
// It is also the one run path of the tools: RunOnMachine runs an app on a machine the
// caller built and checks the finished run (CheckRunIdentities). The sweep runner,
// `ace_run --experiment` and ace_soak reach it through RunPlacement; ace_run's single
// run builds its machine from ExperimentOptions::machine, attaches its own observers,
// and calls it directly.

#ifndef SRC_METRICS_EXPERIMENT_H_
#define SRC_METRICS_EXPERIMENT_H_

#include <memory>
#include <string>

#include "src/apps/app.h"
#include "src/machine/machine.h"
#include "src/metrics/model.h"
#include "src/trace/optimal.h"

namespace ace {

// One placement run's setup, and the numa run's for RunExperiment. Everything a
// machine or an application takes is set on their own option structs; the fields
// after them are the experiment's own.
struct ExperimentOptions {
  // The machine: config (its processor count is the parallel runs'), the numa run's
  // policy, fault plan and seed, pager and software TLB. RunExperiment derives the
  // global run (all-global policy) and the local run (one processor, move-limit at
  // the same threshold) from it.
  Machine::Options machine;
  // The workload and its runtime: threads, scale, variant, serving knobs, scheduler,
  // watchdog and live sampler. When `app.runtime.sampler` is set, every placement
  // run becomes one ace-live-v1 segment (RunOnMachine opens and closes it); the
  // sampler is not owned. Under RunPlacement a watchdog limit also enables event
  // tracing, so a kill report can name the ping-ponging page; tracing never changes
  // virtual time.
  AppConfig app;
  // When > 0, scale the global-memory latencies to this ratio over the local ones
  // (the section 4.4 G/L sensitivity knob). 0 keeps the machine's default latencies.
  double gl_ratio = 0.0;
  // Free-form label echoed as "tag" in each segment's meta (bench cell id, soak seed).
  std::string live_tag;
  // Record per-page write epochs during the run and estimate the optimal placement
  // from them (section 3.1's Toptimal; src/trace/optimal.h). RunExperiment traces
  // only its numa run.
  bool estimate_optimal = false;
};

// The machine config `options` actually runs with: `machine.config` with the G/L
// latency override applied (identity when gl_ratio is 0).
MachineConfig EffectiveConfig(const ExperimentOptions& options);

// One placement run of one application.
struct PlacementRun {
  double user_sec = 0.0;
  double system_sec = 0.0;
  AppResult app;
  MachineStats stats;  // the measured locality fraction is stats.MeasuredAlpha()
  // The machine's software-TLB counters (all zero when the TLB is disabled);
  // deterministic for a given source tree and config, like every MachineStats counter.
  TlbStats tlb;
  // Pins the reconsider policy let expire (0 under every other policy).
  std::uint64_t unpin_events = 0;
  // The optimal-placement estimate (set only with ExperimentOptions::estimate_optimal).
  OptimalEstimate optimal;
  // The heat profile's locality fraction (set only when heat profiling was attached);
  // CheckRunIdentities requires it to equal stats.MeasuredAlpha().
  double heat_alpha = 0.0;
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

// Run `app` once on `machine`, which the caller built from `options.machine` and
// may have attached observers to. This is the one place a run binds the live
// sampler: it opens a segment described by the machine's own options (the plan in
// its canonical FaultPlan::Format() text), closes it with the run's outcome on every
// exit, exceptions included, and reads back times, stats, TLB counters and unpins.
// Every run that returns has passed CheckRunIdentities; a run that ends
// out-of-memory has passed VerifyAllInvariants before the kill is rethrown.
PlacementRun RunOnMachine(App& app, Machine& machine, const ExperimentOptions& options);

// The run-level checks, made once per run by RunOnMachine after the app returns.
// What is armed is read from `machine` itself (its fault plan, TLB switch, heat
// profile and subsystems), and the counters from `run`:
//   * VerifyAllInvariants (an ACE_CHECK abort on violation, in invariant builds);
//   * page_syncs <= page_copies + zero_fills, and pageins <= pageouts with a pager;
//   * measured alpha in [0, 1], and equal to the heat profile's when one is attached;
//   * TLB fills <= misses, and a disabled TLB stays cold;
//   * an empty plan builds no fault injector and moves no degraded counter, a
//     chaos-free plan no chaos controller, chaos counter or SLO counter, and a plan
//     without a permanent failure no replica or recovery manager or durability
//     counter;
//   * on plans with a permanent failure, journal_bytes >= replicated_pages *
//     page_size and checksum_failures <= recovered_pages + lost_pages.
// A broken identity throws RunKilledError("identity-violated") whose diagnostics
// name the identity and both its sides.
void CheckRunIdentities(Machine& machine, const PlacementRun& run);

// Build the machine `options` describe (with the G/L override), arm its watchdog
// tracing and the optimal-placement tracer, and RunOnMachine.
PlacementRun RunPlacement(App& app, const ExperimentOptions& options);

// Run the full three-placement experiment for `app_name`.
ExperimentResult RunExperiment(const std::string& app_name, const ExperimentOptions& options);

}  // namespace ace

#endif  // SRC_METRICS_EXPERIMENT_H_
