#include "src/metrics/experiment.h"

#include "src/common/check.h"
#include "src/obs/sampler.h"
#include "src/trace/ref_trace.h"
#include "src/threads/watchdog.h"

namespace ace {

MachineConfig EffectiveConfig(const ExperimentOptions& options) {
  MachineConfig config = options.machine.config;
  if (options.gl_ratio > 0.0) {
    config.latency.global_fetch_ns =
        static_cast<TimeNs>(config.latency.local_fetch_ns * options.gl_ratio);
    config.latency.global_store_ns =
        static_cast<TimeNs>(config.latency.local_store_ns * options.gl_ratio);
  }
  return config;
}

PlacementRun RunOnMachine(App& app, Machine& machine, const ExperimentOptions& options) {
  LiveSampler* sampler = options.app.runtime.sampler;
  if (sampler != nullptr) {
    // One feed segment per run. Heat profiling feeds the sampler's hot-page and
    // policy-decision columns; it changes no counter, clock, or app result (the obs
    // equivalence tests prove it).
    machine.EnableHeat();
    sampler->SetSource(&Machine::LiveCaptureThunk, &machine);
    const Machine::Options& mo = machine.options();
    LiveRunMeta meta;
    meta.app = app.name();
    meta.policy = mo.policy.Name();
    meta.procs = mo.config.num_processors;
    meta.threads = options.app.num_threads;
    meta.pages = mo.config.global_pages;
    meta.page_size = mo.config.page_size;
    meta.seed = mo.fault_seed;
    meta.fault_plan = mo.fault_plan.Format();
    meta.tlb = machine.tlb_enabled();
    meta.tag = options.live_tag;
    sampler->BeginRun(std::move(meta));
  }

  PlacementRun run;
  try {
    run.app = app.Run(machine, options.app);
  } catch (const RunKilledError& e) {
    if (sampler != nullptr) {
      sampler->EndRun(e.reason());  // "watchdog-*" | "out-of-memory"
    }
    throw;
  } catch (...) {
    if (sampler != nullptr) {
      sampler->EndRun("exception");
    }
    throw;
  }
  if (sampler != nullptr) {
    sampler->EndRun(run.app.ok ? "ok" : "failed");
  }
  run.user_sec = static_cast<double>(machine.clocks().TotalUser()) * 1e-9;
  run.system_sec = static_cast<double>(machine.clocks().TotalSystem()) * 1e-9;
  run.stats = machine.stats();
  run.measured_alpha = machine.stats().MeasuredAlpha();
  run.pages_pinned = machine.stats().pages_pinned;
  run.tlb = machine.tlb_stats();
  if (const ReconsiderPolicy* reconsider = machine.reconsider_policy()) {
    run.unpin_events = reconsider->unpin_events();
  }
  return run;
}

PlacementRun RunPlacement(App& app, const ExperimentOptions& options) {
  Machine::Options mo = options.machine;
  mo.config = EffectiveConfig(options);
  Machine machine(mo);
  if (options.app.runtime.watchdog.enabled()) {
    machine.EnableTracing();
  }
  std::unique_ptr<RefTracer> tracer;
  if (options.estimate_optimal) {
    tracer = std::make_unique<RefTracer>(&machine);
    tracer->EnableEpochTracking();
  }
  PlacementRun run = RunOnMachine(app, machine, options);
  if (tracer != nullptr) {
    run.optimal = tracer->EstimateOptimal();
  }
  return run;
}

ExperimentResult RunExperiment(const std::string& app_name, const ExperimentOptions& options) {
  std::unique_ptr<App> app = CreateAppByName(app_name);
  ACE_CHECK_MSG(app != nullptr, "unknown application");

  ExperimentResult result;
  result.app_name = app_name;
  result.gl_ratio = app->ModelGL(EffectiveConfig(options).latency);

  // Tnuma: the automatic policy (the only run traced for the optimal estimate).
  result.numa = RunPlacement(*app, options);
  // Tglobal: all data pages in global memory.
  ExperimentOptions global = options;
  global.estimate_optimal = false;
  global.machine.policy = PolicySpec::AllGlobal();
  result.global = RunPlacement(*app, global);
  // Tlocal: one thread on a one-processor machine; with a single processor the
  // automatic policy never moves a page, so all data stays local.
  ExperimentOptions local = global;
  local.machine.policy = PolicySpec::MoveLimit(options.machine.policy.move_threshold);
  local.machine.config.num_processors = 1;
  local.app.num_threads = 1;
  result.local = RunPlacement(*app, local);

  result.model = SolveModel(result.numa.user_sec, result.global.user_sec,
                            result.local.user_sec, result.gl_ratio);
  return result;
}

}  // namespace ace
