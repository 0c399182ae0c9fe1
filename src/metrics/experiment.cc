#include "src/metrics/experiment.h"

#include "src/common/check.h"
#include "src/obs/sampler.h"
#include "src/trace/ref_trace.h"
#include "src/threads/watchdog.h"

namespace ace {

MachineConfig EffectiveConfig(const ExperimentOptions& options) {
  MachineConfig config = options.config;
  if (options.gl_ratio > 0.0) {
    config.latency.global_fetch_ns =
        static_cast<TimeNs>(config.latency.local_fetch_ns * options.gl_ratio);
    config.latency.global_store_ns =
        static_cast<TimeNs>(config.latency.local_store_ns * options.gl_ratio);
  }
  return config;
}

PlacementRun RunPlacement(App& app, const ExperimentOptions& options, PolicySpec policy,
                          int num_processors, int num_threads) {
  Machine::Options mo;
  mo.config = EffectiveConfig(options);
  mo.config.num_processors = num_processors;
  mo.policy = policy;
  mo.fault_plan = options.fault_plan;
  mo.fault_seed = options.fault_seed;
  mo.enable_tlb = options.enable_tlb;
  Machine machine(mo);
  if (options.watchdog.enabled()) {
    machine.observability().EnableTracing();
  }
  std::unique_ptr<RefTracer> tracer;
  if (options.estimate_optimal) {
    tracer = std::make_unique<RefTracer>(&machine);
    tracer->EnableEpochTracking();
  }

  AppConfig cfg;
  cfg.num_threads = num_threads;
  cfg.scale = options.scale;
  cfg.variant = options.variant;
  cfg.runtime.scheduler = options.scheduler;
  cfg.runtime.watchdog = options.watchdog;
  cfg.serving = options.serving;

  if (options.sampler != nullptr) {
    // One feed segment per placement run. Heat profiling feeds the sampler's
    // hot-page and policy-decision columns; it changes no counter, clock, or app
    // result (the obs equivalence tests prove it).
    machine.observability().EnableHeat();
    options.sampler->SetSource(&Machine::LiveCaptureThunk, &machine);
    LiveRunMeta meta;
    meta.app = app.name();
    meta.policy = policy.Name();
    meta.procs = num_processors;
    meta.threads = num_threads;
    meta.pages = mo.config.global_pages;
    meta.page_size = mo.config.page_size;
    meta.seed = options.fault_seed;
    meta.fault_plan = options.fault_plan.Format();
    meta.tlb = machine.tlb_enabled();
    meta.tag = options.live_tag;
    options.sampler->BeginRun(std::move(meta));
    cfg.runtime.sampler = options.sampler;
  }

  PlacementRun run;
  try {
    run.app = app.Run(machine, cfg);
  } catch (const RunKilledError& e) {
    if (options.sampler != nullptr) {
      options.sampler->EndRun(e.reason());  // "watchdog-deadline" | "watchdog-livelock"
    }
    throw;
  } catch (...) {
    if (options.sampler != nullptr) {
      options.sampler->EndRun("exception");
    }
    throw;
  }
  if (options.sampler != nullptr) {
    options.sampler->EndRun(run.app.ok ? "ok" : "failed");
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
  result.numa = RunPlacement(*app, options, options.policy, options.config.num_processors,
                             options.num_threads);
  ExperimentOptions untraced = options;
  untraced.estimate_optimal = false;
  // Tglobal: all data pages in global memory.
  result.global = RunPlacement(*app, untraced, PolicySpec::AllGlobal(),
                               options.config.num_processors, options.num_threads);
  // Tlocal: one thread on a one-processor machine; with a single processor the
  // automatic policy never moves a page, so all data stays local.
  result.local = RunPlacement(*app, untraced, PolicySpec::MoveLimit(options.policy.move_threshold),
                              /*num_processors=*/1, /*num_threads=*/1);

  result.model = SolveModel(result.numa.user_sec, result.global.user_sec,
                            result.local.user_sec, result.gl_ratio);
  return result;
}

}  // namespace ace
