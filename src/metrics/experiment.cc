#include "src/metrics/experiment.h"

#include <cmath>
#include <cstdio>

#include "src/common/check.h"
#include "src/common/run_killed.h"
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
    run.user_sec = static_cast<double>(machine.clocks().TotalUser()) * 1e-9;
    run.system_sec = static_cast<double>(machine.clocks().TotalSystem()) * 1e-9;
    run.stats = machine.stats();
    run.tlb = machine.tlb_stats();
    if (const ReconsiderPolicy* reconsider = machine.reconsider_policy()) {
      run.unpin_events = reconsider->unpin_events();
    }
    if (machine.observability().heat_on()) {
      run.heat_alpha = machine.observability().heat().AggregateAlpha();
    }
    CheckRunIdentities(machine, run);
  } catch (const RunKilledError& e) {
    if (e.reason() == "out-of-memory") {
      // The pool ran dry mid-run, but what the protocol had done must still hold.
      machine.numa_manager().VerifyAllInvariants();
    }
    if (sampler != nullptr) {
      sampler->EndRun(e.reason());  // "watchdog-*" | "out-of-memory" | "identity-violated"
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
  return run;
}

namespace {

// Throws the identity-violated kill when `holds` is false, naming the identity and
// its two sides.
void Require(bool holds, const char* identity, std::uint64_t lhs, std::uint64_t rhs) {
  if (!holds) {
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s (%llu vs %llu)", identity,
                  static_cast<unsigned long long>(lhs), static_cast<unsigned long long>(rhs));
    throw RunKilledError("identity-violated", buf);
  }
}

void RequireAlpha(bool holds, const char* identity, double lhs, double rhs) {
  if (!holds) {
    char buf[192];
    std::snprintf(buf, sizeof buf, "%s (%.9f vs %.9f)", identity, lhs, rhs);
    throw RunKilledError("identity-violated", buf);
  }
}

}  // namespace

void CheckRunIdentities(Machine& machine, const PlacementRun& run) {
  machine.numa_manager().VerifyAllInvariants();

  const MachineStats& s = run.stats;
  // Every synced copy was created by a replication or a zero-fill.
  Require(s.page_syncs <= s.page_copies + s.zero_fills, "page_syncs <= page_copies + zero_fills",
          s.page_syncs, s.page_copies + s.zero_fills);
  if (const AcePager* pager = machine.pager()) {
    Require(pager->stats().pageins <= pager->stats().pageouts, "pageins <= pageouts",
            pager->stats().pageins, pager->stats().pageouts);
  }
  const double alpha = s.MeasuredAlpha();
  RequireAlpha(alpha >= 0.0 && alpha <= 1.0, "0 <= measured alpha <= 1", alpha, 1.0);
  if (machine.observability().heat_on()) {
    // The heat profile records references at the same point as MachineStats, so the
    // two locality fractions agree to double precision.
    RequireAlpha(std::fabs(run.heat_alpha - alpha) <= 1e-9, "heat alpha == measured alpha",
                 run.heat_alpha, alpha);
  }

  const TlbStats& t = run.tlb;
  if (machine.tlb_enabled()) {
    // Every fill follows a miss, with or without injected faults in the resolve path.
    Require(t.fills <= t.misses, "tlb fills <= tlb misses", t.fills, t.misses);
  } else {
    Require(t.hits + t.misses + t.fills == 0, "disabled TLB stays cold",
            t.hits + t.misses + t.fills, 0);
  }

  // Injection, chaos and durability are zero-cost when the plan leaves them unarmed:
  // no manager is built and no counter of their group moves.
  const FaultPlan& plan = machine.options().fault_plan;
  if (plan.empty()) {
    std::uint64_t degraded = CounterGroupTotal(s, kDegradedCounters);
    Require(degraded == 0 && machine.fault_injector() == nullptr,
            "an empty plan builds no injector and degrades nothing", degraded, 0);
  }
  if (plan.chaos.empty()) {
    std::uint64_t chaos = CounterGroupTotal(s, kChaosCounters);
    Require(chaos == 0 && machine.chaos() == nullptr,
            "a chaos-free plan builds no controller and keeps chaos counters zero", chaos, 0);
    // The serving app arms its deadline, retry and shed guard only under chaos.
    std::uint64_t slo = CounterGroupTotal(s, kSloCounters);
    Require(slo == 0, "a chaos-free plan keeps SLO counters zero", slo, 0);
  }
  if (!plan.has_durable_chaos()) {
    std::uint64_t durability = CounterGroupTotal(s, kDurabilityCounters);
    Require(durability == 0 && machine.replica_manager() == nullptr &&
                machine.recovery() == nullptr,
            "a plan without a permanent failure builds no replica or recovery manager and "
            "keeps durability counters zero",
            durability, 0);
  } else {
    // Every journal opens with a full-frame mirror write before any word-sized
    // appends, so the byte count can never undercut the open count.
    Require(s.journal_bytes >= s.replicated_pages * machine.page_size(),
            "journal_bytes >= replicated_pages * page_size", s.journal_bytes,
            s.replicated_pages * machine.page_size());
    // Every detected corruption ends in a repair or an accounted loss; kills add
    // recoveries and losses of their own, so detection can never exceed the sum.
    Require(s.checksum_failures <= s.recovered_pages + s.lost_pages,
            "checksum_failures <= recovered_pages + lost_pages", s.checksum_failures,
            s.recovered_pages + s.lost_pages);
  }
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
