#include "src/metrics/sweep/runner.h"

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <memory>

#include "src/apps/app.h"
#include "src/common/check.h"
#include "src/metrics/experiment.h"
#include "src/metrics/sweep/pool.h"

namespace ace {

namespace {

double NanIfUndefined(bool defined, double value) {
  return defined ? value : std::nan("");
}

void AppendRunCounters(const char* prefix, const PlacementRun& run,
                       std::vector<std::pair<std::string, double>>& metrics) {
  const MachineStats& s = run.stats;
  std::string p = prefix;
  metrics.emplace_back(p + "pages_pinned", static_cast<double>(s.pages_pinned));
  metrics.emplace_back(p + "page_faults", static_cast<double>(s.page_faults));
  metrics.emplace_back(p + "page_copies", static_cast<double>(s.page_copies));
  metrics.emplace_back(p + "page_syncs", static_cast<double>(s.page_syncs));
  metrics.emplace_back(p + "page_flushes", static_cast<double>(s.page_flushes));
  metrics.emplace_back(p + "ownership_moves", static_cast<double>(s.ownership_moves));
  metrics.emplace_back(p + "local_alloc_failures",
                       static_cast<double>(s.local_alloc_failures));
  for (const MachineCounter& c : kHostCounters) {
    metrics.emplace_back(p + c.key, static_cast<double>(s.*c.member));
  }
}

// The numa run's counters; a reconsider cell adds the pins its policy let expire.
void AppendNumaCounters(const SweepCell& cell, const PlacementRun& run,
                        std::vector<std::pair<std::string, double>>& metrics) {
  AppendRunCounters("", run, metrics);
  if (cell.policy.kind == PolicySpec::Kind::kReconsider) {
    metrics.emplace_back("unpin_events", static_cast<double>(run.unpin_events));
  }
}

// Reference time actually charged during a run, from its per-class counters.
double MemTimeSec(const MachineStats& stats, const LatencyModel& lat) {
  ProcRefCounts t = stats.TotalRefs();
  double ns = static_cast<double>(t.fetch_local) * lat.local_fetch_ns +
              static_cast<double>(t.store_local) * lat.local_store_ns +
              static_cast<double>(t.fetch_global) * lat.global_fetch_ns +
              static_cast<double>(t.store_global) * lat.global_store_ns +
              static_cast<double>(t.fetch_remote) * lat.remote_fetch_ns +
              static_cast<double>(t.store_remote) * lat.remote_store_ns;
  return ns * 1e-9;
}

// Every counter of `group` under its live key: the move-limit leg unprefixed, then
// the all-global leg prefixed kGlobalLegPrefix.
void AppendCounterGroup(CounterGroup group, const MachineStats& numa,
                        const MachineStats& global,
                        std::vector<std::pair<std::string, double>>& metrics) {
  for (const MachineCounter& c : group) {
    metrics.emplace_back(c.key, static_cast<double>(numa.*c.member));
  }
  for (const MachineCounter& c : group) {
    metrics.emplace_back(std::string(kGlobalLegPrefix) + c.key,
                         static_cast<double>(global.*c.member));
  }
}

ExperimentOptions OptionsForCell(const SweepCell& cell, const MachineConfig& base_config,
                                 const WatchdogLimits& watchdog, LiveSampler* sampler) {
  ExperimentOptions options;
  options.config = base_config;
  options.config.num_processors = cell.threads;
  if (cell.page_size != base_config.page_size) {
    // Constant total memory: the base config's global and per-processor local bytes.
    options.config.page_size = cell.page_size;
    options.config.global_pages = static_cast<std::uint32_t>(
        std::uint64_t{base_config.global_pages} * base_config.page_size / cell.page_size);
    options.config.local_pages_per_proc = static_cast<std::uint32_t>(
        std::uint64_t{base_config.local_pages_per_proc} * base_config.page_size /
        cell.page_size);
  }
  options.num_threads = cell.threads;
  options.scale = cell.scale;
  options.variant = cell.variant;
  options.policy = cell.policy;
  options.scheduler = cell.scheduler;
  options.gl_ratio = cell.gl_ratio;
  options.estimate_optimal = cell.mode == CellMode::kOptimal;
  options.watchdog = watchdog;
  options.sampler = sampler;
  if (sampler != nullptr) {
    // Every placement run of this cell becomes one feed segment; the tag lets a
    // reader map segments back to matrix coordinates.
    options.live_tag = cell.Key();
  }
  if (!cell.fault_plan.empty()) {
    std::string error;
    ACE_CHECK_MSG(FaultPlan::Parse(cell.fault_plan, &options.fault_plan, &error),
                  "invalid fault plan in sweep cell");
    options.fault_seed = cell.fault_seed;
  }
  if (cell.mode == CellMode::kServing) {
    options.serving.tenants = cell.tenants;
    options.serving.zipf_skew = cell.zipf_skew;
    options.serving.churn_phases = cell.churn;
  }
  return options;
}

// The body of RunCell, free to throw (RunKilledError from the watchdog, anything
// from application code); RunCell converts escapes into a died result.
CellResult RunCellUnguarded(const SweepCell& cell, const MachineConfig& base_config,
                            const WatchdogLimits& watchdog, LiveSampler* sampler) {
  ExperimentOptions options = OptionsForCell(cell, base_config, watchdog, sampler);

  CellResult result;
  result.cell = cell;

  if (cell.mode == CellMode::kNumaOnly) {
    std::unique_ptr<App> app = CreateAppByName(cell.app);
    ACE_CHECK_MSG(app != nullptr, "unknown application in sweep cell");
    PlacementRun run = RunPlacement(*app, options, cell.policy, cell.threads, cell.threads);
    result.ok = run.app.ok;
    result.detail = run.app.detail;
    result.metrics.emplace_back("t_numa", run.user_sec);
    result.metrics.emplace_back("s_numa", run.system_sec);
    result.metrics.emplace_back("measured_alpha", run.measured_alpha);
    AppendNumaCounters(cell, run, result.metrics);
    return result;
  }

  if (cell.mode == CellMode::kServing) {
    std::unique_ptr<App> app = CreateAppByName(cell.app);
    ACE_CHECK_MSG(app != nullptr, "unknown application in sweep cell");
    // The serving comparison: the cell's move-limit configuration against the
    // all-global baseline, scored per policy on the app's latency metrics. (No
    // single-threaded Tlocal leg: an open-loop latency distribution on one shard is
    // not comparable to the sharded runs, unlike batch total user time.)
    PlacementRun numa = RunPlacement(*app, options, cell.policy, cell.threads, cell.threads);
    PlacementRun global = RunPlacement(*app, options, PolicySpec::AllGlobal(),
                                       cell.threads, cell.threads);
    result.ok = numa.app.ok && global.app.ok;
    result.detail = numa.app.detail;
    result.metrics.emplace_back("t_numa", numa.user_sec);
    result.metrics.emplace_back("s_numa", numa.system_sec);
    result.metrics.emplace_back("t_global", global.user_sec);
    result.metrics.emplace_back("s_global", global.system_sec);
    result.metrics.emplace_back("measured_alpha", numa.measured_alpha);
    // Per-policy latency metrics: the move-limit run unprefixed, all-global prefixed.
    for (const auto& [name, value] : numa.app.metrics) {
      result.metrics.emplace_back(name, value);
    }
    for (const auto& [name, value] : global.app.metrics) {
      result.metrics.emplace_back(kGlobalLegPrefix + name, value);
    }
    AppendNumaCounters(cell, numa, result.metrics);
    AppendRunCounters(kGlobalLegPrefix, global, result.metrics);
    // Chaos accounting, emitted only for cells whose plan carries chaos events so
    // chaos-free cell JSON (and its committed baselines) is byte-identical to
    // before chaos existed.
    if (!options.fault_plan.chaos.empty()) {
      AppendCounterGroup(kChaosCounters, numa.stats, global.stats, result.metrics);
    }
    // Recovery accounting, emitted only when the plan carries a *permanent* failure
    // (kill-node / corrupt-page) — only then is the replica manager armed — so
    // transient-chaos baselines (serving-chaos) stay byte-identical too. lost_pages
    // in a committed baseline is the no-undetected-loss contract: a nonzero drift
    // means an owned page died without a mirror or journal to restore it from.
    if (options.fault_plan.has_durable_chaos()) {
      AppendCounterGroup(kDurabilityCounters, numa.stats, global.stats, result.metrics);
    }
    return result;
  }

  ExperimentResult r = RunExperiment(cell.app, options);
  result.ok = r.AllOk();
  result.detail = r.numa.app.detail;
  result.metrics.emplace_back("t_numa", r.numa.user_sec);
  result.metrics.emplace_back("t_global", r.global.user_sec);
  result.metrics.emplace_back("t_local", r.local.user_sec);
  result.metrics.emplace_back("s_numa", r.numa.system_sec);
  result.metrics.emplace_back("s_global", r.global.system_sec);
  result.metrics.emplace_back("alpha", NanIfUndefined(r.model.alpha_defined, r.model.alpha));
  result.metrics.emplace_back("beta", r.model.beta);
  result.metrics.emplace_back("gamma", r.model.gamma);
  result.metrics.emplace_back("measured_alpha", r.numa.measured_alpha);
  result.metrics.emplace_back("model_gl", r.gl_ratio);
  AppendNumaCounters(cell, r.numa, result.metrics);
  if (cell.mode == CellMode::kOptimal) {
    // Section 3.1's Toptimal. The estimator prices only memory references and page
    // movement; adding back the placement-invariant computation time (user time less
    // the charged reference time) makes it commensurable with Tnuma. Tnuma+dS adds
    // the NUMA-management system time, as Table 4 isolates it.
    const OptimalEstimate& opt = r.numa.optimal;
    double compute_sec =
        r.numa.user_sec - MemTimeSec(r.numa.stats, EffectiveConfig(options).latency);
    double opt_total = opt.total_sec + compute_sec;
    double delta_s = r.numa.system_sec - r.global.system_sec;
    double numa_total = r.numa.user_sec + (delta_s > 0 ? delta_s : 0);
    result.metrics.emplace_back("opt_total", opt_total);
    result.metrics.emplace_back("opt_numa_total", numa_total);
    result.metrics.emplace_back("opt_ratio", numa_total / opt_total);
    result.metrics.emplace_back("opt_user_ratio",
                                r.numa.user_sec / (opt.user_sec + compute_sec));
    result.metrics.emplace_back("opt_pages", static_cast<double>(opt.pages));
    result.metrics.emplace_back("opt_pages_global", static_cast<double>(opt.pages_best_global));
  }
  return result;
}

CellResult DiedResult(const SweepCell& cell, std::string kind, std::string detail) {
  CellResult result;
  result.cell = cell;
  result.ok = false;
  result.failure_kind = std::move(kind);
  result.failure_detail = std::move(detail);
  result.detail = result.failure_kind;
  return result;
}

}  // namespace

WatchdogLimits ScaledWatchdog(const WatchdogLimits& base, const SweepCell& cell) {
  WatchdogLimits scaled = base;
  if (base.deadline_ns > 0) {
    double factor = cell.scale > 0.05 ? cell.scale : 0.05;
    scaled.deadline_ns = static_cast<TimeNs>(static_cast<double>(base.deadline_ns) * factor);
  }
  return scaled;
}

CellResult RunCell(const SweepCell& cell, const MachineConfig& base_config,
                   const WatchdogLimits& watchdog, LiveSampler* sampler) {
  try {
    return RunCellUnguarded(cell, base_config, watchdog, sampler);
  } catch (const RunKilledError& killed) {
    return DiedResult(cell, killed.reason(), killed.diagnostics());
  } catch (const std::exception& e) {
    return DiedResult(cell, "exception", e.what());
  }
}

ChildOutcome RunInChild(const std::function<int(std::string*)>& body, unsigned timeout_s) {
  ChildOutcome outcome;
  int fds[2];
  if (pipe(fds) != 0) {
    return outcome;
  }
  pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return outcome;
  }
  if (pid == 0) {
    // Child: an abort anywhere below never reaches the parent's state.
    close(fds[0]);
    if (timeout_s > 0) {
      alarm(timeout_s);
    }
    std::string payload;
    int exit_code = body(&payload);
    for (std::size_t off = 0; off < payload.size();) {
      ssize_t n = write(fds[1], payload.data() + off, payload.size() - off);
      if (n > 0) {
        off += static_cast<std::size_t>(n);
      } else if (n == 0 || errno != EINTR) {
        break;
      }
    }
    _exit(exit_code);
  }
  // Parent: drain the pipe, then reap.
  outcome.started = true;
  close(fds[1]);
  char buf[4096];
  for (;;) {
    ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      outcome.payload.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFSIGNALED(status)) {
    outcome.signal = WTERMSIG(status);
  } else {
    outcome.exit_code = WEXITSTATUS(status);
  }
  return outcome;
}

SweepResult RunSweep(const std::string& suite_name, const std::vector<SweepCell>& cells,
                     const SweepOptions& options) {
  SweepResult result;
  result.suite = suite_name;
  result.base_config = options.base_config;
  result.cells.resize(cells.size());

  // A live sampler writes one sequential stream, so sampled sweeps serialize onto a
  // single worker regardless of the requested width (the tool warns about this).
  const int workers = ResolveWorkers(options.sampler != nullptr ? 1 : options.workers);
  std::atomic<std::size_t> done{0};

  auto start = std::chrono::steady_clock::now();
  ParallelFor(workers, cells.size(), [&](std::size_t i) {
    const SweepCell& cell = cells[i];
    CellResult& slot = result.cells[i];
    slot = RunCell(cell, options.base_config, ScaledWatchdog(options.watchdog, cell),
                   options.sampler);

    std::size_t completed = done.fetch_add(1, std::memory_order_relaxed) + 1;
    if (options.progress != nullptr) {
      options.progress(slot, completed, cells.size());
    }
  });
  auto end = std::chrono::steady_clock::now();

  // Quarantine list, in cell order (assembled after the barrier: no locking).
  for (const CellResult& cell : result.cells) {
    if (cell.died()) {
      CellFailure failure;
      failure.key = cell.cell.Key();
      failure.kind = cell.failure_kind;
      failure.detail = cell.failure_detail;
      result.failures.push_back(std::move(failure));
    }
  }

  result.host.workers = workers;
  result.host.wall_seconds = std::chrono::duration<double>(end - start).count();
  result.host.runs_per_second = result.host.wall_seconds > 0.0
                                    ? static_cast<double>(cells.size()) / result.host.wall_seconds
                                    : 0.0;
  for (const CellResult& cell : result.cells) {
    // Every placement's user+system time contributes to the serial simulated cost.
    result.host.simulated_seconds += cell.MetricOr("t_numa", 0.0) +
                                     cell.MetricOr("s_numa", 0.0) +
                                     cell.MetricOr("t_global", 0.0) +
                                     cell.MetricOr("s_global", 0.0) +
                                     cell.MetricOr("t_local", 0.0);
  }
  return result;
}

}  // namespace ace
