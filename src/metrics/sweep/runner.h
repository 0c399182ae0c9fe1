// The sweep engine: execute a list of cells on the host-thread pool (pool.h).
//
// Every cell runs against its own freshly constructed Machine and Runtime (per-run
// isolation; the simulator keeps no cross-machine state), so results depend only on
// the cell's parameters — the same matrix produces identical metric values whether it
// runs on 1 worker or 8. Host wall-time is the only thing parallelism changes, and it
// is reported separately (SweepResult::host) so serialized results can be compared
// modulo wall-time.

#ifndef SRC_METRICS_SWEEP_RUNNER_H_
#define SRC_METRICS_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/metrics/sweep/cell.h"
#include "src/sim/machine_config.h"
#include "src/threads/watchdog.h"

namespace ace {

class LiveSampler;

// One quarantined cell: its single run died (watchdog kill or escaped exception).
// Every cell runs once: these deaths repeat exactly on a re-run, so a retry would
// only reproduce them. Quarantine is a *result*, not an abort — the rest of the
// sweep completes, and the list lands in failures.json (report.h) for artifact
// upload and replay.
struct CellFailure {
  std::string key;
  std::string kind;     // CellResult::failure_kind
  std::string detail;   // kill report / exception text / signal description
  std::string replay;   // command line reproducing the cell (filled by the tool)
};

struct SweepOptions {
  int workers = 0;          // <= 0: hardware concurrency
  MachineConfig base_config;  // per-cell overrides (threads, G/L ratio) apply on top
  // Progress callback (may be null). Called after each cell completes, from the
  // worker thread that ran it; `done` counts completions so far.
  void (*progress)(const CellResult& result, std::size_t done, std::size_t total) = nullptr;
  // Per-cell watchdog, off by default (the happy path executes bit for bit as
  // without it). deadline_ns is the budget for a scale-1.0 cell; the runner scales
  // it by each cell's `scale` (floor 0.05) since virtual time grows with the
  // workload. move_budget is per placement run, unscaled.
  WatchdogLimits watchdog;
  // Live telemetry (src/obs/sampler.h): every placement run of every cell becomes
  // one ace-live-v1 segment, tagged with the cell's key. The sampler writes a single
  // stream, so the sweep degrades to one worker when it is set. Not owned; must
  // outlive RunSweep.
  LiveSampler* sampler = nullptr;
};

// Host-side execution statistics — everything here varies run to run and is excluded
// from determinism comparisons and baseline gating.
struct HostStats {
  int workers = 0;
  double wall_seconds = 0.0;
  double runs_per_second = 0.0;
  // Sum of simulated user+system seconds across all runs of all cells: the serial
  // simulated cost the pool parallelized over.
  double simulated_seconds = 0.0;
};

struct SweepResult {
  std::string suite;
  MachineConfig base_config;
  std::vector<CellResult> cells;  // in the input cells' order, independent of dispatch
  HostStats host;
  std::vector<CellFailure> failures;  // quarantined cells, in cell order

  bool AllOk() const {
    for (const CellResult& cell : cells) {
      if (!cell.ok) {
        return false;
      }
    }
    return true;
  }
};

// Execute one cell in isolation. Exposed for tests and for callers that need a
// single cell outside a sweep. With `watchdog` limits (already scaled; see
// ScaledWatchdog), a kill or an exception escaping the application is captured
// as a died result (failure_kind/failure_detail) instead of propagating. A non-null
// `sampler` streams each placement run of the cell as an ace-live-v1 segment.
CellResult RunCell(const SweepCell& cell, const MachineConfig& base_config,
                   const WatchdogLimits& watchdog = WatchdogLimits{},
                   LiveSampler* sampler = nullptr);

// How a forked child ended. `started` is false when pipe() or fork() failed and the
// body never ran. Otherwise `signal` is the signal that killed the child (0 if it
// exited), `exit_code` its exit status, and `payload` every byte the body handed back.
struct ChildOutcome {
  bool started = false;
  int signal = 0;
  int exit_code = 0;
  std::string payload;
};

// Run `body` in a forked child, so that an abort or any other signal is confined to
// the child. The child calls `body(&payload)`, writes the payload up a pipe and
// exits with body's return value. A nonzero `timeout_s` arms alarm() in the child,
// so a hung body dies with SIGALRM. ace_soak runs each seed this way, because the
// soak exists to catch aborts.
ChildOutcome RunInChild(const std::function<int(std::string*)>& body, unsigned timeout_s);

// The watchdog limits RunSweep passes to RunCell for `cell`: deadline scaled by the
// cell's workload scale, move budget as given.
WatchdogLimits ScaledWatchdog(const WatchdogLimits& base, const SweepCell& cell);

// Execute `cells` on the pool and assemble the result in input order.
SweepResult RunSweep(const std::string& suite_name, const std::vector<SweepCell>& cells,
                     const SweepOptions& options);

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_RUNNER_H_
