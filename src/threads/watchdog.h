// Hung-run watchdog for the cooperative runtime: virtual-time deadlines and
// livelock detection for long sweep/soak runs.
//
// The simulator is deterministic and single-host-threaded per machine, so a "hang"
// is always one of two things: the application legitimately needs more virtual time
// than the caller budgeted (deadline), or it is livelocked — typically the paper's
// ping-pong pathology, a writably-shared page migrating between processors forever
// because nothing pins it (the exact failure mode the move-threshold exists to
// prevent, section 2.3.2). Both are visible from the scheduler: virtual clocks keep
// advancing, consistency traffic (ownership moves + syncs) grows without bound, and
// no thread ever finishes.
//
// The Runtime consults these limits once per context switch (two integer compares;
// zero-valued limits disable each check entirely, so the default costs nothing and
// changes no scheduling decision). When a limit trips, the runtime kills the run:
// every fiber is unwound with an internal exception at its next simulated-memory
// operation, and Runtime::Run throws RunKilledError carrying a diagnosis that —
// when the machine has event tracing enabled — includes the hottest ping-ponging
// page and the last N trace events (the obs layer's bounded history).

#ifndef SRC_THREADS_WATCHDOG_H_
#define SRC_THREADS_WATCHDOG_H_

#include <cstdint>
#include <stdexcept>
#include <string>

#include "src/common/types.h"

namespace ace {

class Machine;

// Trace events included in a kill report (newest last), when the machine has
// tracing enabled.
inline constexpr std::size_t kKillReportEvents = 16;

// Per-run limits, all disabled (0) by default. Callers derive the deadline from the
// workload (the sweep runner scales it by the cell's `scale`) and the move budget
// from the expected pinning behaviour.
struct WatchdogLimits {
  // Virtual-time budget: trip when the earliest runnable processor clock passes
  // this. 0 = unlimited.
  TimeNs deadline_ns = 0;
  // Livelock budget: trip when ownership_moves + page_syncs exceeds this. Bounded
  // for any terminating run under a finite move threshold; a ping-ponging page
  // crosses any budget in proportion to its reference stream. 0 = unlimited.
  // Read from Machine::stats() on every check, so an attached live sampler never
  // moves the trip.
  std::uint64_t move_budget = 0;

  bool enabled() const { return deadline_ns > 0 || move_budget > 0; }
};

// Thrown by Runtime::Run after every fiber has been unwound. `reason` is a stable
// machine-readable kind ("watchdog-deadline" | "watchdog-livelock"); `diagnostics`
// is the human-readable report (limit values, counters, ping-pong page, last trace
// events).
class RunKilledError : public std::runtime_error {
 public:
  RunKilledError(std::string reason, std::string diagnostics)
      : std::runtime_error(reason + ": " + diagnostics),
        reason_(std::move(reason)),
        diagnostics_(std::move(diagnostics)) {}

  const std::string& reason() const { return reason_; }
  const std::string& diagnostics() const { return diagnostics_; }

 private:
  std::string reason_;
  std::string diagnostics_;
};

// Build the kill report for `machine` at trip time: one summary line, then — when
// the machine has observability with tracing enabled — the page with the most
// migrate/sync events in the retained rings (the ping-pong suspect) and the last
// kKillReportEvents events across all processors in timestamp order. Pure observer:
// reads counters and rings, charges no time, changes no state.
std::string BuildKillReport(const Machine& machine, const std::string& summary);

}  // namespace ace

#endif  // SRC_THREADS_WATCHDOG_H_
