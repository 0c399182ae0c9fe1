// The one exception that ends a simulated run early with a named outcome.
//
// Three places throw it: Runtime::Run (src/threads/runtime.cc) when a watchdog limit
// trips, the machine's access slow path (src/machine/machine.cc) when a fault cannot
// be resolved because the page pool is exhausted, and CheckRunIdentities
// (src/metrics/experiment.cc) when a finished run breaks a counter identity. Callers
// name the outcome by `reason` in one catch: RunOnMachine ends the run's live segment
// with it, the sweep runner records it as the cell's failure kind, ace_run prints it
// and exits 1, and ace_soak reports it as the seed's violation.

#ifndef SRC_COMMON_RUN_KILLED_H_
#define SRC_COMMON_RUN_KILLED_H_

#include <stdexcept>
#include <string>
#include <utility>

namespace ace {

// `reason` is a stable machine-readable kind ("watchdog-deadline" |
// "watchdog-livelock" | "out-of-memory" | "identity-violated"); `diagnostics` is the
// human-readable report (for "identity-violated", the identity and both its sides).
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

}  // namespace ace

#endif  // SRC_COMMON_RUN_KILLED_H_
