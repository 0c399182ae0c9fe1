// The application suite interface.
//
// Paper section 3.2: "Our application mix consists of a fast Fourier transform (FFT),
// a graphics rendering program (PlyTrace), three prime finders (Primes1-3) and an
// integer matrix multiplier (IMatMult), as well as a program designed to spend all of
// its time referencing shared memory (Gfetch) and one designed not to reference shared
// memory at all (ParMult)."
//
// Each application computes a real result through simulated memory and verifies it, so
// a consistency-protocol bug fails the run. Workloads are fixed-size regardless of
// thread count (the paper's evaluation method requires it) and deterministic.

#ifndef SRC_APPS_APP_H_
#define SRC_APPS_APP_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/machine/machine.h"
#include "src/sim/machine_config.h"
#include "src/threads/runtime.h"

namespace ace {

// Client-population knobs for the Serving workload (src/serving). Lives here so
// AppConfig can carry it without the app framework depending on the serving library.
struct ServingOptions {
  int tenants = 4;            // key namespaces sharing the store (1..16)
  double zipf_skew = 0.9;     // Zipfian exponent of per-tenant key popularity
  int churn_phases = 3;       // scheduled hot-shard rotations (1..8)
  std::uint64_t requests = 0; // total request budget; 0 = derived from `scale`
  std::uint64_t seed = 1;     // client-population seed (arrivals, keys, op mix)
};

struct AppConfig {
  int num_threads = 7;
  // Scales the default workload size (1.0 = the repo's calibrated default, already
  // much smaller than the paper's 1989 runs; see DESIGN.md on scaling).
  double scale = 1.0;
  // Application-specific variant selector:
  //   primes2:  0 = private divisor copies (the paper's fixed version, Table 3)
  //             1 = shared divisor vector (the "initial version" with false sharing)
  //   plytrace: 0 = unpadded framebuffer tiles, 1 = page-padded tiles
  int variant = 0;
  // Runtime scheduling options (affinity by default, as the paper's modified Mach).
  Runtime::Options runtime;
  // Serving-workload knobs; ignored by the batch apps.
  ServingOptions serving;
};

struct AppResult {
  bool ok = false;
  std::string detail;            // human-readable verification summary
  std::uint64_t work_units = 0;  // app-defined size metric (primes found, ops done...)
  // App-defined scalar metrics, exported verbatim into bench cell JSON (ordered;
  // virtual-time-derived only, so they stay byte-identical across hosts). Batch apps
  // leave this empty; the serving app reports latency percentiles through it.
  std::vector<std::pair<std::string, double>> metrics;
};

class App {
 public:
  virtual ~App() = default;

  virtual const char* name() const = 0;

  // Execute the workload on `machine` (creating its own task) and verify the result.
  virtual AppResult Run(Machine& machine, const AppConfig& config) = 0;

  // G/L ratio to use in the analytic model for this application. Paper Table 3
  // footnote: "Since Gfetch and IMatMult do almost all fetches and no stores, their
  // computations were done using 2.3 for G/L. The other applications used G/L as 2."
  virtual double ModelGL(const LatencyModel& latency) const { return latency.MixRatio(0.45); }
};

using AppFactory = std::function<std::unique_ptr<App>()>;

// Factories for every application in the suite.
std::unique_ptr<App> CreateParMult();
std::unique_ptr<App> CreateGfetch();
std::unique_ptr<App> CreateIMatMult();
std::unique_ptr<App> CreatePrimes1();
std::unique_ptr<App> CreatePrimes2();
std::unique_ptr<App> CreatePrimes3();
std::unique_ptr<App> CreateFft();
std::unique_ptr<App> CreatePlyTrace();

// Hidden resilience-test fixtures (resilience_fixtures.cc): resolvable through
// CreateAppByName so sweeps/replay lines can name them, never part of
// AllAppFactories or any suite.
std::unique_ptr<App> CreatePingPongForever();
std::unique_ptr<App> CreateThrowOnRun();

// The section 4 ablation workloads (ablation_fixtures.cc): resolvable by name for
// the `ablations` sweep suite and ace_run, never part of AllAppFactories.
std::unique_ptr<App> CreatePhaseChange();
std::unique_ptr<App> CreateUnixMaster();
std::unique_ptr<App> CreateLoadBalance();
std::unique_ptr<App> CreateRemoteMix();
std::unique_ptr<App> CreateSharedPragma();
std::unique_ptr<App> CreateAdvisedLayout();

// The multi-tenant KV serving workload (src/serving). Addressable by name
// ("Serving", or "serving" on the command line) but kept out of AllAppFactories: the
// Table 3/4 suites and golden counters cover exactly the paper's eight batch apps.
std::unique_ptr<App> CreateServing();

// The Table 3 suite, in the paper's row order.
std::vector<AppFactory> AllAppFactories();
std::unique_ptr<App> CreateAppByName(const std::string& name);

}  // namespace ace

#endif  // SRC_APPS_APP_H_
