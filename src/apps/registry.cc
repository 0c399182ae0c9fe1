#include "src/apps/app.h"

namespace ace {

std::vector<AppFactory> AllAppFactories() {
  // Table 3 row order.
  return {
      CreateParMult, CreateGfetch,  CreateIMatMult, CreatePrimes1,
      CreatePrimes2, CreatePrimes3, CreateFft,      CreatePlyTrace,
  };
}

std::unique_ptr<App> CreateAppByName(const std::string& name) {
  for (const AppFactory& factory : AllAppFactories()) {
    std::unique_ptr<App> app = factory();
    if (name == app->name()) {
      return app;
    }
  }
  // The serving workload: addressable by name (either case, for `ace_run --app
  // serving`), never enumerated into the paper-table suites.
  if (name == "Serving" || name == "serving") {
    return CreateServing();
  }
  // Ablation workloads and hidden resilience fixtures: addressable by name, never
  // enumerated into the paper-table suites.
  for (const AppFactory& factory :
       {AppFactory(CreatePhaseChange), AppFactory(CreateUnixMaster),
        AppFactory(CreateLoadBalance), AppFactory(CreateRemoteMix),
        AppFactory(CreatePingPongForever), AppFactory(CreateThrowOnRun),
        AppFactory(CreateAbortOnRun)}) {
    std::unique_ptr<App> app = factory();
    if (name == app->name()) {
      return app;
    }
  }
  return nullptr;
}

}  // namespace ace
