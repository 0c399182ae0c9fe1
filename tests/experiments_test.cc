// Reproduction shape tests: small-scale versions of the paper's headline claims,
// asserted as pass/fail conditions so regressions in the *results* (not just the
// mechanics) fail CI. Each test names the paper claim it guards.

#include <gtest/gtest.h>

#include "src/metrics/experiment.h"

namespace ace {
namespace {

ExperimentOptions SmallExperiment() {
  ExperimentOptions options;
  options.machine.config.num_processors = 5;
  options.app.num_threads = 5;
  options.app.scale = 0.3;
  return options;
}

TEST(Reproduction, GfetchGammaIsFetchRatio) {
  // Table 3: Gfetch gamma = 2.27 with G/L(fetch) = 2.3 — the all-global extreme.
  ExperimentResult r = RunExperiment("Gfetch", SmallExperiment());
  ASSERT_TRUE(r.AllOk());
  EXPECT_NEAR(r.model.gamma, r.gl_ratio, 0.12);
  EXPECT_LT(r.numa.stats.MeasuredAlpha(), 0.1);
}

TEST(Reproduction, ParMultIsInsensitiveToPlacement) {
  // Table 3: ParMult beta = 0, gamma = 1.00 — no data references to place.
  ExperimentResult r = RunExperiment("ParMult", SmallExperiment());
  ASSERT_TRUE(r.AllOk());
  EXPECT_NEAR(r.model.gamma, 1.0, 0.01);
  EXPECT_LT(r.model.beta, 0.02);
}

TEST(Reproduction, Primes1IsFullyLocal) {
  // Table 3: Primes1 alpha = 1.0, gamma = 1.00 — private stack references only.
  ExperimentResult r = RunExperiment("Primes1", SmallExperiment());
  ASSERT_TRUE(r.AllOk());
  EXPECT_GT(r.model.alpha, 0.97);
  EXPECT_NEAR(r.model.gamma, 1.0, 0.02);
  EXPECT_GT(r.numa.stats.MeasuredAlpha(), 0.97);
}

TEST(Reproduction, AutomaticPlacementNearOptimalForWellBehavedApps) {
  // The headline: "even very simple automatic strategies can produce nearly optimal
  // page placement" — gamma ~ 1 for IMatMult/Primes2/PlyTrace.
  for (const char* name : {"IMatMult", "Primes2", "PlyTrace"}) {
    ExperimentResult r = RunExperiment(name, SmallExperiment());
    ASSERT_TRUE(r.AllOk()) << name;
    EXPECT_LT(r.model.gamma, 1.1) << name;
    EXPECT_GT(r.model.alpha, 0.85) << name;
    // And the automatic policy clearly beats all-global:
    EXPECT_LT(r.numa.user_sec, r.global.user_sec) << name;
  }
}

TEST(Reproduction, Primes3SharingIsIrreducible) {
  // Table 3: Primes3 alpha = .17, gamma = 1.30 — "heavy legitimate use of writably
  // shared memory" that no OS strategy can make local.
  ExperimentResult r = RunExperiment("Primes3", SmallExperiment());
  ASSERT_TRUE(r.AllOk());
  EXPECT_LT(r.model.alpha, 0.45);
  EXPECT_GT(r.model.gamma, 1.15);
  EXPECT_LT(r.model.gamma, 1.7);
}

TEST(Reproduction, FalseSharingFixRaisesAlpha) {
  // Section 4.2: privatizing primes2's divisor vector raised alpha 0.66 -> 1.00.
  ExperimentOptions options = SmallExperiment();
  options.app.variant = 1;  // shared divisors
  ExperimentResult shared = RunExperiment("Primes2", options);
  options.app.variant = 0;  // private copies
  ExperimentResult fixed = RunExperiment("Primes2", options);
  ASSERT_TRUE(shared.AllOk() && fixed.AllOk());
  EXPECT_GT(fixed.model.alpha, shared.model.alpha + 0.2);
  EXPECT_LT(fixed.numa.user_sec, shared.numa.user_sec);
}

TEST(Reproduction, PaddingRemovesPlyTracePins) {
  // Section 4.2: page-sized padding separates falsely shared objects.
  ExperimentOptions options = SmallExperiment();
  std::unique_ptr<App> app = CreateAppByName("PlyTrace");
  options.app.variant = 0;
  PlacementRun packed = RunPlacement(*app, options);
  options.app.variant = 1;
  PlacementRun padded = RunPlacement(*app, options);
  ASSERT_TRUE(packed.app.ok && padded.app.ok);
  EXPECT_LT(padded.stats.pages_pinned, packed.stats.pages_pinned);
  EXPECT_GE(padded.stats.MeasuredAlpha(), packed.stats.MeasuredAlpha());
}

TEST(Reproduction, Table4OverheadShape) {
  // Table 4: page-movement overhead is largest for Primes3 and smallest for Primes1.
  ExperimentOptions options = SmallExperiment();
  auto ratio = [&](const char* name) {
    ExperimentResult r = RunExperiment(name, options);
    EXPECT_TRUE(r.AllOk()) << name;
    return (r.numa.system_sec - r.global.system_sec) / r.numa.user_sec;
  };
  double primes1 = ratio("Primes1");
  double primes2 = ratio("Primes2");
  double primes3 = ratio("Primes3");
  EXPECT_GT(primes3, primes2);
  EXPECT_GT(primes3, 5 * primes1);
  EXPECT_LT(primes1, 0.05);
}

TEST(Reproduction, MoveLimitBeatsNeverPinOnSharingHeavyApp) {
  // Section 2.3.2 rationale: without the pin threshold, writably-shared pages thrash.
  ExperimentOptions options = SmallExperiment();
  std::unique_ptr<App> app = CreateAppByName("Primes3");
  options.machine.policy = PolicySpec::MoveLimit(4);
  PlacementRun limited = RunPlacement(*app, options);
  options.machine.policy = PolicySpec::MoveLimit(1 << 30);
  PlacementRun never_pin = RunPlacement(*app, options);
  ASSERT_TRUE(limited.app.ok && never_pin.app.ok);
  EXPECT_LT(limited.user_sec * 2, never_pin.user_sec);
}

TEST(Reproduction, AffinityMattersOnNuma) {
  // Section 4.7: the migrating scheduler destroys locality.
  ExperimentOptions options = SmallExperiment();
  std::unique_ptr<App> app = CreateAppByName("Primes2");
  options.app.runtime.scheduler = SchedulerKind::kAffinity;
  PlacementRun affinity = RunPlacement(*app, options);
  options.app.runtime.scheduler = SchedulerKind::kMigrating;
  PlacementRun migrating = RunPlacement(*app, options);
  ASSERT_TRUE(affinity.app.ok && migrating.app.ok);
  EXPECT_GT(affinity.stats.MeasuredAlpha(), migrating.stats.MeasuredAlpha() + 0.3);
  EXPECT_LT(affinity.user_sec, migrating.user_sec);
}

TEST(Reproduction, DerivedAlphaAgreesWithCountedAlpha) {
  // Internal consistency of the measurement method: the alpha derived from times
  // (eq. 4) must track the directly counted local fraction.
  for (const char* name : {"Primes1", "Primes2", "IMatMult"}) {
    ExperimentResult r = RunExperiment(name, SmallExperiment());
    ASSERT_TRUE(r.AllOk()) << name;
    EXPECT_NEAR(r.model.alpha, r.numa.stats.MeasuredAlpha(), 0.15) << name;
  }
}

}  // namespace
}  // namespace ace
