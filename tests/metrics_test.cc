// Unit tests for the analytic model (eqs. 1, 4, 5) and the experiment runner.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/common/run_killed.h"
#include "src/metrics/experiment.h"
#include "src/metrics/model.h"
#include "src/metrics/table.h"

namespace ace {
namespace {

TEST(Model, SolvesPaperGfetchRow) {
  // Table 3: Gfetch Tglobal=60.2 Tnuma=60.2 Tlocal=26.5, G/L=2.3 -> alpha 0, beta ~1.
  ModelParams p = SolveModel(60.2, 60.2, 26.5, 2.3);
  EXPECT_TRUE(p.alpha_defined);
  EXPECT_NEAR(p.alpha, 0.0, 1e-9);
  EXPECT_NEAR(p.beta, 0.978, 0.01);
  EXPECT_NEAR(p.gamma, 2.27, 0.01);
}

TEST(Model, SolvesPaperIMatMultRow) {
  // Table 3: IMatMult Tglobal=82.1 Tnuma=69.0 Tlocal=68.2 with G/L=2.3.
  ModelParams p = SolveModel(69.0, 82.1, 68.2, 2.3);
  EXPECT_NEAR(p.alpha, 0.94, 0.01);
  // Note: eq. 5 applied to the published times gives beta = .157; the paper's table
  // prints .26, which does not follow from its own equations and published times —
  // presumably due to the 50 Hz clock / rounding of the raw measurements. We assert
  // the arithmetic of eq. 5.
  EXPECT_NEAR(p.beta, 0.157, 0.01);
  EXPECT_NEAR(p.gamma, 1.01, 0.01);
}

TEST(Model, ParMultRowIsUndefinedAlpha) {
  // Tglobal ~ Tlocal: no measurable use of writable memory.
  ModelParams p = SolveModel(67.4, 67.4, 67.3, 2.0);
  EXPECT_FALSE(p.alpha_defined);
  EXPECT_EQ(p.beta, 0.0);
  EXPECT_NEAR(p.gamma, 1.0015, 0.001);
}

TEST(Model, RoundTripWithPrediction) {
  // alpha/beta recovered from times generated by the forward model (eq. 2).
  double t_local = 100.0;
  double alpha = 0.8;
  double beta = 0.4;
  double gl = 2.0;
  double t_numa = PredictTnuma(t_local, alpha, beta, gl);
  double t_global = PredictTnuma(t_local, 0.0, beta, gl);
  ModelParams p = SolveModel(t_numa, t_global, t_local, gl);
  EXPECT_NEAR(p.alpha, alpha, 1e-9);
  EXPECT_NEAR(p.beta, beta, 1e-9);
}

TEST(Model, PerfectPlacementGivesAlphaOne) {
  ModelParams p = SolveModel(100.0, 140.0, 100.0, 2.0);
  EXPECT_NEAR(p.alpha, 1.0, 1e-9);
  EXPECT_NEAR(p.gamma, 1.0, 1e-9);
}

TEST(Model, TnumaOutsideItsBoundsIsUndefinedAlpha) {
  // A NUMA run slower than all-global (Tnuma 0.293 > Tglobal 0.240, as a kill-node
  // plan produces) would give alpha -0.59; one faster than all-local, alpha 1.11.
  // Eq. 4 leaves both undefined. Beta does not depend on Tnuma and stays.
  for (double t_numa : {0.293, 0.140}) {
    ModelParams p = SolveModel(t_numa, 0.240, 0.150, 2.0);
    EXPECT_FALSE(p.alpha_defined) << t_numa;
    EXPECT_NEAR(p.beta, 0.6, 1e-9) << t_numa;
    EXPECT_NEAR(p.gamma, t_numa / 0.150, 1e-9) << t_numa;
  }
}

TEST(Model, DegenerateZeroLocalTime) {
  ModelParams p = SolveModel(1.0, 2.0, 0.0, 2.0);
  EXPECT_FALSE(p.alpha_defined);
}

TEST(Experiment, RunsThreePlacementsAndDerivesModel) {
  ExperimentOptions options;
  options.machine.config.num_processors = 3;
  options.app.num_threads = 3;
  options.app.scale = 0.2;
  ExperimentResult r = RunExperiment("Primes2", options);
  EXPECT_TRUE(r.AllOk());
  // Structure: Tglobal >= Tnuma >= ~Tlocal for a well-placed app.
  EXPECT_GT(r.global.user_sec, r.numa.user_sec);
  EXPECT_GE(r.numa.user_sec, r.local.user_sec * 0.99);
  EXPECT_GT(r.model.alpha, 0.8);
  EXPECT_LT(r.model.gamma, 1.1);
  // The derived alpha must roughly agree with the directly counted one.
  EXPECT_NEAR(r.model.alpha, r.numa.stats.MeasuredAlpha(), 0.15);
}

TEST(Experiment, LocalRunUsesOneProcessor) {
  ExperimentOptions options;
  options.machine.config.num_processors = 3;
  options.app.num_threads = 3;
  options.app.scale = 0.1;
  ExperimentResult r = RunExperiment("ParMult", options);
  EXPECT_TRUE(r.local.app.ok);
  // All of Tlocal's references must have been local.
  EXPECT_NEAR(r.local.stats.MeasuredAlpha(), 1.0, 1e-9);
}

// --- run-level checks (CheckRunIdentities) ------------------------------------------

ExperimentOptions SmallRun() {
  ExperimentOptions options;
  options.machine.config.num_processors = 3;
  options.app.num_threads = 3;
  options.app.scale = 0.2;
  return options;
}

// CheckRunIdentities on `run` must end identity-violated with `diagnostics`.
void ExpectViolation(Machine& machine, const PlacementRun& run, const std::string& diagnostics) {
  try {
    CheckRunIdentities(machine, run);
    ADD_FAILURE() << "no violation; expected: " << diagnostics;
  } catch (const RunKilledError& killed) {
    EXPECT_EQ(killed.reason(), "identity-violated");
    EXPECT_EQ(killed.diagnostics(), diagnostics);
  }
}

TEST(RunIdentities, CleanPlacementRunPasses) {
  std::unique_ptr<App> app = CreateAppByName("Primes2");
  PlacementRun run;
  ASSERT_NO_THROW(run = RunPlacement(*app, SmallRun()));
  EXPECT_TRUE(run.app.ok);
  EXPECT_GT(run.stats.page_syncs, 0u);  // the syncs identity had something to check
}

TEST(RunIdentities, DoctoredCountersAreNamedWithBothSides) {
  ExperimentOptions options = SmallRun();
  Machine machine(options.machine);
  machine.EnableHeat();
  std::unique_ptr<App> app = CreateAppByName("Primes2");
  const PlacementRun run = RunOnMachine(*app, machine, options);
  ASSERT_NO_THROW(CheckRunIdentities(machine, run));

  PlacementRun syncs = run;
  const std::uint64_t created = run.stats.page_copies + run.stats.zero_fills;
  syncs.stats.page_syncs = created + 1;
  ExpectViolation(machine, syncs,
                  "page_syncs <= page_copies + zero_fills (" + std::to_string(created + 1) +
                      " vs " + std::to_string(created) + ")");

  PlacementRun chaos = run;  // the plan is empty, so chaos is unarmed
  chaos.stats.chaos_events = 1;
  ExpectViolation(machine, chaos,
                  "a chaos-free plan builds no controller and keeps chaos counters zero "
                  "(1 vs 0)");

  PlacementRun slo = run;  // the serving app arms its SLO guard only under chaos
  slo.stats.retries = 2;
  ExpectViolation(machine, slo, "a chaos-free plan keeps SLO counters zero (2 vs 0)");

  ASSERT_TRUE(machine.tlb_enabled());
  PlacementRun tlb = run;
  tlb.tlb.fills = run.tlb.misses + 1;
  ExpectViolation(machine, tlb,
                  "tlb fills <= tlb misses (" + std::to_string(run.tlb.misses + 1) + " vs " +
                      std::to_string(run.tlb.misses) + ")");

  PlacementRun heat = run;
  heat.heat_alpha = run.stats.MeasuredAlpha() + 0.5;
  ExpectViolation(machine, heat,
                  Fmt("heat alpha == measured alpha (%.9f", heat.heat_alpha) +
                      Fmt(" vs %.9f)", run.stats.MeasuredAlpha()));
}

TEST(TextTable, FormatsAlignedColumns) {
  TextTable table({"a", "long-header"});
  table.AddRow({"x", "1"});
  table.AddRow({"yyyy", "2"});
  // Just exercise Print to a memory stream via tmpfile.
  std::FILE* f = std::tmpfile();
  ASSERT_NE(f, nullptr);
  table.Print(f);
  long size = std::ftell(f);
  EXPECT_GT(size, 0);
  std::fclose(f);
  EXPECT_EQ(Fmt("%.2f", 1.234), "1.23");
}

}  // namespace
}  // namespace ace
