// Differential equivalence suite: the software-TLB fast path changes NOTHING
// observable.
//
// Every application in the paper's Table 3 suite runs under every placement policy
// twice — TLB on and TLB off — and the results must be byte-identical: virtual user
// and system times (compared as exact doubles, which for these integer-nanosecond
// sums means bit-exact), the complete MachineStats counter matrix, measured alpha,
// the derived model parameters α/β/γ, and the serialized ace-bench-v1 cell JSON.
// This is the invariant that makes the fast path safe to leave on everywhere; any
// divergence — one reference misclassified, one cost charged differently, one
// counter recorded in a different order — fails here with the field named. The same
// holds under chaos: a slow-link window and a kill-node plan (with its durability
// write-through on every store) run through the very same hit path. And every
// per-reference observer — the heat profile, the policy decision counts and the
// RefTracer — sees the same stream either way.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/inject/fault_plan.h"
#include "src/metrics/experiment.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/obs/observability.h"
#include "src/obs/snapshot.h"
#include "src/trace/ref_trace.h"

namespace ace {
namespace {

// The three placements the paper's measurement procedure uses (section 3.1).
struct NamedPolicy {
  const char* name;
  PolicySpec spec;
};

std::vector<NamedPolicy> Policies() {
  return {
      {"move-limit", PolicySpec::MoveLimit(4)},
      {"all-global", PolicySpec::AllGlobal()},
      {"all-local", PolicySpec::AllLocal()},
  };
}

ExperimentOptions SmallOptions() {
  ExperimentOptions options;
  options.machine.config.num_processors = 4;
  options.app.num_threads = 4;
  options.app.scale = 0.25;
  return options;
}

// Whole-run comparison with the divergent fields named in the failure message.
void ExpectRunsIdentical(const PlacementRun& on, const PlacementRun& off,
                         const std::string& label) {
  EXPECT_EQ(on.app.ok, off.app.ok) << label;
  EXPECT_EQ(on.app.detail, off.app.detail) << label;
  EXPECT_EQ(on.app.work_units, off.app.work_units) << label;
  EXPECT_TRUE(on.app.metrics == off.app.metrics) << label << ": app metrics differ";
  EXPECT_EQ(on.user_sec, off.user_sec) << label << " user_sec";
  EXPECT_EQ(on.system_sec, off.system_sec) << label << " system_sec";
  // Every counter, the reference matrix (and so the measured alpha) included.
  EXPECT_TRUE(on.stats == off.stats) << label << ": " << DescribeStatsMismatch(on.stats, off.stats);
}

// One app under one policy, both ways. TLB-on must actually have used the fast path
// (hits > 0) for the comparison to mean anything.
void RunDifferential(const std::string& app_name, const NamedPolicy& policy,
                     ExperimentOptions options = SmallOptions()) {
  std::unique_ptr<App> app_on = CreateAppByName(app_name);
  std::unique_ptr<App> app_off = CreateAppByName(app_name);
  ASSERT_NE(app_on, nullptr);

  options.machine.policy = policy.spec;
  options.machine.enable_tlb = true;
  PlacementRun on = RunPlacement(*app_on, options);
  options.machine.enable_tlb = false;
  PlacementRun off = RunPlacement(*app_off, options);

  std::string label = app_name + "/" + policy.name;
  EXPECT_TRUE(on.app.ok) << label;
  // The fast path must engage whenever the workload re-references pages at all
  // (ParMult under all-local makes a handful of scattered references — zero hits is
  // legitimate there, and the differential comparison below still bites).
  if (on.stats.TotalRefs().Total() >= 100) {
    EXPECT_GT(on.tlb.hits, 0u) << label << ": fast path never engaged";
  }
  EXPECT_EQ(off.tlb.hits, 0u) << label << ": TLB-off run used the TLB";
  EXPECT_EQ(on.stats.chaos_events > 0, !options.machine.fault_plan.chaos.empty())
      << label << ": a chaos plan must apply transitions, a chaos-free one none";
  ExpectRunsIdentical(on, off, label);
}

// --- every app x every policy -------------------------------------------------------

class TlbEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(TlbEquivalence, CountersAndTimesIdenticalUnderAllPolicies) {
  for (const NamedPolicy& policy : Policies()) {
    RunDifferential(GetParam(), policy);
  }
}

std::vector<std::string> AllAppNames() {
  std::vector<std::string> names;
  for (const AppFactory& f : AllAppFactories()) {
    names.push_back(f()->name());
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllApps, TlbEquivalence, ::testing::ValuesIn(AllAppNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

// --- model parameters (alpha / beta / gamma) ----------------------------------------

TEST(TlbEquivalenceModel, DerivedModelParametersIdentical) {
  for (const char* app : {"IMatMult", "Primes3"}) {
    ExperimentOptions options = SmallOptions();
    options.machine.enable_tlb = true;
    ExperimentResult on = RunExperiment(app, options);
    options.machine.enable_tlb = false;
    ExperimentResult off = RunExperiment(app, options);

    EXPECT_EQ(on.model.alpha_defined, off.model.alpha_defined) << app;
    if (on.model.alpha_defined) {
      EXPECT_EQ(on.model.alpha, off.model.alpha) << app;
    }
    EXPECT_EQ(on.model.beta, off.model.beta) << app;
    EXPECT_EQ(on.model.gamma, off.model.gamma) << app;
    EXPECT_EQ(on.numa.stats.MeasuredAlpha(), off.numa.stats.MeasuredAlpha()) << app;
    ExpectRunsIdentical(on.numa, off.numa, std::string(app) + "/numa");
    ExpectRunsIdentical(on.global, off.global, std::string(app) + "/global");
    ExpectRunsIdentical(on.local, off.local, std::string(app) + "/local");
  }
}

// --- chaos plans: slow-link windows and kill-node durability ------------------------

// Serving under `plan` in the chaos configuration of tests/serving_fault_test.cc:
// move-limit threshold 1, fault seed 1.
void RunChaosDifferential(const char* plan) {
  ExperimentOptions options = SmallOptions();
  std::string error;
  ASSERT_TRUE(FaultPlan::Parse(plan, &options.machine.fault_plan, &error)) << error;
  options.machine.fault_seed = 1;
  RunDifferential("Serving", {plan, PolicySpec::MoveLimit(1)}, options);
}

TEST(TlbEquivalenceChaos, SlowLinkWindowIdenticalWithTlbOnAndOff) {
  // Processor 1's off-node references cost 1000x inside the window: every TLB hit
  // in it must pick up the multiplier exactly as the slow path does.
  RunChaosDifferential("slow-link@1:20000000:80000000:1000000");
}

TEST(TlbEquivalenceChaos, KillNodePlanIdenticalWithTlbOnAndOff) {
  // The canonical permanent-failure plan: journal write-through on every owned store
  // (TLB hits included), a corruption scrub, then node 2 dies and is recovered.
  RunChaosDifferential("corrupt-page@1:2000000:4000000:1000;kill-node@2:5000000");
}

// --- the fast path's own counters, pinned ----------------------------------------------

// The on/off comparisons above prove the fast path changes nothing observable; these
// pins prove it still does its work. Each streaming app's exact reference total and
// TLB hits, fills and shootdowns under move-limit are deterministic, so a change that
// loses hits, adds fills or widens shootdowns fails here on any host.
TEST(TlbCounters, StreamingAppsArePinnedUnderMoveLimit) {
  struct Pin {
    const char* app;
    std::uint64_t refs, hits, fills, shootdown_pages;
  };
  const Pin pins[] = {
      {"Gfetch", 40130, 40007, 123, 240},
      {"IMatMult", 12730, 12691, 39, 72},
      {"Primes2", 106713, 106661, 52, 96},
  };
  ExperimentOptions options = SmallOptions();
  options.machine.policy = PolicySpec::MoveLimit(4);
  for (const Pin& pin : pins) {
    std::unique_ptr<App> app = CreateAppByName(pin.app);
    ASSERT_NE(app, nullptr) << pin.app;
    const PlacementRun run = RunPlacement(*app, options);
    EXPECT_TRUE(run.app.ok) << pin.app << ": " << run.app.detail;
    EXPECT_EQ(run.stats.TotalRefs().Total(), pin.refs) << pin.app;
    EXPECT_EQ(run.tlb.hits, pin.hits) << pin.app;
    EXPECT_EQ(run.tlb.fills, pin.fills) << pin.app;
    EXPECT_EQ(run.tlb.shootdown_pages, pin.shootdown_pages) << pin.app;
  }
}

// --- per-reference observers ---------------------------------------------------------

// Everything the per-reference observers recorded in one run. Both halves of the
// reference path feed them from one accounting step, so TLB on and off must agree.
struct ObservedStream {
  std::vector<ProcRefCounts> heat_by_class;  // per logical page
  std::vector<std::array<std::uint64_t, kMaxProcessors>> heat_by_proc;
  std::array<std::uint64_t, 3> decisions{};  // indexed by Placement
  // RefTracer, per virtual page: fetches, stores, local, non-local, readers, writers.
  std::map<VirtPage, std::array<std::uint64_t, 6>> traced;
  std::uint64_t tlb_hits = 0;
};

ObservedStream ObserveRun(const std::string& app_name, bool tlb, const char* plan) {
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.enable_tlb = tlb;
  mo.policy = PolicySpec::MoveLimit(4);
  if (plan != nullptr) {
    std::string error;
    EXPECT_TRUE(FaultPlan::Parse(plan, &mo.fault_plan, &error)) << error;
    mo.policy = PolicySpec::MoveLimit(1);
    mo.fault_seed = 1;
  }
  Machine machine(mo);
  machine.EnableHeat();
  RefTracer tracer(&machine);

  std::unique_ptr<App> app = CreateAppByName(app_name);
  EXPECT_NE(app, nullptr);
  AppConfig cfg;
  cfg.num_threads = 4;
  cfg.scale = 0.25;
  AppResult result = app->Run(machine, cfg);
  EXPECT_TRUE(result.ok) << app_name << ": " << result.detail;

  ObservedStream out;
  const HeatProfile& heat = machine.observability().heat();
  for (LogicalPage lp = 0; lp < heat.num_pages(); ++lp) {
    out.heat_by_class.push_back(heat.page(lp));
    out.heat_by_proc.push_back(heat.page(lp).refs_by_proc);
  }
  out.decisions = {heat.decisions(Placement::kLocal), heat.decisions(Placement::kGlobal),
                   heat.decisions(Placement::kRemoteHome)};
  for (const auto& [page, c] : tracer.pages()) {
    out.traced[page] = {c.fetches, c.stores, c.local_refs, c.nonlocal_refs,
                        c.readers.bits(), c.writers.bits()};
  }
  out.tlb_hits = machine.tlb_stats().hits;
  return out;
}

void ExpectObserversIdentical(const std::string& app_name, const char* plan) {
  const ObservedStream on = ObserveRun(app_name, /*tlb=*/true, plan);
  const ObservedStream off = ObserveRun(app_name, /*tlb=*/false, plan);
  EXPECT_GT(on.tlb_hits, 0u) << app_name << ": fast path never engaged";
  EXPECT_EQ(off.tlb_hits, 0u) << app_name;
  ASSERT_EQ(on.heat_by_class.size(), off.heat_by_class.size());
  for (std::size_t lp = 0; lp < on.heat_by_class.size(); ++lp) {
    EXPECT_TRUE(on.heat_by_class[lp] == off.heat_by_class[lp])
        << app_name << ": heat refs by class differ on logical page " << lp;
    EXPECT_EQ(on.heat_by_proc[lp], off.heat_by_proc[lp])
        << app_name << ": heat refs by processor differ on logical page " << lp;
  }
  EXPECT_EQ(on.decisions, off.decisions) << app_name;
  EXPECT_FALSE(on.traced.empty()) << app_name << ": RefTracer saw nothing";
  EXPECT_EQ(on.traced, off.traced) << app_name << ": RefTracer per-page counts differ";
}

TEST(TlbEquivalenceObservers, BatchAppStreamIdenticalWithTlbOnAndOff) {
  ExpectObserversIdentical("IMatMult", nullptr);
}

TEST(TlbEquivalenceObservers, ServingKillNodeStreamIdenticalWithTlbOnAndOff) {
  // The durability plan makes the shared step journal every owned store through the
  // logical page each half of the path hands it.
  ExpectObserversIdentical("Serving", "corrupt-page@1:2000000:4000000:1000;kill-node@2:5000000");
}

// --- serialized ace-bench-v1 cell JSON ----------------------------------------------

TEST(TlbEquivalenceJson, BenchCellJsonByteIdenticalWithTlbOnAndOff) {
  SweepCell cell;
  cell.app = "IMatMult";
  cell.threads = 4;
  cell.scale = 0.25;

  // The sweep's own options for the cell, with only the TLB switch flipped.
  ExperimentOptions options = OptionsForCell(cell);
  options.machine.enable_tlb = true;
  CellResult on = RunCellUnguarded(cell, options);
  options.machine.enable_tlb = false;
  CellResult off = RunCellUnguarded(cell, options);

  ASSERT_TRUE(on.ok);
  ASSERT_TRUE(off.ok);
  EXPECT_EQ(SerializeCellObject(on), SerializeCellObject(off));
}

}  // namespace
}  // namespace ace
