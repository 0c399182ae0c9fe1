// The serving KV application under fault injection and chaos: every legacy fault
// site runs to completion with the documented degradation accounting, every
// (plan, seed) pair replays byte-identically, and the SLO guard turns machine-level
// chaos into bounded retries/shedding instead of aborts. Chaos-free serving runs
// must keep every chaos and SLO counter exactly zero — the committed-baseline
// invariant that lets BENCH_serving_smoke stay untouched by this subsystem.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "src/apps/app.h"
#include "src/inject/fault_plan.h"
#include "src/machine/chaos.h"
#include "src/machine/machine.h"
#include "src/obs/snapshot.h"

namespace ace {
namespace {

struct ServingRun {
  AppResult result;
  MachineStats stats;
};

// One serving run under `plan_text`: move-limit threshold 1 (the tails-tight
// serving configuration; the default threshold deliberately melts in the bench
// matrix and would drown any injected signal), scale 0.25, everything derived
// from `fault_seed` so two calls with equal arguments must agree byte for byte.
ServingRun RunServing(const std::string& plan_text, std::uint64_t fault_seed,
                      std::uint64_t requests, bool pager = false) {
  std::unique_ptr<App> app = CreateAppByName("Serving");
  EXPECT_NE(app, nullptr);
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.policy = PolicySpec::MoveLimit(1);
  mo.enable_pager = pager;
  if (!plan_text.empty()) {
    std::string error;
    EXPECT_TRUE(FaultPlan::Parse(plan_text, &mo.fault_plan, &error)) << error;
  }
  mo.fault_seed = fault_seed;
  Machine machine(mo);

  AppConfig cfg;
  cfg.num_threads = 4;
  cfg.scale = 0.25;
  cfg.serving.requests = requests;
  cfg.serving.seed = fault_seed;

  ServingRun run;
  run.result = app->Run(machine, cfg);
  machine.numa_manager().VerifyAllInvariants();
  run.stats = machine.stats();
  return run;
}

double MetricOr(const AppResult& r, const std::string& name, double fallback) {
  for (const auto& [key, value] : r.metrics) {
    if (key == name) {
      return value;
    }
  }
  return fallback;
}

bool HasMetric(const AppResult& r, const std::string& name) {
  for (const auto& [key, value] : r.metrics) {
    if (key == name) {
      return true;
    }
  }
  return false;
}

// Byte-identical replay: the result rows and every machine counter of two runs
// must agree exactly — doubles compared with ==, no tolerance.
void ExpectIdenticalRuns(const ServingRun& a, const ServingRun& b,
                         const std::string& what) {
  EXPECT_EQ(a.result.ok, b.result.ok) << what;
  EXPECT_EQ(a.result.detail, b.result.detail) << what;
  ASSERT_EQ(a.result.metrics.size(), b.result.metrics.size()) << what;
  for (std::size_t i = 0; i < a.result.metrics.size(); ++i) {
    EXPECT_EQ(a.result.metrics[i].first, b.result.metrics[i].first) << what;
    EXPECT_EQ(a.result.metrics[i].second, b.result.metrics[i].second)
        << what << ": metric " << a.result.metrics[i].first;
  }
  EXPECT_TRUE(a.stats == b.stats) << what << ": " << DescribeStatsMismatch(a.stats, b.stats);
}

// --- the seven legacy fault sites -----------------------------------------------------
//
// One case per site. `expect` names the counter the documented degradation path must
// have bumped by the end of the run; kNone covers the sites whose consumer may not
// engage in a short serving run (pool exhaustion and victim contention need pageout
// pressure the tiny KV store does not generate) and the protocol mutations, where
// determinism — not correctness — is the contract (ace_conform owns catching them).

struct SiteCase {
  const char* name;
  const char* plan;
  bool pager;        // pool/victim sites are only survivable with the pageout daemon
  enum Expect { kNone, kLocalAllocFailures, kGlobalFallbacks, kCopyFailures } expect;
  bool require_ok;   // protocol mutations may deterministically fail verification
};

class ServingFaultSite : public ::testing::TestWithParam<SiteCase> {};

TEST_P(ServingFaultSite, DegradesGracefullyAndReplaysByteIdentically) {
  const SiteCase& c = GetParam();
  ServingRun first = RunServing(c.plan, 17, 512, c.pager);
  ServingRun second = RunServing(c.plan, 17, 512, c.pager);
  ExpectIdenticalRuns(first, second, c.name);

  if (c.require_ok) {
    EXPECT_TRUE(first.result.ok) << c.name << ": " << first.result.detail;
  }
  switch (c.expect) {
    case SiteCase::kLocalAllocFailures:
      EXPECT_GT(first.stats.local_alloc_failures, 0u) << c.name;
      EXPECT_EQ(first.stats.degraded_global_fallbacks, 0u)
          << c.name << ": precheck exhaustion is the paper's fallback, not a degradation";
      break;
    case SiteCase::kGlobalFallbacks:
      EXPECT_GT(first.stats.degraded_global_fallbacks, 0u) << c.name;
      break;
    case SiteCase::kCopyFailures:
      EXPECT_GT(first.stats.degraded_copy_failures, 0u) << c.name;
      EXPECT_GT(first.stats.degraded_global_fallbacks, 0u) << c.name;
      break;
    case SiteCase::kNone:
      break;
  }
  // Legacy sites must never touch the chaos counters.
  EXPECT_EQ(first.stats.chaos_events, 0u) << c.name;
  EXPECT_EQ(first.stats.evacuated_pages, 0u) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllSevenSites, ServingFaultSite,
    ::testing::Values(
        SiteCase{"local_exhausted", "local-exhausted@every:2", false,
                 SiteCase::kLocalAllocFailures, true},
        SiteCase{"pool_exhausted", "pool-exhausted@every:4", true, SiteCase::kNone, true},
        SiteCase{"victim_contention", "victim-contention@every:2", true, SiteCase::kNone,
                 true},
        SiteCase{"frame_alloc", "frame-alloc@every:2", false, SiteCase::kGlobalFallbacks,
                 true},
        SiteCase{"copy_fail", "copy-fail@always", false, SiteCase::kCopyFailures, true},
        // skip-sync fires transiently: with @always every sync is dropped and the
        // protocol's converge-on-sync paths never make progress (a livelock that
        // predates this harness and is outside its survivable-plan contract).
        SiteCase{"skip_sync", "skip-sync@nth:5", false, SiteCase::kNone, false},
        SiteCase{"skip_move_count", "skip-move-count@always", false, SiteCase::kNone,
                 false}),
    [](const ::testing::TestParamInfo<SiteCase>& info) { return info.param.name; });

// --- chaos plans ----------------------------------------------------------------------

// The canonical drain plan (the BENCH_serving_chaos gate cell): node 2 hot-removes
// its local pool mid-run while node 1 stalls 20 ms. The SLO guard must absorb the
// hit — every request completes or is deliberately shed, nothing aborts — and
// report the degradation in the armed-only metric rows.
constexpr const char kCanonicalDrain[] =
    "drain-mem@2:30000000:60000000;stall-proc@1:36000000:56000000";

TEST(ServingChaos, CanonicalDrainCompletesWithSloAccounting) {
  ServingRun run = RunServing(kCanonicalDrain, 1, /*requests=*/0);  // full scale-0.25 load
  EXPECT_TRUE(run.result.ok) << run.result.detail;
  EXPECT_GE(run.stats.chaos_events, 3u);  // drain activate + recover, stall one-shot
  EXPECT_GT(run.stats.evacuated_pages, 0u);
  // The armed report carries the SLO rows, including per-tenant tails.
  EXPECT_TRUE(HasMetric(run.result, "timeouts"));
  EXPECT_TRUE(HasMetric(run.result, "retries"));
  EXPECT_TRUE(HasMetric(run.result, "shed"));
  EXPECT_TRUE(HasMetric(run.result, "recovery_p50_ms"));
  EXPECT_TRUE(HasMetric(run.result, "ten0_timeouts"));
  EXPECT_TRUE(HasMetric(run.result, "ten0_shed"));
  // Retry + shed absorb the window: no timeout survives to the final attempt.
  EXPECT_EQ(MetricOr(run.result, "timeouts", -1.0), 0.0);
  EXPECT_GT(MetricOr(run.result, "retries", 0.0), 0.0);
  // The post-window population exists and its median sits under the in-window
  // p99 — the queue is draining, not diverging. (The exact recovery band is gated
  // numerically by bench/baselines/BENCH_serving_chaos.json in CI.)
  EXPECT_GT(MetricOr(run.result, "recovery_p50_ms", 0.0), 0.0);
  EXPECT_LE(MetricOr(run.result, "recovery_p50_ms", 1e9),
            MetricOr(run.result, "chaos_p99_ms", 0.0));

  ServingRun replay = RunServing(kCanonicalDrain, 1, /*requests=*/0);
  ExpectIdenticalRuns(run, replay, "canonical drain");
}

TEST(ServingChaos, ExtremeSlowLinkForcesDeadlineMisses) {
  // A 1000x link dilation makes remote references miss any reasonable deadline:
  // the guard's last line of defense (count the timeout, keep serving) must engage,
  // deterministically.
  const char* kPlan = "slow-link@1:20000000:80000000:1000000";
  ServingRun run = RunServing(kPlan, 1, /*requests=*/0);
  EXPECT_TRUE(run.result.ok) << run.result.detail;
  EXPECT_GE(MetricOr(run.result, "timeouts", 0.0), 1.0);
  ServingRun replay = RunServing(kPlan, 1, /*requests=*/0);
  ExpectIdenticalRuns(run, replay, "extreme slow link");
}

TEST(ServingChaos, ChaosFreeRunsCarryNoChaosOrSloRows) {
  // Unarmed serving runs must look exactly as they did before the chaos subsystem
  // existed: no SLO metric rows (the committed smoke baseline would otherwise
  // change shape) and every chaos counter at zero.
  ServingRun run = RunServing("", 1, 512);
  EXPECT_TRUE(run.result.ok) << run.result.detail;
  EXPECT_FALSE(HasMetric(run.result, "timeouts"));
  EXPECT_FALSE(HasMetric(run.result, "retries"));
  EXPECT_FALSE(HasMetric(run.result, "shed"));
  EXPECT_FALSE(HasMetric(run.result, "recovery_p50_ms"));
  EXPECT_EQ(run.stats.chaos_events, 0u);
  EXPECT_EQ(run.stats.evacuated_pages, 0u);

  // A schedules-only plan is still chaos-free: same contract.
  ServingRun legacy = RunServing("copy-fail@nth:3", 1, 512);
  EXPECT_TRUE(legacy.result.ok) << legacy.result.detail;
  EXPECT_FALSE(HasMetric(legacy.result, "timeouts"));
  EXPECT_EQ(legacy.stats.chaos_events, 0u);
  EXPECT_EQ(legacy.stats.evacuated_pages, 0u);
}

// --- permanent chaos: the recovery contract ---------------------------------------------

// The canonical permanent-failure plan (the BENCH_serving_killnode gate cell): a
// full-density corruption burst on node 1 at 2 ms, then node 2 dies for good at
// 5 ms — early, while the move-limit policy still has locally owned state to lose
// (it pins the hot set global within ~20 ms at this scale).
constexpr const char kCanonicalKill[] =
    "corrupt-page@1:2000000:4000000:1000;kill-node@2:5000000";

TEST(ServingRecovery, CanonicalKillPlanRecoversEverythingWithZeroAborts) {
  ServingRun run = RunServing(kCanonicalKill, 1, /*requests=*/0);  // full scale-0.25 load
  EXPECT_TRUE(run.result.ok) << run.result.detail;
  // The durability contract, end to end: pages were journaled before the failures,
  // the scrub detected the corruption, the kill's resident state was reconstructed,
  // and nothing was silently lost.
  EXPECT_GT(run.stats.replicated_pages, 0u);
  EXPECT_GT(run.stats.journal_bytes, 0u);
  EXPECT_GE(run.stats.checksum_failures, 1u);
  EXPECT_GT(run.stats.recovered_pages, 0u);
  EXPECT_EQ(run.stats.lost_pages, 0u);
  // The SLO guard absorbs both events: every request completes or is deliberately
  // shed; no timeout survives to the final attempt, nothing aborts.
  EXPECT_EQ(MetricOr(run.result, "timeouts", -1.0), 0.0);

  ServingRun replay = RunServing(kCanonicalKill, 1, /*requests=*/0);
  ExpectIdenticalRuns(run, replay, "canonical kill");
}

TEST(ServingRecovery, TransientChaosKeepsDurabilityCountersZero) {
  // Transient chaos (the canonical drain) must not arm the durability subsystem:
  // its counters stay exactly zero, which is what keeps BENCH_serving_chaos (and
  // every other pre-durability baseline) byte-identical.
  ServingRun run = RunServing(kCanonicalDrain, 1, 512);
  EXPECT_TRUE(run.result.ok) << run.result.detail;
  EXPECT_EQ(run.stats.replicated_pages, 0u);
  EXPECT_EQ(run.stats.journal_bytes, 0u);
  EXPECT_EQ(run.stats.recovered_pages, 0u);
  EXPECT_EQ(run.stats.lost_pages, 0u);
  EXPECT_EQ(run.stats.checksum_failures, 0u);
}

}  // namespace
}  // namespace ace
