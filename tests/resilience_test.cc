// Tests for the run-resilience layer: the hung-run watchdog (src/threads/watchdog)
// and quarantine in the sweep runner.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/metrics/sweep/cell.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/threads/watchdog.h"

namespace ace {
namespace {

SweepCell NormalCell(const std::string& app) {
  SweepCell cell;
  cell.app = app;
  cell.threads = 3;
  cell.scale = 0.1;
  return cell;
}

SweepCell FixtureCell(const std::string& app) {
  SweepCell cell = NormalCell(app);
  cell.mode = CellMode::kNumaOnly;  // one placement is plenty for a fixture
  return cell;
}

// --- watchdog ------------------------------------------------------------------------

// A cell whose virtual time exceeds the deadline is killed and reported as a death,
// not a crash: the kill unwinds the fiber stacks and surfaces as failure_kind.
TEST(Watchdog, DeadlineKillsRunawayCell) {
  WatchdogLimits limits;
  limits.deadline_ns = 1000;  // 1us of virtual time: any real cell exceeds this
  CellResult result = RunCell(FixtureCell("IMatMult"), limits);
  EXPECT_TRUE(result.died());
  EXPECT_EQ(result.failure_kind, "watchdog-deadline");
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.metrics.empty());
  EXPECT_NE(result.failure_detail.find("deadline"), std::string::npos)
      << result.failure_detail;
}

// The paper's section 2.3.2 pathology: with pinning disabled (mt=inf), a page
// written by every thread ping-pongs forever. The livelock detector must kill the
// run once ownership_moves + page_syncs exceed the budget, and — because the
// watchdog arms event tracing — the kill report must name the ping-pong page.
TEST(Watchdog, LivelockDetectedKilledAndReported) {
  SweepCell cell = FixtureCell("PingPongForever");
  cell.policy.move_threshold = kInfMoveThreshold;  // never pin: unbounded ping-pong
  WatchdogLimits limits;
  limits.move_budget = 5000;
  CellResult result = RunCell(cell, limits);
  ASSERT_TRUE(result.died()) << "livelocked cell was not killed";
  EXPECT_EQ(result.failure_kind, "watchdog-livelock");
  EXPECT_NE(result.failure_detail.find("ping-pong suspect"), std::string::npos)
      << result.failure_detail;
  // The report ends with the last trace events, oldest first.
  EXPECT_NE(result.failure_detail.find("lp="), std::string::npos) << result.failure_detail;
}

// Generous limits must not perturb the result: the watchdog's per-dispatch checks
// and the tracing it arms are observation-only, so the cell bytes stay identical to
// an unwatched run.
TEST(Watchdog, GenerousLimitsDoNotChangeResults) {
  SweepCell cell = NormalCell("IMatMult");
  CellResult bare = RunCell(cell);
  WatchdogLimits generous;
  generous.deadline_ns = 1'000'000'000'000;  // 1000 virtual seconds
  generous.move_budget = 1'000'000'000;
  CellResult watched = RunCell(cell, generous);
  EXPECT_EQ(SerializeCellObject(bare), SerializeCellObject(watched));
}

TEST(Watchdog, ScaledWatchdogScalesDeadlineOnly) {
  WatchdogLimits base;
  base.deadline_ns = 1'000'000;
  base.move_budget = 777;
  SweepCell half = NormalCell("IMatMult");
  half.scale = 0.5;
  WatchdogLimits scaled = ScaledWatchdog(base, half);
  EXPECT_EQ(scaled.deadline_ns, 500'000);
  EXPECT_EQ(scaled.move_budget, 777u);  // per-run, unscaled

  SweepCell tiny = half;
  tiny.scale = 0.001;  // floor at 0.05: a tiny cell still gets a real budget
  EXPECT_EQ(ScaledWatchdog(base, tiny).deadline_ns, 50'000);

  WatchdogLimits off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(ScaledWatchdog(off, half).deadline_ns, 0);
}

// --- deaths and quarantine -------------------------------------------------------------

TEST(Resilience, EscapedExceptionBecomesDeath) {
  CellResult result = RunCell(FixtureCell("ThrowOnRun"));
  ASSERT_TRUE(result.died());
  EXPECT_EQ(result.failure_kind, "exception");
  EXPECT_NE(result.failure_detail.find("deliberate"), std::string::npos)
      << result.failure_detail;
}

// A plan that empties the page pool for good leaves a reference no frame can back:
// the run ends with the named outcome out-of-memory, not an ACE_CHECK abort.
TEST(Resilience, ExhaustedPagePoolBecomesOutOfMemoryDeath) {
  SweepCell cell = FixtureCell("IMatMult");
  cell.fault_plan = "pool-exhausted@always";
  CellResult result = RunCell(cell);
  ASSERT_TRUE(result.died());
  EXPECT_EQ(result.failure_kind, "out-of-memory");
  EXPECT_NE(result.failure_detail.find("page pool"), std::string::npos)
      << result.failure_detail;
}

// Satellite 4's regression: a cell that throws mid-run in a parallel sweep must not
// leak its worker slot or corrupt sibling cells' thread-local runtime state — every
// sibling's bytes must match a sweep that never contained the poison cell.
TEST(Resilience, DyingCellDoesNotCorruptSiblings) {
  std::vector<SweepCell> normal = {NormalCell("IMatMult"), NormalCell("Gfetch"),
                                   NormalCell("ParMult")};
  SweepCell degraded = FixtureCell("IMatMult");
  degraded.fault_plan = "frame-alloc@nth:1";  // survivable: graceful-degradation path

  std::vector<SweepCell> poisoned = normal;
  poisoned.push_back(FixtureCell("ThrowOnRun"));
  poisoned.push_back(degraded);

  SweepOptions clean_options;
  clean_options.workers = 1;
  SweepResult clean = RunSweep("tiny", normal, clean_options);

  SweepOptions options;
  options.workers = 8;
  SweepResult result = RunSweep("tiny", poisoned, options);

  ASSERT_EQ(result.cells.size(), 5u);
  for (std::size_t i = 0; i < normal.size(); ++i) {
    EXPECT_EQ(SerializeCellObject(result.cells[i]), SerializeCellObject(clean.cells[i]))
        << "sibling " << normal[i].Key() << " corrupted by a dying cell";
  }
  EXPECT_EQ(result.cells[3].failure_kind, "exception");
  // The injected frame-alloc miss degrades gracefully: the cell completes and verifies.
  EXPECT_TRUE(result.cells[4].ok) << result.cells[4].detail;
  EXPECT_FALSE(result.cells[4].died());
  ASSERT_EQ(result.failures.size(), 1u);
  EXPECT_EQ(result.failures[0].key, poisoned[3].Key());
}

}  // namespace
}  // namespace ace
