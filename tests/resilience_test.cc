// Tests for the run-resilience layer: the hung-run watchdog (src/threads/watchdog),
// quarantine and fork isolation in the sweep runner, checkpoint/resume
// (src/metrics/sweep/checkpoint) with its byte-identity guarantee, and the
// crash-tolerant serialization forms they share.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "src/metrics/sweep/cell.h"
#include "src/metrics/sweep/checkpoint.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/obs/json_lite.h"
#include "src/threads/watchdog.h"

namespace ace {
namespace {

std::string MakeTempDir() {
  std::string templ = ::testing::TempDir() + "ace-resilience-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  const char* got = mkdtemp(buf.data());
  EXPECT_NE(got, nullptr);
  return got != nullptr ? got : "";
}

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
  CellResult result = RunCell(FixtureCell("IMatMult"), MachineConfig{}, limits);
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
  CellResult result = RunCell(cell, MachineConfig{}, limits);
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
  CellResult bare = RunCell(cell, MachineConfig{});
  WatchdogLimits generous;
  generous.deadline_ns = 1'000'000'000'000;  // 1000 virtual seconds
  generous.move_budget = 1'000'000'000;
  CellResult watched = RunCell(cell, MachineConfig{}, generous);
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
  CellResult result = RunCell(FixtureCell("ThrowOnRun"), MachineConfig{});
  ASSERT_TRUE(result.died());
  EXPECT_EQ(result.failure_kind, "exception");
  EXPECT_NE(result.failure_detail.find("deliberate"), std::string::npos)
      << result.failure_detail;
}

TEST(Resilience, ForkedAbortIsConfinedToTheChild) {
  // AbortOnRun trips ACE_CHECK mid-run: without isolation that SIGABRT would kill
  // the whole process; forked it becomes a reported signal death.
  CellResult result = RunCellForked(FixtureCell("AbortOnRun"), MachineConfig{});
  ASSERT_TRUE(result.died());
  EXPECT_EQ(result.failure_kind, "signal:6");
  EXPECT_NE(result.failure_detail.find("signal 6"), std::string::npos)
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

// --- serialization round trips --------------------------------------------------------

TEST(Report, CellObjectRoundTripsThroughParse) {
  // A surviving cell with a NaN metric and a fault plan.
  CellResult cell;
  cell.cell = NormalCell("FFT");
  cell.cell.fault_plan = "copy-fail@nth:2";
  cell.cell.fault_seed = 9;
  cell.ok = true;
  cell.metrics.emplace_back("t_numa", 1.25);
  cell.metrics.emplace_back("alpha", std::nan(""));
  cell.metrics.emplace_back("precise", 0.1234567890123456789);

  std::string bytes = SerializeCellObject(cell);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(bytes, &doc, &error)) << error;
  CellResult reparsed;
  ASSERT_TRUE(ParseCellObject(doc, &reparsed, &error)) << error;
  EXPECT_EQ(SerializeCellObject(reparsed), bytes);
  EXPECT_TRUE(std::isnan(reparsed.MetricOr("alpha", 0.0)));
  EXPECT_EQ(reparsed.cell.fault_plan, "copy-fail@nth:2");
  EXPECT_EQ(reparsed.cell.fault_seed, 9u);

  // A dead cell: failure object present, metrics empty.
  CellResult dead;
  dead.cell = NormalCell("IMatMult");
  dead.ok = false;
  dead.failure_kind = "watchdog-livelock";
  dead.failure_detail = "report with\nnewlines and \"quotes\"";
  std::string dead_bytes = SerializeCellObject(dead);
  ASSERT_TRUE(ParseJson(dead_bytes, &doc, &error)) << error;
  CellResult dead_reparsed;
  ASSERT_TRUE(ParseCellObject(doc, &dead_reparsed, &error)) << error;
  EXPECT_EQ(SerializeCellObject(dead_reparsed), dead_bytes);
  EXPECT_EQ(dead_reparsed.failure_kind, "watchdog-livelock");
  EXPECT_EQ(dead_reparsed.failure_detail, dead.failure_detail);
}

TEST(Report, ParseCellObjectRejectsEditedKeys) {
  CellResult cell;
  cell.cell = NormalCell("FFT");
  cell.ok = true;
  cell.metrics.emplace_back("t_numa", 1.0);
  std::string bytes = SerializeCellObject(cell);
  // Tamper with one parameter but not the stored key: the cross-check must reject.
  std::string tampered = bytes;
  std::size_t at = tampered.find("\"threads\":3");
  ASSERT_NE(at, std::string::npos);
  tampered.replace(at, 11, "\"threads\":4");
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(tampered, &doc, &error)) << error;
  CellResult out;
  EXPECT_FALSE(ParseCellObject(doc, &out, &error));
  EXPECT_NE(error.find("does not match"), std::string::npos) << error;
}

// --- checkpoint/resume ----------------------------------------------------------------

// The acceptance property: interrupt-anywhere + resume produces byte-identical
// results. Journal a subset of a sweep's cells, reload them, resume the sweep with
// the rest executing live — the serialized result must equal the uninterrupted run's.
TEST(Checkpoint, ResumedSweepIsByteIdenticalToUninterrupted) {
  std::vector<SweepCell> cells = {NormalCell("IMatMult"), NormalCell("Gfetch"),
                                  NormalCell("ParMult")};
  SweepOptions options;
  options.workers = 2;
  SweepResult reference = RunSweep("tiny", cells, options);
  std::string reference_bytes = SerializeSweep(reference, /*include_host=*/false);

  std::string dir = MakeTempDir();
  SweepCheckpoint checkpoint;
  std::string error;
  ASSERT_TRUE(checkpoint.Open(dir, "tiny", options.base_config, &error)) << error;
  // Journal only the first two cells — as if the run was killed before the third.
  ASSERT_TRUE(checkpoint.RecordCell(reference.cells[0], &error)) << error;
  ASSERT_TRUE(checkpoint.RecordCell(reference.cells[1], &error)) << error;

  std::map<std::string, CellResult> completed;
  ASSERT_TRUE(checkpoint.LoadCompleted(&completed, &error)) << error;
  EXPECT_EQ(completed.size(), 2u);

  SweepOptions resumed_options = options;
  resumed_options.resumed = &completed;
  SweepResult resumed = RunSweep("tiny", cells, resumed_options);
  EXPECT_EQ(SerializeSweep(resumed, /*include_host=*/false), reference_bytes);
  EXPECT_TRUE(resumed.cells[0].from_checkpoint);
  EXPECT_TRUE(resumed.cells[1].from_checkpoint);
  EXPECT_FALSE(resumed.cells[2].from_checkpoint);
}

TEST(Checkpoint, DeadCellsRoundTripThroughFragments) {
  std::string dir = MakeTempDir();
  SweepCheckpoint checkpoint;
  std::string error;
  ASSERT_TRUE(checkpoint.Open(dir, "tiny", MachineConfig{}, &error)) << error;

  CellResult dead = RunCell(FixtureCell("ThrowOnRun"), MachineConfig{});
  ASSERT_TRUE(dead.died());
  ASSERT_TRUE(checkpoint.RecordCell(dead, &error)) << error;

  std::map<std::string, CellResult> completed;
  ASSERT_TRUE(checkpoint.LoadCompleted(&completed, &error)) << error;
  ASSERT_EQ(completed.size(), 1u);
  const CellResult& reloaded = completed.begin()->second;
  EXPECT_EQ(reloaded.failure_kind, "exception");
  EXPECT_EQ(SerializeCellObject(reloaded), SerializeCellObject(dead));
}

TEST(Checkpoint, FailsClosedOnCorruptFragments) {
  std::string dir = MakeTempDir();
  SweepCheckpoint checkpoint;
  std::string error;
  ASSERT_TRUE(checkpoint.Open(dir, "tiny", MachineConfig{}, &error)) << error;

  // Truncated garbage under a fragment name: resume must refuse, naming the file.
  std::string bad = dir + "/" + SweepCheckpoint::FragmentFileName("bogus");
  std::ofstream(bad) << "{\"schema\":\"ace-bench-v1\",";
  std::map<std::string, CellResult> completed;
  EXPECT_FALSE(checkpoint.LoadCompleted(&completed, &error));
  EXPECT_NE(error.find(bad), std::string::npos) << error;
  ASSERT_EQ(std::remove(bad.c_str()), 0);

  // Leftover .tmp files from an interrupted atomic write are not fragments: ignored.
  std::ofstream(bad + ".tmp") << "torn garbage";
  completed.clear();
  EXPECT_TRUE(checkpoint.LoadCompleted(&completed, &error)) << error;
  EXPECT_TRUE(completed.empty());
}

TEST(Checkpoint, FailsClosedOnSuiteAndMachineMismatch) {
  std::string dir = MakeTempDir();
  std::string error;
  SweepCheckpoint writer;
  ASSERT_TRUE(writer.Open(dir, "tiny", MachineConfig{}, &error)) << error;
  CellResult cell = RunCell(NormalCell("IMatMult"), MachineConfig{});
  ASSERT_TRUE(writer.RecordCell(cell, &error)) << error;

  // Same directory, different suite: the fragment must be rejected, not merged.
  SweepCheckpoint wrong_suite;
  ASSERT_TRUE(wrong_suite.Open(dir, "other", MachineConfig{}, &error)) << error;
  std::map<std::string, CellResult> completed;
  EXPECT_FALSE(wrong_suite.LoadCompleted(&completed, &error));
  EXPECT_NE(error.find("suite"), std::string::npos) << error;

  // Same suite, different machine shape: results would be incomparable.
  MachineConfig other_machine;
  other_machine.global_pages = MachineConfig{}.global_pages * 2;
  SweepCheckpoint wrong_machine;
  ASSERT_TRUE(wrong_machine.Open(dir, "tiny", other_machine, &error)) << error;
  completed.clear();
  EXPECT_FALSE(wrong_machine.LoadCompleted(&completed, &error));
  EXPECT_NE(error.find("machine"), std::string::npos) << error;
}

// --- failures.json --------------------------------------------------------------------

TEST(FailuresJson, SerializesValidReplayableDocument) {
  std::vector<CellFailure> failures;
  CellFailure f;
  f.key = "FFT/t3/s0.1/mt4/gl0";
  f.kind = "watchdog-livelock";
  f.detail = "ping-pong suspect: lp=7";
  f.replay = "ace_bench --suite smoke --only 'FFT/t3/s0.1/mt4/gl0'";
  failures.push_back(f);

  std::string json = SerializeFailures("smoke", failures);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.StringOr("schema", ""), kFailuresSchemaName);
  EXPECT_EQ(doc.StringOr("suite", ""), "smoke");
  ASSERT_NE(doc.Find("failures"), nullptr);
  ASSERT_EQ(doc.Find("failures")->items.size(), 1u);
  const JsonValue& entry = doc.Find("failures")->items[0];
  EXPECT_EQ(entry.StringOr("kind", ""), "watchdog-livelock");
  EXPECT_EQ(entry.StringOr("replay", ""), f.replay);

  // An empty quarantine still writes a valid document (CI uploads it unconditionally).
  std::string empty = SerializeFailures("smoke", {});
  ASSERT_TRUE(ParseJson(empty, &doc, &error)) << error;
  EXPECT_TRUE(doc.Find("failures")->items.empty());

  std::string path = MakeTempDir() + "/failures.json";
  ASSERT_TRUE(WriteFailuresJson("smoke", failures, path, &error)) << error;
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
}

}  // namespace
}  // namespace ace
