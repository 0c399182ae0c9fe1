// Tests for the experiment-sweep engine (src/metrics/sweep): pool correctness and
// determinism under parallel dispatch, the forked-child runner, JSON schema validity,
// the failures.json quarantine, baseline-comparator edge cases, and a golden-file
// check of the committed smoke baseline's structure.

#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/metrics/sweep/baseline.h"
#include "src/metrics/sweep/cell.h"
#include "src/metrics/sweep/matrix.h"
#include "src/metrics/sweep/pool.h"
#include "src/metrics/sweep/render.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/obs/json_lite.h"

namespace ace {
namespace {

// A tiny matrix that still covers both cell modes and a G/L override — small enough
// to run twice in a unit test, varied enough to catch per-run isolation bugs.
std::vector<SweepCell> TinyMatrix() {
  std::vector<SweepCell> cells;
  SweepMatrix experiments;
  experiments.apps = {"IMatMult", "Gfetch", "ParMult"};
  experiments.threads = {3};
  experiments.scales = {0.1};
  cells = experiments.Enumerate();
  SweepMatrix numa_only;
  numa_only.apps = {"IMatMult"};
  numa_only.threads = {3};
  numa_only.scales = {0.1};
  numa_only.move_thresholds = {0, kInfMoveThreshold};
  numa_only.mode = CellMode::kNumaOnly;
  AppendUnique(cells, numa_only.Enumerate());
  SweepMatrix gl;
  gl.apps = {"Gfetch"};
  gl.threads = {3};
  gl.scales = {0.1};
  gl.gl_ratios = {3.0};
  AppendUnique(cells, gl.Enumerate());
  return cells;
}

TEST(ParallelFor, ExecutesEveryTaskExactlyOnce) {
  constexpr std::size_t kTasks = 257;
  std::vector<std::atomic<int>> hits(kTasks);
  for (auto& h : hits) {
    h = 0;
  }
  ParallelFor(4, kTasks, [&](std::size_t i) { hits[i]++; });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "task " << i;
  }
}

TEST(ParallelFor, UnevenTasksAllComplete) {
  // Tasks with wildly different costs: the shared cursor must drain the long tail.
  std::atomic<std::uint64_t> sum{0};
  ParallelFor(8, 64, [&](std::size_t i) {
    volatile std::uint64_t spin = 0;
    for (std::uint64_t k = 0; k < (i % 7) * 50000; ++k) {
      spin = spin + k;
    }
    sum += i;
  });
  EXPECT_EQ(sum.load(), 64ull * 63 / 2);
}

TEST(ParallelFor, SingleWorkerRunsInIndexOrder) {
  std::vector<std::size_t> order;
  ParallelFor(1, 10, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

// RunInChild, the forked-child runner under ace_soak, its one caller.
TEST(RunInChild, LargePayloadComesBackIntact) {
  // Over 64 KiB: more than a pipe buffer holds, so the parent must drain while the
  // child is still writing.
  std::string expected;
  for (std::size_t i = 0; i < 200 * 1024; ++i) {
    expected += static_cast<char>('a' + i % 26);
  }
  ChildOutcome child = RunInChild(
      [&](std::string* payload) {
        *payload = expected;
        return 0;
      },
      /*timeout_s=*/0);
  ASSERT_TRUE(child.started);
  EXPECT_EQ(child.signal, 0);
  EXPECT_EQ(child.exit_code, 0);
  EXPECT_EQ(child.payload, expected);
}

TEST(RunInChild, NonzeroExitCodePassesThrough) {
  ChildOutcome child = RunInChild(
      [](std::string* payload) {
        *payload = "violation";
        return 3;
      },
      /*timeout_s=*/0);
  ASSERT_TRUE(child.started);
  EXPECT_EQ(child.signal, 0);
  EXPECT_EQ(child.exit_code, 3);
  EXPECT_EQ(child.payload, "violation");
}

TEST(RunInChild, AbortReportsSigabrt) {
  ChildOutcome child = RunInChild(
      [](std::string*) {
        std::raise(SIGABRT);
        return 0;
      },
      /*timeout_s=*/0);
  ASSERT_TRUE(child.started);
  EXPECT_EQ(child.signal, SIGABRT);
}

TEST(RunInChild, TimeoutKillsHungChildWithSigalrm) {
  ChildOutcome child = RunInChild(
      [](std::string*) {
        std::this_thread::sleep_for(std::chrono::seconds(5));
        return 0;
      },
      /*timeout_s=*/1);
  ASSERT_TRUE(child.started);
  EXPECT_EQ(child.signal, SIGALRM);
}

// The acceptance property of the whole engine: the same matrix produces
// byte-identical serialized cells whether dispatched on 1 worker or 8.
TEST(SweepDeterminism, ParallelDispatchDoesNotChangeMetrics) {
  std::vector<SweepCell> cells = TinyMatrix();

  SweepOptions serial;
  serial.workers = 1;
  SweepResult r1 = RunSweep("tiny", cells, serial);

  SweepOptions parallel;
  parallel.workers = 8;
  SweepResult r8 = RunSweep("tiny", cells, parallel);

  std::string json1 = SerializeSweep(r1, /*include_host=*/false);
  std::string json8 = SerializeSweep(r8, /*include_host=*/false);
  EXPECT_EQ(json1, json8);
  EXPECT_TRUE(r1.AllOk());
}

TEST(SweepRunner, CellMetricsCoverBothModes) {
  MachineConfig config;
  SweepCell full;
  full.app = "IMatMult";
  full.threads = 3;
  full.scale = 0.1;
  CellResult full_result = RunCell(full, config);
  EXPECT_TRUE(full_result.ok);
  EXPECT_GT(full_result.MetricOr("t_numa", 0.0), 0.0);
  EXPECT_GT(full_result.MetricOr("t_global", 0.0), 0.0);
  EXPECT_GT(full_result.MetricOr("t_local", 0.0), 0.0);
  EXPECT_GE(full_result.MetricOr("gamma", 0.0), 1.0 - 1e-9);

  SweepCell numa_only = full;
  numa_only.mode = CellMode::kNumaOnly;
  CellResult numa_result = RunCell(numa_only, config);
  EXPECT_TRUE(numa_result.ok);
  EXPECT_GT(numa_result.MetricOr("t_numa", 0.0), 0.0);
  // No global/local placement in this mode.
  EXPECT_TRUE(std::isnan(numa_result.MetricOr("t_global", std::nan(""))));
}

TEST(SweepRunner, GlRatioOverrideScalesGlobalLatency) {
  MachineConfig config;
  SweepCell slow_global;
  slow_global.app = "Gfetch";  // all time in global fetches: Tnuma tracks the ratio
  slow_global.threads = 3;
  slow_global.scale = 0.1;
  slow_global.gl_ratio = 4.0;
  SweepCell normal = slow_global;
  normal.gl_ratio = 0.0;
  double t_slow = RunCell(slow_global, config).MetricOr("t_numa", 0.0);
  double t_normal = RunCell(normal, config).MetricOr("t_numa", 0.0);
  EXPECT_GT(t_slow, t_normal * 1.3);
}

TEST(SweepCellKey, EncodesEveryAxisAndIsUniqueAcrossSuites) {
  SweepCell cell;
  cell.app = "FFT";
  cell.threads = 7;
  cell.scale = 0.25;
  cell.policy.move_threshold = kInfMoveThreshold;
  cell.gl_ratio = 1.5;
  EXPECT_EQ(cell.Key(), "FFT/t7/s0.25/mtinf/gl1.5");

  // The ablation axes at their defaults add nothing; each one off its default
  // appends its own segment.
  SweepCell defaults = cell;
  defaults.policy = PolicySpec::MoveLimit(kInfMoveThreshold);
  defaults.variant = 0;
  defaults.page_size = 4096;
  defaults.scheduler = SchedulerKind::kAffinity;
  EXPECT_EQ(defaults.Key(), cell.Key());
  const std::string base = cell.Key();
  SweepCell axis = cell;
  axis.policy = PolicySpec::Reconsider(kInfMoveThreshold, 20'000'000);
  EXPECT_EQ(axis.Key(), base + "/reconsider20ms");
  axis.policy = PolicySpec::RemoteHome(kInfMoveThreshold);
  EXPECT_EQ(axis.Key(), base + "/remote-home");
  axis = cell;
  axis.variant = 110;
  EXPECT_EQ(axis.Key(), base + "/v110");
  axis = cell;
  axis.page_size = 512;
  EXPECT_EQ(axis.Key(), base + "/ps512");
  axis = cell;
  axis.scheduler = SchedulerKind::kMigrating;
  EXPECT_EQ(axis.Key(), base + "/migrating");
  axis = cell;
  axis.mode = CellMode::kOptimal;
  EXPECT_EQ(axis.Key(), base + "/optimal");
  axis = cell;
  axis.policy = PolicySpec::Reconsider(4, 20'000'000);
  axis.variant = 1;
  axis.page_size = 16384;
  axis.scheduler = SchedulerKind::kMigrating;
  axis.mode = CellMode::kNumaOnly;
  EXPECT_EQ(axis.Key(), "FFT/t7/s0.25/mt4/gl1.5/reconsider20ms/v1/ps16384/migrating/numa-only");

  for (const std::string& name : SuiteNames()) {
    Suite suite = MakeSuite(name);
    std::set<std::string> keys;
    for (const SweepCell& c : suite.cells) {
      EXPECT_TRUE(keys.insert(c.Key()).second)
          << "duplicate key in suite " << name << ": " << c.Key();
    }
    EXPECT_FALSE(suite.cells.empty()) << name;
  }
}

// The baseline comparator reads cells back by key: every ablations cell must
// serialize under its own key, each off-default axis as its own member.
TEST(SweepCellKey, AblationAxesRoundTripThroughJson) {
  SweepResult result;
  result.suite = "ablations";
  for (const SweepCell& cell : MakeSuite("ablations").cells) {
    CellResult r;
    r.cell = cell;
    r.ok = true;
    r.metrics.emplace_back("t_numa", 1.0);
    result.cells.push_back(r);
  }
  std::string json = SerializeSweep(result, /*include_host=*/false);
  std::string error;
  ASSERT_TRUE(ValidateSweepJson(json, &error)) << error;
  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  const JsonValue* cells = doc.Find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items.size(), result.cells.size());
  std::set<std::string> axes_seen;
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const JsonValue& parsed = cells->items[i];
    const SweepCell& want = result.cells[i].cell;
    EXPECT_EQ(parsed.StringOr("key", ""), want.Key());
    EXPECT_EQ(parsed.StringOr("policy", "move-limit"), want.policy.Name()) << want.Key();
    if (want.policy.kind == PolicySpec::Kind::kReconsider) {
      EXPECT_EQ(parsed.NumberOr("reconsider_after_ns", -1),
                static_cast<double>(want.policy.reconsider_after_ns))
          << want.Key();
    }
    EXPECT_EQ(parsed.NumberOr("variant", 0), want.variant) << want.Key();
    EXPECT_EQ(parsed.NumberOr("page_size", 4096), want.page_size) << want.Key();
    EXPECT_EQ(parsed.StringOr("scheduler", "affinity"),
              want.scheduler == SchedulerKind::kMigrating ? "migrating" : "affinity")
        << want.Key();
    EXPECT_EQ(parsed.StringOr("mode", "") == "optimal", want.mode == CellMode::kOptimal)
        << want.Key();
    for (const auto& [axis, off_default] :
         {std::pair{"policy", want.policy.kind != PolicySpec::Kind::kMoveLimit},
          std::pair{"variant", want.variant != 0},
          std::pair{"page_size", want.page_size != 4096},
          std::pair{"scheduler", want.scheduler != SchedulerKind::kAffinity},
          std::pair{"mode", want.mode == CellMode::kOptimal}}) {
      if (off_default) {
        axes_seen.insert(axis);
        EXPECT_NE(parsed.Find(axis), nullptr) << want.Key() << " lacks " << axis;
      }
    }
  }
  EXPECT_EQ(axes_seen.size(), 5u) << "the suite exercises every new axis";
}

// --- serialization schema ----------------------------------------------------------

SweepResult TinyResult() {
  SweepOptions options;
  options.workers = 2;
  return RunSweep("tiny", TinyMatrix(), options);
}

TEST(SweepReport, SerializedResultValidatesAndParses) {
  SweepResult result = TinyResult();
  std::string json = SerializeSweep(result, /*include_host=*/true);
  std::string error;
  EXPECT_TRUE(ValidateSweepJson(json, &error)) << error;

  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.StringOr("schema", ""), kBenchSchemaName);
  EXPECT_EQ(doc.StringOr("suite", ""), "tiny");
  ASSERT_NE(doc.Find("host"), nullptr);
  EXPECT_EQ(doc.Find("host")->NumberOr("workers", 0), 2.0);
  ASSERT_NE(doc.Find("cells"), nullptr);
  EXPECT_EQ(doc.Find("cells")->items.size(), TinyMatrix().size());

  // ParMult makes essentially no data references: alpha undefined => null in JSON,
  // and the round trip preserves that.
  bool saw_parmult = false;
  for (const JsonValue& cell : doc.Find("cells")->items) {
    if (cell.StringOr("app", "") == "ParMult") {
      saw_parmult = true;
      const JsonValue* alpha = cell.Find("metrics")->Find("alpha");
      ASSERT_NE(alpha, nullptr);
      EXPECT_EQ(alpha->kind, JsonValue::Kind::kNull);
    }
  }
  EXPECT_TRUE(saw_parmult);

  // The wall-time-free form must drop host and nothing else.
  std::string bare = SerializeSweep(result, /*include_host=*/false);
  EXPECT_TRUE(ValidateSweepJson(bare, &error)) << error;
  EXPECT_EQ(bare.find("wall_seconds"), std::string::npos);
}

TEST(SweepReport, ValidatorRejectsMalformedDocuments) {
  std::string error;
  EXPECT_FALSE(ValidateSweepJson("{", &error));
  EXPECT_FALSE(ValidateSweepJson("{}", &error));
  EXPECT_FALSE(ValidateSweepJson(R"({"schema":"wrong","suite":"x","machine":{},"cells":[]})",
                                 &error));
  // Cell missing its metrics object.
  EXPECT_FALSE(ValidateSweepJson(
      R"({"schema":"ace-bench-v1","suite":"x","machine":{},
          "cells":[{"key":"k","app":"a","mode":"full","threads":1,"scale":1,
                    "move_threshold":4,"gl_ratio":0,"ok":true}]})",
      &error));
  EXPECT_NE(error.find("metrics"), std::string::npos);
}

// --- failures.json ----------------------------------------------------------------

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

  std::string path = ::testing::TempDir() + "ace-sweep-failures.json";
  ASSERT_TRUE(WriteFailuresJson("smoke", failures, path, &error)) << error;
  std::ifstream in(path, std::ios::binary);
  std::string written((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_EQ(written, json);
  std::remove(path.c_str());
}

// --- baseline comparator -----------------------------------------------------------

// Build a baseline document from a result, with the given tolerance JSON fragment.
std::string BaselineFrom(const SweepResult& result, const std::string& tolerance_members) {
  std::string json = SerializeSweep(result, /*include_host=*/true);
  // Splice the tolerance members right after the opening brace.
  return "{" + tolerance_members + json.substr(1);
}

TEST(SweepBaseline, IdenticalResultPasses) {
  SweepResult result = TinyResult();
  std::string baseline = BaselineFrom(result, R"("default_tolerance":0.0,)");
  BaselineComparison cmp = CompareAgainstBaseline(result, baseline);
  EXPECT_TRUE(cmp.loaded);
  EXPECT_FALSE(cmp.HasRegression()) << RenderComparison(cmp);
  EXPECT_EQ(cmp.cells_compared, static_cast<int>(result.cells.size()));
  EXPECT_EQ(cmp.new_cells, 0);
}

TEST(SweepBaseline, PerturbedMetricBeyondToleranceIsARegression) {
  SweepResult result = TinyResult();
  std::string baseline = BaselineFrom(result, R"("default_tolerance":0.02,)");

  SweepResult perturbed = result;
  for (auto& [name, value] : perturbed.cells[0].metrics) {
    if (name == "t_numa") {
      value *= 1.10;  // +10% simulated time: a clear regression at 2% tolerance
    }
  }
  BaselineComparison cmp = CompareAgainstBaseline(perturbed, baseline);
  EXPECT_TRUE(cmp.HasRegression());

  // The same perturbation passes under a loose per-metric tolerance.
  std::string loose = BaselineFrom(
      result, R"("default_tolerance":0.02,"tolerances":{"t_numa":0.5},)");
  cmp = CompareAgainstBaseline(perturbed, loose);
  EXPECT_FALSE(cmp.HasRegression()) << RenderComparison(cmp);
}

TEST(SweepBaseline, MissingCellIsARegression) {
  SweepResult result = TinyResult();
  std::string baseline = BaselineFrom(result, R"("default_tolerance":0.0,)");
  SweepResult shrunk = result;
  shrunk.cells.pop_back();
  BaselineComparison cmp = CompareAgainstBaseline(shrunk, baseline);
  EXPECT_TRUE(cmp.HasRegression());
  bool saw_missing = false;
  for (const BaselineIssue& issue : cmp.issues) {
    saw_missing = saw_missing || issue.detail.find("missing from results") != std::string::npos;
  }
  EXPECT_TRUE(saw_missing);
}

TEST(SweepBaseline, NewCellIsReportedButPasses) {
  SweepResult result = TinyResult();
  std::string baseline = BaselineFrom(result, R"("default_tolerance":0.0,)");
  SweepResult grown = result;
  CellResult extra;
  extra.cell.app = "FFT";
  extra.cell.threads = 2;
  extra.ok = true;
  extra.metrics.emplace_back("t_numa", 1.0);
  grown.cells.push_back(extra);
  BaselineComparison cmp = CompareAgainstBaseline(grown, baseline);
  EXPECT_FALSE(cmp.HasRegression()) << RenderComparison(cmp);
  EXPECT_EQ(cmp.new_cells, 1);
}

TEST(SweepBaseline, NanMismatchIsARegressionAndNanMatchPasses) {
  SweepResult result = TinyResult();
  std::string baseline = BaselineFrom(result, R"("default_tolerance":0.0,)");

  // ParMult's alpha is NaN on both sides: passes (covered by IdenticalResultPasses).
  // Force a defined metric to NaN: regression.
  SweepResult broken = result;
  for (auto& [name, value] : broken.cells[0].metrics) {
    if (name == "t_numa") {
      value = std::nan("");
    }
  }
  BaselineComparison cmp = CompareAgainstBaseline(broken, baseline);
  EXPECT_TRUE(cmp.HasRegression());
  bool saw_nan = false;
  for (const BaselineIssue& issue : cmp.issues) {
    saw_nan = saw_nan || issue.detail.find("NaN") != std::string::npos;
  }
  EXPECT_TRUE(saw_nan);

  // And the reverse: baseline has null where the result now has a number.
  BaselineComparison reverse = CompareAgainstBaseline(result, SerializeSweep(broken, true));
  EXPECT_TRUE(reverse.HasRegression());
}

TEST(SweepBaseline, GlobalLegInheritsUnprefixedTolerance) {
  // A serving cell's two legs: the move-limit run unprefixed, all-global "g_".
  SweepResult result;
  result.suite = "tiny";
  CellResult cell;
  cell.cell.app = "Serving";
  cell.cell.mode = CellMode::kServing;
  cell.ok = true;
  cell.metrics = {{"t_numa", 0.3},
                  {"requests", 1500},
                  {"lat_p99_ms", 5.0},
                  {"g_requests", 1500},
                  {"g_lat_p99_ms", 2.0}};
  result.cells.push_back(cell);
  const std::string tolerances = R"("tolerances":{"requests":0,"lat_p99_ms":0.02},)";

  // g_requests takes requests' 0, not the looser default: off by one regresses.
  SweepResult drifted = result;
  drifted.cells[0].metrics[3].second += 1;
  BaselineComparison cmp = CompareAgainstBaseline(
      drifted, BaselineFrom(result, R"("default_tolerance":0.02,)" + tolerances));
  EXPECT_TRUE(cmp.HasRegression());
  EXPECT_NE(RenderComparison(cmp).find("[g_requests]"), std::string::npos)
      << RenderComparison(cmp);

  // g_lat_p99_ms takes lat_p99_ms' 2%, not the stricter default: 1% passes.
  SweepResult slower = result;
  slower.cells[0].metrics[4].second *= 1.01;
  cmp = CompareAgainstBaseline(
      slower, BaselineFrom(result, R"("default_tolerance":0.0,)" + tolerances));
  EXPECT_FALSE(cmp.HasRegression()) << RenderComparison(cmp);
}

TEST(SweepBaseline, UnparseableBaselineFailsClosed) {
  SweepResult result = TinyResult();
  BaselineComparison cmp = CompareAgainstBaseline(result, "not json at all");
  EXPECT_FALSE(cmp.loaded);
  EXPECT_TRUE(cmp.HasRegression());
  BaselineComparison missing = CompareAgainstBaselineFile(result, "/nonexistent/file.json");
  EXPECT_FALSE(missing.loaded);
  EXPECT_TRUE(missing.HasRegression());
}

// --- golden file -------------------------------------------------------------------

// The committed smoke baseline must stay schema-valid and must gate the metrics the
// engine actually emits: every baseline metric name appears in a freshly produced
// smoke cell's metric set, and exact-metric tolerances are present for the
// deterministic protocol counters.
TEST(SweepGolden, CommittedSmokeBaselineIsValidAndComplete) {
  std::ifstream in(std::string(ACE_BASELINE_DIR) + "/BENCH_smoke.json");
  ASSERT_TRUE(in) << "bench/baselines/BENCH_smoke.json missing";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();

  std::string error;
  ASSERT_TRUE(ValidateSweepJson(json, &error)) << error;

  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.StringOr("suite", ""), "smoke");
  ASSERT_NE(doc.Find("tolerances"), nullptr);
  ASSERT_NE(doc.Find("tolerance_notes"), nullptr);
  const JsonValue* tolerances = doc.Find("tolerances");
  EXPECT_EQ(tolerances->NumberOr("pages_pinned", -1.0), 0.0)
      << "protocol counters are deterministic and must be gated exactly";

  // The baseline's cell set must be exactly the current smoke suite's.
  Suite suite = MakeSuite("smoke");
  std::set<std::string> expected;
  for (const SweepCell& cell : suite.cells) {
    expected.insert(cell.Key());
  }
  std::set<std::string> in_baseline;
  for (const JsonValue& cell : doc.Find("cells")->items) {
    in_baseline.insert(cell.StringOr("key", ""));
  }
  EXPECT_EQ(expected, in_baseline)
      << "smoke suite and its baseline diverged; regenerate with "
         "ace_bench --suite smoke --out bench/baselines/BENCH_smoke.json "
         "(keep the tolerance members)";
}

TEST(SweepRender, TablesRenderFromSweepResults) {
  SweepResult result = TinyResult();
  std::string table3 = RenderTable3(result);
  EXPECT_NE(table3.find("IMatMult"), std::string::npos);
  EXPECT_NE(table3.find("Gfetch"), std::string::npos);
  std::string threshold = RenderThresholdTable(result);
  EXPECT_NE(threshold.find("inf"), std::string::npos);
  std::string gl = RenderGlTable(result);
  EXPECT_NE(gl.find("Gfetch"), std::string::npos);
  // Table 4 needs apps this tiny matrix lacks only partially: IMatMult is present.
  std::string table4 = RenderTable4(result);
  EXPECT_NE(table4.find("IMatMult"), std::string::npos);
}

// A suite's cells as a result, unexecuted: views select cells by their coordinates,
// so the choice of views can be checked without running a placement.
SweepResult UnrunSuite(const std::string& name) {
  SweepResult result;
  result.suite = name;
  for (const SweepCell& cell : MakeSuite(name, 2, 0.25).cells) {
    CellResult cell_result;
    cell_result.cell = cell;
    cell_result.ok = true;
    result.cells.push_back(cell_result);
  }
  return result;
}

TEST(SweepRender, ViewsPrintOnlyTheViewsWithCellsAndTheirCaptions) {
  std::string table4 = RenderViews(UnrunSuite("table4"));
  EXPECT_NE(table4.find("-- Table 3 view"), std::string::npos);
  EXPECT_NE(table4.find("machine: 2 processors"), std::string::npos);
  EXPECT_NE(table4.find("alpha(ref) is the directly"), std::string::npos);
  EXPECT_NE(table4.find("-- Table 4 view"), std::string::npos);
  EXPECT_NE(table4.find("page-movement overhead is a few percent or less"),
            std::string::npos);
  EXPECT_NE(table4.find("Primes3"), std::string::npos);
  EXPECT_EQ(table4.find("-- threshold view"), std::string::npos);
  EXPECT_EQ(table4.find("-- G/L view"), std::string::npos);
  EXPECT_EQ(table4.find("-- serving view"), std::string::npos);

  std::string threshold = RenderViews(UnrunSuite("threshold"));
  EXPECT_NE(threshold.find("-- threshold view"), std::string::npos);
  EXPECT_NE(threshold.find("inf = never pin"), std::string::npos);
  EXPECT_EQ(threshold.find("-- Table 3 view"), std::string::npos);
  EXPECT_EQ(threshold.find("-- Table 4 view"), std::string::npos);
  EXPECT_EQ(threshold.find("-- G/L view"), std::string::npos);
  EXPECT_EQ(threshold.find("-- serving view"), std::string::npos);

  std::string serving = RenderViews(UnrunSuite("serving"));
  EXPECT_NE(serving.find("-- serving view"), std::string::npos);
  EXPECT_EQ(serving.find("-- Table 3 view"), std::string::npos);
  EXPECT_EQ(serving.find("-- Table 4 view"), std::string::npos);
  EXPECT_EQ(serving.find("-- threshold view"), std::string::npos);
  EXPECT_EQ(serving.find("-- G/L view"), std::string::npos);
}

}  // namespace
}  // namespace ace
