// Live-telemetry tests (src/obs/sampler, src/obs/live_feed, the runtime hook).
//
// The two load-bearing guarantees:
//   * golden sum-of-deltas — a sampled run's ace-live-v1 segment validates, and the
//     summary's cumulative totals equal the machine's actual end-of-run counters
//     exactly (with and without the software TLB), so the per-interval deltas are a
//     lossless decomposition of the final counters;
//   * determinism — sampling is a pure observer: a sampled run's application result,
//     virtual clocks, and every MachineStats/TLB counter are identical to an
//     unsampled run's, and a whole sweep cell serializes to identical bytes.
// The rest pins the validator's contract (monotone timestamps, non-negative deltas,
// summary equality, torn-tail and open-segment tolerance), trace-ring drop
// visibility in the feed, and the watchdog's livelock budget reading the sample
// stream.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/inject/fault_plan.h"
#include "src/machine/machine.h"
#include "src/metrics/sweep/cell.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/obs/json_lite.h"
#include "src/obs/live_feed.h"
#include "src/obs/live_stream.h"
#include "src/obs/sampler.h"
#include "src/obs/snapshot.h"
#include "src/threads/watchdog.h"

namespace ace {
namespace {

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

struct SampledRun {
  AppResult app;
  MachineStats stats;
  TlbStats tlb;
  TimeNs user_ns = 0;
  TimeNs system_ns = 0;
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;
  std::string feed;  // whole feed text; empty for unsampled runs
  std::uint64_t samples = 0;
};

// One app run on a fresh machine, optionally streamed through a LiveSampler into a
// temp feed file — the same wiring ace_run --live-out uses. `trace_capacity` > 0
// additionally arms event tracing with a ring that small (to force drops). A
// non-empty `plan` arms that fault plan under the serving fault tests' setup
// (move-limit threshold 1, fault and client seed 1).
SampledRun RunApp(const char* app_name, bool tlb, bool sampled, TimeNs interval_ns,
                  std::size_t trace_capacity = 0, const std::string& plan = "") {
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.enable_tlb = tlb;
  AppConfig cfg;
  cfg.num_threads = 4;
  cfg.scale = 0.25;
  if (!plan.empty()) {
    std::string error;
    EXPECT_TRUE(FaultPlan::Parse(plan, &mo.fault_plan, &error)) << error;
    mo.policy = PolicySpec::MoveLimit(1);
    mo.fault_seed = 1;
    cfg.serving.seed = 1;
  }
  Machine machine(mo);
  if (trace_capacity > 0) {
    machine.observability().EnableTracing(trace_capacity);
    EXPECT_TRUE(machine.observability().tracing());
  }

  LiveStreamWriter writer;
  std::unique_ptr<LiveSampler> sampler;
  std::string path;
  if (sampled) {
    // Named after the running test too: ctest runs tests in parallel processes, and
    // two tests sampling the same app and TLB setting must not share one file.
    path = ::testing::TempDir() + "live_feed_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" + app_name +
           (tlb ? "_tlb" : "_notlb") + ".jsonl";
    EXPECT_TRUE(writer.Open(path, /*append=*/false));
    LiveSampler::Options so;
    so.interval_ns = interval_ns;
    so.tool = "live_sampler_test";
    sampler = std::make_unique<LiveSampler>(so, &writer);
    machine.observability().EnableHeat();
    sampler->SetSource(&Machine::LiveCaptureThunk, &machine);
    LiveRunMeta meta;
    meta.app = app_name;
    meta.policy = "move-limit";
    meta.procs = 4;
    meta.threads = 4;
    meta.pages = mo.config.global_pages;
    meta.page_size = mo.config.page_size;
    meta.tlb = machine.tlb_enabled();
    sampler->BeginRun(std::move(meta));
    cfg.runtime.sampler = sampler.get();
  }

  SampledRun out;
  out.app = CreateAppByName(app_name)->Run(machine, cfg);
  if (sampled) {
    sampler->EndRun(out.app.ok ? "ok" : "failed");
    out.samples = sampler->total_samples();
    writer.Close();
    EXPECT_TRUE(writer.ok());
    out.feed = ReadFileOrDie(path);
  }
  out.stats = machine.stats();
  out.tlb = machine.tlb_stats();
  out.user_ns = machine.clocks().TotalUser();
  out.system_ns = machine.clocks().TotalSystem();
  out.trace_emitted = machine.observability().tracer().total_emitted();
  out.trace_dropped = machine.observability().tracer().dropped();
  return out;
}

LiveFeedState FoldFeed(const std::string& feed) {
  LiveFeedParser parser;
  std::vector<JsonValue> recs;
  EXPECT_TRUE(parser.Feed(feed, &recs)) << parser.error();
  LiveFeedState state;
  for (const JsonValue& rec : recs) {
    EXPECT_TRUE(state.Apply(rec)) << state.error;
  }
  return state;
}

// --- golden sum-of-deltas ------------------------------------------------------------

// The summary equals the machine's actual final counters: every registered machine
// counter under its live key, and the counters the sampler adds from elsewhere.
void ExpectSummaryMatchesRun(const LiveFeedState& state, const SampledRun& run) {
  const ProcRefCounts t = run.stats.TotalRefs();
#define EXPECT_LIVE_REF(field, key) EXPECT_EQ(state.totals[kLc_##field], t.field) << key;
#define EXPECT_LIVE_STAT(field, key) \
  EXPECT_EQ(state.totals[kLc_##field], run.stats.field) << key;
  ACE_REF_CLASSES(EXPECT_LIVE_REF)
  ACE_MACHINE_COUNTERS(EXPECT_LIVE_STAT)
#undef EXPECT_LIVE_REF
#undef EXPECT_LIVE_STAT
  EXPECT_EQ(state.totals[kLc_tlb_hits], run.tlb.hits);
  EXPECT_EQ(state.totals[kLc_tlb_misses], run.tlb.misses);
  EXPECT_EQ(state.totals[kLc_user_ns], static_cast<std::uint64_t>(run.user_ns));
  EXPECT_EQ(state.totals[kLc_system_ns], static_cast<std::uint64_t>(run.system_ns));
}

SampledRun GoldenSumOfDeltas(const char* app_name, bool tlb, const std::string& plan = "") {
  SampledRun run = RunApp(app_name, tlb, /*sampled=*/true, /*interval_ns=*/1'000'000,
                          /*trace_capacity=*/0, plan);
  EXPECT_TRUE(run.app.ok) << run.app.detail;
  EXPECT_GT(run.samples, 1u) << "cadence never fired: the runtime hook is dead";

  // The validator proves per-segment sum-of-deltas == summary...
  LiveValidateResult v = ValidateLiveFeed(run.feed);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.segments, 1u);
  EXPECT_EQ(v.samples, run.samples);
  EXPECT_FALSE(v.torn_tail);
  EXPECT_FALSE(v.open_segment);

  // ...and this closes the loop: the summary equals the machine's actual final
  // counters, so the deltas are a lossless decomposition of the run.
  LiveFeedState state = FoldFeed(run.feed);
  EXPECT_TRUE(state.finished);
  EXPECT_EQ(state.outcome, "ok");
  ExpectSummaryMatchesRun(state, run);
  if (tlb) {
    EXPECT_GT(state.totals[kLc_tlb_hits], 0u);
  } else {
    EXPECT_EQ(state.totals[kLc_tlb_hits], 0u);
    EXPECT_EQ(state.totals[kLc_tlb_misses], 0u);
  }
  // Heat profiling rode along: policy decisions and hot-page rows made it into the
  // feed (the numatop-style views render from these).
  EXPECT_GT(state.totals[kLc_dec_local] + state.totals[kLc_dec_global] +
                state.totals[kLc_dec_remote],
            0u);
  EXPECT_NE(run.feed.find("\"hot\":["), std::string::npos);

  // Truncating mid-summary is the crash shape: still valid, flagged as torn.
  LiveValidateResult torn = ValidateLiveFeed(run.feed.substr(0, run.feed.size() - 7));
  EXPECT_TRUE(torn.ok) << torn.error;
  EXPECT_TRUE(torn.torn_tail);
  return run;
}

TEST(LiveGolden, DeltasSumToFinalCountersWithTlb) { GoldenSumOfDeltas("IMatMult", true); }
TEST(LiveGolden, DeltasSumToFinalCountersWithoutTlb) { GoldenSumOfDeltas("IMatMult", false); }

// The serving fault tests' canonical permanent-failure plan: a corruption burst on
// node 1, then node 2 dies. The chaos and durability keys move, so the golden
// comparison above covers them with non-zero values.
TEST(LiveGolden, DeltasSumToFinalCountersUnderKillNode) {
  SampledRun run = GoldenSumOfDeltas(
      "Serving", true, "corrupt-page@1:2000000:4000000:1000;kill-node@2:5000000");
  EXPECT_GT(CounterGroupTotal(run.stats, kChaosCounters), 0u);
  EXPECT_GT(run.stats.replicated_pages, 0u);
  EXPECT_GT(run.stats.recovered_pages, 0u);
  EXPECT_GT(run.stats.checksum_failures, 0u);
  EXPECT_EQ(FoldFeed(run.feed).totals[kLc_dead_nodes], 1u << 2);
}

// --- determinism ---------------------------------------------------------------------

// Sampling must not perturb the simulation: same app, same config, same seed, with
// and without the sampler attached — every counter and clock identical.
TEST(LiveDeterminism, SampledRunMatchesUnsampledExactly) {
  SampledRun bare = RunApp("ParMult", /*tlb=*/true, /*sampled=*/false, 0);
  SampledRun sampled = RunApp("ParMult", /*tlb=*/true, /*sampled=*/true, 1'000'000);
  ASSERT_TRUE(bare.app.ok) << bare.app.detail;
  ASSERT_TRUE(sampled.app.ok) << sampled.app.detail;
  EXPECT_GT(sampled.samples, 0u);

  EXPECT_EQ(bare.app.detail, sampled.app.detail);
  EXPECT_EQ(bare.user_ns, sampled.user_ns);
  EXPECT_EQ(bare.system_ns, sampled.system_ns);
  EXPECT_TRUE(bare.stats == sampled.stats) << DescribeStatsMismatch(bare.stats, sampled.stats);
  // TLB behavior identical too.
  EXPECT_EQ(bare.tlb.hits, sampled.tlb.hits);
  EXPECT_EQ(bare.tlb.misses, sampled.tlb.misses);
  EXPECT_EQ(bare.tlb.fills, sampled.tlb.fills);
  EXPECT_EQ(bare.tlb.shootdown_pages, sampled.tlb.shootdown_pages);
  EXPECT_EQ(bare.tlb.run_flushes, sampled.tlb.run_flushes);
  EXPECT_EQ(bare.tlb.batched_refs, sampled.tlb.batched_refs);
}

// Same guarantee one layer up: a sweep cell's serialized bytes are identical with
// and without a sampler riding along (the GenerousLimitsDoNotChangeResults pattern).
TEST(LiveDeterminism, SampledCellBytesMatchUnsampled) {
  SweepCell cell;
  cell.app = "IMatMult";
  cell.threads = 3;
  cell.scale = 0.1;
  CellResult bare = RunCell(cell, MachineConfig{});
  LiveSampler::Options so;
  so.interval_ns = 1'000'000;
  LiveSampler sampler(so, /*sink=*/nullptr);  // bare sampler: capture without a feed
  CellResult sampled = RunCell(cell, MachineConfig{}, WatchdogLimits{}, &sampler);
  EXPECT_GT(sampler.segments(), 0u);
  EXPECT_EQ(SerializeCellObject(bare), SerializeCellObject(sampled));
}

// --- validator contract --------------------------------------------------------------

std::string MetaLine() {
  return "{\"type\":\"meta\",\"format\":\"ace-live-v1\",\"version\":1,\"tool\":\"t\","
         "\"app\":\"a\",\"policy\":\"p\",\"procs\":1,\"threads\":1,\"pages\":4,"
         "\"page_size\":4096,\"seed\":0,\"fault_plan\":\"\",\"tlb\":0,"
         "\"sample_interval_ns\":1000,\"tag\":\"\"}\n";
}

using Counters = std::array<long long, kNumLiveCounters>;

std::string CounterFields(const Counters& v) {
  std::string s;
  for (int i = 0; i < kNumLiveCounters; ++i) {
    s += ",\"";
    s += LiveCounterKey(i);
    s += "\":";
    s += std::to_string(v[i]);
  }
  return s;
}

std::string SampleLine(int idx, long long ts, long long dur, const Counters& v) {
  return "{\"type\":\"sample\",\"idx\":" + std::to_string(idx) +
         ",\"ts_ns\":" + std::to_string(ts) + ",\"dur_ns\":" + std::to_string(dur) +
         CounterFields(v) +
         ",\"trace_dropped_total\":0,\"procs\":[[0,0,0,0,0,0,0,0]]}\n";
}

std::string SummaryLine(int samples, long long ts, const Counters& v) {
  return "{\"type\":\"summary\",\"samples\":" + std::to_string(samples) +
         ",\"ts_ns\":" + std::to_string(ts) + ",\"outcome\":\"ok\"" + CounterFields(v) +
         ",\"trace_dropped_total\":0,\"alpha\":0.5}\n";
}

Counters OneDelta(int counter, long long value) {
  Counters v{};
  v[static_cast<std::size_t>(counter)] = value;
  return v;
}

TEST(LiveValidator, AcceptsAWellFormedSegment) {
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLc_fetch_local, 2)) +
                     SampleLine(1, 2000, 1000, OneDelta(kLc_fetch_local, 3)) +
                     SummaryLine(2, 2000, OneDelta(kLc_fetch_local, 5));
  LiveValidateResult v = ValidateLiveFeed(feed);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.segments, 1u);
  EXPECT_EQ(v.samples, 2u);
  EXPECT_FALSE(v.torn_tail);
  EXPECT_FALSE(v.open_segment);
}

TEST(LiveValidator, RejectsTimestampRegression) {
  std::string feed = MetaLine() + SampleLine(0, 2000, 2000, OneDelta(kLc_page_faults, 1)) +
                     SampleLine(1, 1000, 0, OneDelta(kLc_page_faults, 1)) +
                     SummaryLine(2, 1000, OneDelta(kLc_page_faults, 2));
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, RejectsNegativeDelta) {
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLc_page_syncs, -1)) +
                     SummaryLine(1, 1000, OneDelta(kLc_page_syncs, -1));
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, RejectsSummaryThatDoesNotEqualTheDeltaSum) {
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLc_ownership_moves, 3)) +
                     SummaryLine(1, 1000, OneDelta(kLc_ownership_moves, 4));
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, RejectsGarbageOnAnInteriorLine) {
  std::string feed = MetaLine() + "not json\n" +
                     SummaryLine(0, 1000, Counters{});
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, ToleratesATornFinalLineOnly) {
  std::string good = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLc_page_faults, 1)) +
                     SummaryLine(1, 1000, OneDelta(kLc_page_faults, 1));
  // Final line unterminated (the writer died before its newline): tolerated.
  std::string unterminated = good.substr(0, good.size() - 1);
  LiveValidateResult v1 = ValidateLiveFeed(unterminated);
  EXPECT_TRUE(v1.ok) << v1.error;
  EXPECT_TRUE(v1.torn_tail);
  // Final line cut mid-record: also tolerated.
  LiveValidateResult v2 = ValidateLiveFeed(good.substr(0, good.size() - 20));
  EXPECT_TRUE(v2.ok) << v2.error;
  EXPECT_TRUE(v2.torn_tail);
}

TEST(LiveValidator, ToleratesATrailingOpenSegment) {
  // A still-running (or killed) writer: meta + samples, summary never arrived.
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLc_page_faults, 1));
  LiveValidateResult v = ValidateLiveFeed(feed);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_TRUE(v.open_segment);
  EXPECT_EQ(v.segments, 0u);
}

TEST(LiveValidator, RejectsAnEmptyFeed) {
  EXPECT_FALSE(ValidateLiveFeed("").ok);
}

// The meta procs count sizes the per-processor tables: the validator and the display
// both reject a count outside the machine model before casting it.
TEST(LiveValidator, RejectsMetaProcsOutsideTheMachine) {
  const struct {
    const char* json;
    const char* shown;
  } kCases[] = {{"0", "0"}, {"60", "60"}, {"2000000000", "2e+09"}, {"1e300", "1e+300"}};
  for (const auto& c : kCases) {
    std::string meta = MetaLine();
    meta.replace(meta.find("\"procs\":1"), 9, std::string("\"procs\":") + c.json);
    const std::string want = std::string("meta procs ") + c.shown + " outside [1, 16]";
    LiveValidateResult v =
        ValidateLiveFeed(meta + SummaryLine(0, 1000, Counters{}));
    EXPECT_FALSE(v.ok) << c.json;
    EXPECT_EQ(v.error, "line 1: " + want);

    JsonValue rec;
    std::string error;
    ASSERT_TRUE(ParseJson(meta, &rec, &error)) << error;
    LiveFeedState state;
    EXPECT_FALSE(state.Apply(rec)) << c.json;
    EXPECT_EQ(state.error, want);
    EXPECT_FALSE(state.have_meta);
    EXPECT_TRUE(state.proc_totals.empty());
  }
}

// --- trace-ring drop visibility ------------------------------------------------------

// With a deliberately tiny ring, drops must show up in the feed (per-sample
// cumulative counter and summary) and agree with the tracer's own count, and the
// snapshot formatter must flag the wrap.
TEST(LiveTraceRing, DropsAreVisibleInFeedAndSnapshot) {
  SampledRun run = RunApp("IMatMult", /*tlb=*/false, /*sampled=*/true,
                          /*interval_ns=*/1'000'000, /*trace_capacity=*/4);
  ASSERT_TRUE(run.app.ok) << run.app.detail;
  ASSERT_GT(run.trace_dropped, 0u) << "ring never wrapped: capacity too large";

  LiveValidateResult v = ValidateLiveFeed(run.feed);
  ASSERT_TRUE(v.ok) << v.error;
  LiveFeedState state = FoldFeed(run.feed);
  EXPECT_EQ(state.totals[kLc_trace_emitted], run.trace_emitted);
  EXPECT_EQ(state.totals[kLc_trace_dropped], run.trace_dropped);
  EXPECT_EQ(state.trace_dropped_total, run.trace_dropped);

  std::string s = FormatTraceRingCounters(run.trace_emitted, run.trace_dropped);
  EXPECT_NE(s.find("dropped="), std::string::npos);
  EXPECT_NE(s.find("rings wrapped"), std::string::npos);
}

// --- watchdog integration ------------------------------------------------------------

// Sampling is a pure observer of the watchdog too: a run with a live sampler trips
// its livelock budget at the same point, with the same report, as one without.
TEST(LiveWatchdog, LivelockTripIsTheSameWithAndWithoutASampler) {
  SweepCell cell;
  cell.app = "PingPongForever";
  cell.threads = 3;
  cell.scale = 0.1;
  cell.mode = CellMode::kNumaOnly;
  cell.policy.move_threshold = kInfMoveThreshold;  // never pin: unbounded ping-pong
  WatchdogLimits limits;
  limits.move_budget = 5000;
  LiveSampler::Options so;
  so.interval_ns = 50'000'000;
  LiveSampler sampler(so, /*sink=*/nullptr);
  CellResult sampled = RunCell(cell, MachineConfig{}, limits, &sampler);
  CellResult unsampled = RunCell(cell, MachineConfig{}, limits);
  ASSERT_TRUE(sampled.died()) << "livelocked cell was not killed";
  ASSERT_TRUE(unsampled.died()) << "livelocked cell was not killed";
  EXPECT_EQ(sampled.failure_kind, "watchdog-livelock");
  EXPECT_EQ(sampled.failure_kind, unsampled.failure_kind);
  EXPECT_EQ(sampled.failure_detail, unsampled.failure_detail);
}

}  // namespace
}  // namespace ace
