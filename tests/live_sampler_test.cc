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
// additionally arms event tracing with a ring that small (to force drops).
SampledRun RunApp(const char* app_name, bool tlb, bool sampled, TimeNs interval_ns,
                  std::size_t trace_capacity = 0) {
  Machine::Options mo;
  mo.config.num_processors = 4;
  mo.enable_tlb = tlb;
  Machine machine(mo);
  if (trace_capacity > 0) {
    EXPECT_TRUE(machine.observability().EnableTracing(trace_capacity));
  }

  AppConfig cfg;
  cfg.num_threads = 4;
  cfg.scale = 0.25;

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
    state.Apply(rec);
  }
  return state;
}

// --- golden sum-of-deltas ------------------------------------------------------------

void GoldenSumOfDeltas(bool tlb) {
  SampledRun run = RunApp("IMatMult", tlb, /*sampled=*/true, /*interval_ns=*/1'000'000);
  ASSERT_TRUE(run.app.ok) << run.app.detail;
  ASSERT_GT(run.samples, 1u) << "cadence never fired: the runtime hook is dead";

  // The validator proves per-segment sum-of-deltas == summary...
  LiveValidateResult v = ValidateLiveFeed(run.feed);
  ASSERT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.segments, 1u);
  EXPECT_EQ(v.samples, run.samples);
  EXPECT_FALSE(v.torn_tail);
  EXPECT_FALSE(v.open_segment);

  // ...and this closes the loop: the summary equals the machine's actual final
  // counters, so the deltas are a lossless decomposition of the run.
  LiveFeedState state = FoldFeed(run.feed);
  ASSERT_TRUE(state.finished);
  EXPECT_EQ(state.outcome, "ok");
  const ProcRefCounts t = run.stats.TotalRefs();
  EXPECT_EQ(state.totals[kLcFetchLocal], t.fetch_local);
  EXPECT_EQ(state.totals[kLcFetchGlobal], t.fetch_global);
  EXPECT_EQ(state.totals[kLcFetchRemote], t.fetch_remote);
  EXPECT_EQ(state.totals[kLcStoreLocal], t.store_local);
  EXPECT_EQ(state.totals[kLcStoreGlobal], t.store_global);
  EXPECT_EQ(state.totals[kLcStoreRemote], t.store_remote);
  EXPECT_EQ(state.totals[kLcFaults], run.stats.page_faults);
  EXPECT_EQ(state.totals[kLcZeroFills], run.stats.zero_fills);
  EXPECT_EQ(state.totals[kLcCopies], run.stats.page_copies);
  EXPECT_EQ(state.totals[kLcSyncs], run.stats.page_syncs);
  EXPECT_EQ(state.totals[kLcFlushes], run.stats.page_flushes);
  EXPECT_EQ(state.totals[kLcUnmaps], run.stats.page_unmaps);
  EXPECT_EQ(state.totals[kLcMoves], run.stats.ownership_moves);
  EXPECT_EQ(state.totals[kLcPins], run.stats.pages_pinned);
  EXPECT_EQ(state.totals[kLcAllocFails], run.stats.local_alloc_failures);
  EXPECT_EQ(state.totals[kLcTlbHits], run.tlb.hits);
  EXPECT_EQ(state.totals[kLcTlbMisses], run.tlb.misses);
  EXPECT_EQ(state.totals[kLcUserNs], static_cast<std::uint64_t>(run.user_ns));
  EXPECT_EQ(state.totals[kLcSystemNs], static_cast<std::uint64_t>(run.system_ns));
  if (tlb) {
    EXPECT_GT(state.totals[kLcTlbHits], 0u);
  } else {
    EXPECT_EQ(state.totals[kLcTlbHits], 0u);
    EXPECT_EQ(state.totals[kLcTlbMisses], 0u);
  }
  // Heat profiling rode along: policy decisions and hot-page rows made it into the
  // feed (the numatop-style views render from these).
  EXPECT_GT(state.totals[kLcDecLocal] + state.totals[kLcDecGlobal] +
                state.totals[kLcDecRemote],
            0u);
  EXPECT_NE(run.feed.find("\"hot\":["), std::string::npos);

  // Truncating mid-summary is the crash shape: still valid, flagged as torn.
  LiveValidateResult torn = ValidateLiveFeed(run.feed.substr(0, run.feed.size() - 7));
  EXPECT_TRUE(torn.ok) << torn.error;
  EXPECT_TRUE(torn.torn_tail);
}

TEST(LiveGolden, DeltasSumToFinalCountersWithTlb) { GoldenSumOfDeltas(true); }
TEST(LiveGolden, DeltasSumToFinalCountersWithoutTlb) { GoldenSumOfDeltas(false); }

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
  const MachineStats& x = bare.stats;
  const MachineStats& y = sampled.stats;
  EXPECT_EQ(x.page_faults, y.page_faults);
  EXPECT_EQ(x.zero_fills, y.zero_fills);
  EXPECT_EQ(x.page_copies, y.page_copies);
  EXPECT_EQ(x.page_syncs, y.page_syncs);
  EXPECT_EQ(x.page_flushes, y.page_flushes);
  EXPECT_EQ(x.page_unmaps, y.page_unmaps);
  EXPECT_EQ(x.ownership_moves, y.ownership_moves);
  EXPECT_EQ(x.pages_pinned, y.pages_pinned);
  EXPECT_EQ(x.local_alloc_failures, y.local_alloc_failures);
  ASSERT_EQ(x.refs.size(), y.refs.size());
  for (std::size_t p = 0; p < x.refs.size(); ++p) {
    EXPECT_EQ(x.refs[p].fetch_local, y.refs[p].fetch_local) << "proc " << p;
    EXPECT_EQ(x.refs[p].fetch_global, y.refs[p].fetch_global) << "proc " << p;
    EXPECT_EQ(x.refs[p].fetch_remote, y.refs[p].fetch_remote) << "proc " << p;
    EXPECT_EQ(x.refs[p].store_local, y.refs[p].store_local) << "proc " << p;
    EXPECT_EQ(x.refs[p].store_global, y.refs[p].store_global) << "proc " << p;
    EXPECT_EQ(x.refs[p].store_remote, y.refs[p].store_remote) << "proc " << p;
  }
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
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLcFetchLocal, 2)) +
                     SampleLine(1, 2000, 1000, OneDelta(kLcFetchLocal, 3)) +
                     SummaryLine(2, 2000, OneDelta(kLcFetchLocal, 5));
  LiveValidateResult v = ValidateLiveFeed(feed);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_EQ(v.segments, 1u);
  EXPECT_EQ(v.samples, 2u);
  EXPECT_FALSE(v.torn_tail);
  EXPECT_FALSE(v.open_segment);
}

TEST(LiveValidator, RejectsTimestampRegression) {
  std::string feed = MetaLine() + SampleLine(0, 2000, 2000, OneDelta(kLcFaults, 1)) +
                     SampleLine(1, 1000, 0, OneDelta(kLcFaults, 1)) +
                     SummaryLine(2, 1000, OneDelta(kLcFaults, 2));
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, RejectsNegativeDelta) {
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLcSyncs, -1)) +
                     SummaryLine(1, 1000, OneDelta(kLcSyncs, -1));
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, RejectsSummaryThatDoesNotEqualTheDeltaSum) {
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLcMoves, 3)) +
                     SummaryLine(1, 1000, OneDelta(kLcMoves, 4));
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, RejectsGarbageOnAnInteriorLine) {
  std::string feed = MetaLine() + "not json\n" +
                     SummaryLine(0, 1000, Counters{});
  EXPECT_FALSE(ValidateLiveFeed(feed).ok);
}

TEST(LiveValidator, ToleratesATornFinalLineOnly) {
  std::string good = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLcFaults, 1)) +
                     SummaryLine(1, 1000, OneDelta(kLcFaults, 1));
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
  std::string feed = MetaLine() + SampleLine(0, 1000, 1000, OneDelta(kLcFaults, 1));
  LiveValidateResult v = ValidateLiveFeed(feed);
  EXPECT_TRUE(v.ok) << v.error;
  EXPECT_TRUE(v.open_segment);
  EXPECT_EQ(v.segments, 0u);
}

TEST(LiveValidator, RejectsAnEmptyFeed) {
  EXPECT_FALSE(ValidateLiveFeed("").ok);
}

// --- trace-ring drop visibility ------------------------------------------------------

// With a deliberately tiny ring, drops must show up in the feed (per-sample
// cumulative counter and summary) and agree with the tracer's own count, and the
// snapshot formatter must flag the wrap.
TEST(LiveTraceRing, DropsAreVisibleInFeedAndSnapshot) {
  if (!Observability::TracingCompiledIn()) {
    GTEST_SKIP() << "ACE_TRACE compiled out";
  }
  SampledRun run = RunApp("IMatMult", /*tlb=*/false, /*sampled=*/true,
                          /*interval_ns=*/1'000'000, /*trace_capacity=*/4);
  ASSERT_TRUE(run.app.ok) << run.app.detail;
  ASSERT_GT(run.trace_dropped, 0u) << "ring never wrapped: capacity too large";

  LiveValidateResult v = ValidateLiveFeed(run.feed);
  ASSERT_TRUE(v.ok) << v.error;
  LiveFeedState state = FoldFeed(run.feed);
  EXPECT_EQ(state.totals[kLcTraceEmitted], run.trace_emitted);
  EXPECT_EQ(state.totals[kLcTraceDropped], run.trace_dropped);
  EXPECT_EQ(state.trace_dropped_total, run.trace_dropped);

  std::string s = FormatTraceRingCounters(run.trace_emitted, run.trace_dropped);
  EXPECT_NE(s.find("dropped="), std::string::npos);
  EXPECT_NE(s.find("rings wrapped"), std::string::npos);
}

// --- watchdog integration ------------------------------------------------------------

// With a sampler attached, the livelock budget is evaluated against the sample
// stream's traffic counter, and the kill report says so.
TEST(LiveWatchdog, LivelockBudgetReadsTheSampleStream) {
  SweepCell cell;
  cell.app = "PingPongForever";
  cell.threads = 3;
  cell.scale = 0.1;
  cell.mode = CellMode::kNumaOnly;
  cell.move_threshold = kInfMoveThreshold;  // never pin: unbounded ping-pong
  WatchdogLimits limits;
  limits.move_budget = 5000;
  LiveSampler::Options so;
  so.interval_ns = 1'000'000;
  LiveSampler sampler(so, /*sink=*/nullptr);
  CellResult result = RunCell(cell, MachineConfig{}, limits, &sampler);
  ASSERT_TRUE(result.died()) << "livelocked cell was not killed";
  EXPECT_EQ(result.failure_kind, "watchdog-livelock");
  EXPECT_NE(result.failure_detail.find("live sample stream"), std::string::npos)
      << result.failure_detail;
}

}  // namespace
}  // namespace ace
