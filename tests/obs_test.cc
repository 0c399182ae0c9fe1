// Observability-layer tests.
//
// The load-bearing check is the whole-application alpha cross-check: the heat
// profile's aggregate locality fraction must agree with MachineStats::MeasuredAlpha()
// to machine precision on real app runs — the two are fed from the same reference
// path but through entirely separate plumbing, so agreement means the heat profile
// attributes every single reference to the right page and memory class. The rest
// pins the tracer ring semantics, the Chrome-trace exporter's JSON shape and
// timestamp monotonicity, the hot-page ranking, and the snapshot/diff helpers.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <iterator>
#include <map>
#include <sstream>
#include <type_traits>

#include "src/apps/app.h"
#include "src/machine/machine.h"
#include "src/obs/export.h"
#include "src/obs/json_lite.h"
#include "src/obs/snapshot.h"

namespace ace {
namespace {

void RunAppWithHeatAndCrossCheck(const char* app_name) {
  Machine::Options mo;
  mo.config.num_processors = 4;
  Machine machine(mo);
  Observability& obs = machine.observability();
  obs.EnableHeat();

  AppConfig ac;
  ac.num_threads = 4;
  ac.scale = 0.25;
  AppResult result = CreateAppByName(app_name)->Run(machine, ac);
  ASSERT_TRUE(result.ok) << app_name << ": " << result.detail;

  const MachineStats& stats = machine.stats();
  const HeatProfile& heat = obs.heat();
  ASSERT_GT(stats.TotalRefs().Total(), 0u);
  // Every reference the machine counted must be attributed in the heat profile...
  EXPECT_EQ(heat.TotalRefs(), stats.TotalRefs().Total()) << app_name;
  // ...and to the same memory class, so the locality fractions agree exactly.
  EXPECT_NEAR(heat.AggregateAlpha(), stats.MeasuredAlpha(), 1e-12) << app_name;
}

TEST(ObsHeat, AlphaCrossCheckParMult) { RunAppWithHeatAndCrossCheck("ParMult"); }
TEST(ObsHeat, AlphaCrossCheckGfetch) { RunAppWithHeatAndCrossCheck("Gfetch"); }

TEST(ObsHeat, TopPagesRanksByOffNodeTrafficAndOmitsUntouched) {
  HeatProfile heat(2, 8);
  // Page 5: heavy off-node traffic. Page 2: some. Page 1: local only (cold for the
  // ranking key but still referenced). Page 7: never referenced — must be omitted.
  for (int i = 0; i < 10; ++i) heat.RecordRef(5, 0, MemoryClass::kGlobal, AccessKind::kFetch);
  for (int i = 0; i < 3; ++i) heat.RecordRef(2, 1, MemoryClass::kRemote, AccessKind::kStore);
  for (int i = 0; i < 50; ++i) heat.RecordRef(1, 0, MemoryClass::kLocal, AccessKind::kFetch);

  std::vector<LogicalPage> top = heat.TopPages(8);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 5u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 1u);
  // Truncation honors n.
  EXPECT_EQ(heat.TopPages(1).size(), 1u);
}

TEST(ObsTracer, RingKeepsNewestEventsAndCountsDrops) {
  Tracer t;
  t.Configure(/*num_processors=*/2, /*capacity_per_proc=*/8);
  for (std::uint32_t i = 0; i < 20; ++i) {
    t.Emit(TraceEventType::kSync, /*lp=*/i, /*proc=*/0, /*aux=*/0, /*ts=*/100 + i);
  }
  EXPECT_EQ(t.total_emitted(0), 20u);
  EXPECT_EQ(t.size(0), 8u);
  EXPECT_EQ(t.dropped(), 12u);
  EXPECT_EQ(t.total_emitted(1), 0u);

  // Oldest-first iteration yields exactly the newest 8 events, timestamps monotone.
  std::vector<TimeNs> ts;
  t.ForEach(0, [&](const TraceEvent& e) { ts.push_back(e.ts); });
  ASSERT_EQ(ts.size(), 8u);
  EXPECT_EQ(ts.front(), 112u);
  EXPECT_EQ(ts.back(), 119u);
  for (std::size_t i = 1; i < ts.size(); ++i) {
    EXPECT_LE(ts[i - 1], ts[i]);
  }
}

TEST(ObsExport, ChromeTraceParsesWithMonotonePerProcessorTimestamps) {
  Machine::Options mo;
  mo.config.num_processors = 3;
  mo.config.global_pages = 8;
  mo.config.local_pages_per_proc = 4;
  Machine machine(mo);
  Observability& obs = machine.observability();
  obs.EnableTracing(256);
  ASSERT_TRUE(obs.tracing());
  obs.EnableHeat();

  Task* task = machine.CreateTask("trace");
  VirtAddr va = task->MapAnonymous("data", 4 * machine.page_size());
  for (int round = 0; round < 3; ++round) {
    for (ProcId p = 0; p < 3; ++p) {
      for (std::uint32_t pg = 0; pg < 4; ++pg) {
        machine.StoreWord(*task, p, va + static_cast<VirtAddr>(pg) * machine.page_size(),
                          static_cast<std::uint32_t>(round));
      }
    }
  }
  ASSERT_GT(obs.tracer().total_emitted(), 0u);

  ExportContext ctx;
  ctx.tracer = &obs.tracer();
  std::ostringstream os;
  WriteChromeTrace(ctx, os);

  JsonValue doc;
  std::string error;
  ASSERT_TRUE(ParseJson(os.str(), &doc, &error)) << error;
  const JsonValue* events = doc.Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::map<int, double> last_ts;
  std::uint64_t instants = 0;
  for (const JsonValue& e : events->items) {
    if (e.StringOr("ph", "") != "i") {
      continue;  // metadata events carry no timestamp ordering contract
    }
    instants++;
    EXPECT_FALSE(e.StringOr("name", "").empty());
    int tid = static_cast<int>(e.NumberOr("tid", -1));
    ASSERT_GE(tid, 0);
    ASSERT_LT(tid, 3);
    double ts = e.NumberOr("ts", -1.0);
    ASSERT_GE(ts, 0.0);
    auto it = last_ts.find(tid);
    if (it != last_ts.end()) {
      EXPECT_LE(it->second, ts) << "tid " << tid;
    }
    last_ts[tid] = ts;
  }
  EXPECT_EQ(instants, obs.tracer().total_emitted());
}

TEST(ObsSnapshot, DiffStatsSubtractsFieldWise) {
  MachineStats a;
  a.page_faults = 10;
  a.zero_fills = 4;
  a.refs[1].fetch_local = 7;
  MachineStats b = a;
  b.page_faults = 13;
  b.page_copies = 2;
  b.pages_pinned = 1;
  b.refs[1].fetch_local = 9;
  b.refs[2].store_remote = 5;

  MachineStats d = DiffStats(a, b);
  EXPECT_EQ(d.page_faults, 3u);
  EXPECT_EQ(d.zero_fills, 0u);
  EXPECT_EQ(d.page_copies, 2u);
  EXPECT_EQ(d.pages_pinned, 1u);
  EXPECT_EQ(d.refs[1].fetch_local, 2u);
  EXPECT_EQ(d.refs[2].store_remote, 5u);

  std::string line = FormatProtocolCounters(d);
  EXPECT_NE(line.find("faults=3"), std::string::npos);
  EXPECT_NE(line.find("copies=2"), std::string::npos);
  EXPECT_NE(line.find("pins=1"), std::string::npos);
}

// MachineStats is a flat run of uint64 counters: kMaxProcessors x the reference
// classes, then the machine-wide counters, every one of them a registry row. A field
// declared outside the registry changes the size and fails here.
static_assert(std::is_trivially_copyable_v<MachineStats>);
static_assert(sizeof(MachineStats) ==
                  (kMaxProcessors * std::size(kRefClasses) + std::size(kMachineCounters)) *
                      sizeof(std::uint64_t),
              "MachineStats has a field outside the counter registry (src/sim/stats.h)");

TEST(ObsSnapshot, DiffStatsCoversEveryCounter) {
  // Give every counter a distinct value, without naming the fields.
  std::uint64_t words[sizeof(MachineStats) / sizeof(std::uint64_t)] = {};
  for (std::size_t i = 0; i < std::size(words); ++i) {
    words[i] = 1000 + i;
  }
  MachineStats s;
  std::memcpy(&s, words, sizeof s);

  MachineStats d = DiffStats(MachineStats{}, s);
  EXPECT_EQ(std::memcmp(&d, &s, sizeof s), 0);
}

TEST(ObsFacade, TracingRespectsCompileTimeToggle) {
  ProcClocks clocks(2);
  Observability obs(2, 8, &clocks);
  EXPECT_FALSE(obs.active());
  obs.EnableTracing(16);
  EXPECT_TRUE(obs.tracing());
  obs.EnableHeat();
  EXPECT_TRUE(obs.heat_on());
  EXPECT_TRUE(obs.active());
  // Heat profiling records alongside tracing.
  obs.OnRef(3, 1, MemoryClass::kRemote, AccessKind::kStore);
  EXPECT_EQ(obs.heat().page(3).store_remote, 1u);
  EXPECT_EQ(obs.heat().TotalRefs(), 1u);
}

}  // namespace
}  // namespace ace
