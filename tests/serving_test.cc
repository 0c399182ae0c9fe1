// Tests for the serving workload (src/serving): Zipfian client model shape,
// determinism and exactness against a binary-search oracle, open-loop arrival
// reproducibility, latency histogram/reservoir mechanics, byte-identical serving
// sweeps across worker counts and TLB settings, live-feed request counters, and the
// committed serving baseline's structure.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/app.h"
#include "src/machine/machine.h"
#include "src/metrics/experiment.h"
#include "src/metrics/sweep/matrix.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/obs/json_lite.h"
#include "src/obs/live_stream.h"
#include "src/obs/sampler.h"
#include "src/serving/latency.h"
#include "src/serving/workload.h"
#include "src/serving/zipf.h"

namespace ace {
namespace {

// --- client model ------------------------------------------------------------------

TEST(ZipfSampler, SkewConcentratesMassOnTopRanks) {
  constexpr std::uint32_t kKeys = 128;
  constexpr int kDraws = 20000;
  auto top8_share = [](double skew) {
    ZipfSampler sampler(kKeys, skew);
    ServingRng rng(42);
    int top = 0;
    for (int i = 0; i < kDraws; ++i) {
      if (sampler.Sample(rng) < 8) {
        ++top;
      }
    }
    return static_cast<double>(top) / kDraws;
  };
  double uniform = top8_share(0.0);
  double mild = top8_share(0.9);
  double heavy = top8_share(1.4);
  // Uniform: 8/128 = 6.25% expected. Skew must strictly concentrate.
  EXPECT_NEAR(uniform, 8.0 / 128.0, 0.02);
  EXPECT_GT(mild, uniform + 0.2);
  EXPECT_GT(heavy, mild + 0.05);
}

TEST(ZipfSampler, DrawsCoverTheFullRangeAndAreDeterministic) {
  ZipfSampler sampler(64, 0.6);
  ServingRng a(7), b(7);
  std::set<std::uint32_t> seen;
  for (int i = 0; i < 8000; ++i) {
    std::uint32_t ra = sampler.Sample(a);
    ASSERT_EQ(ra, sampler.Sample(b)) << "same seed must give the same draw stream";
    ASSERT_LT(ra, 64u);
    seen.insert(ra);
  }
  // Even the tail ranks of a mildly skewed 64-key space appear in 8000 draws.
  EXPECT_EQ(seen.size(), 64u);
}

// The reference the guide table must match exactly: a binary search for the first
// rank whose CDF exceeds u.
std::uint32_t BinarySearchRank(const std::vector<double>& cdf, double u) {
  std::uint32_t lo = 0;
  std::uint32_t hi = static_cast<std::uint32_t>(cdf.size()) - 1;
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    if (cdf[mid] > u) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

TEST(ZipfSampler, GuideTableMatchesBinarySearchAtEveryBoundary) {
  for (const std::uint32_t keys : {1u, 3u, 64u, 1000u, 4096u}) {
    for (const double skew : {0.0, 0.9, 4.0}) {
      SCOPED_TRACE(testing::Message() << "keys " << keys << " skew " << skew);
      const ZipfSampler sampler(keys, skew);
      const std::vector<double>& cdf = sampler.cdf();
      ASSERT_EQ(cdf.size(), keys);
      ASSERT_EQ(cdf.back(), 1.0);
      int mismatches = 0;
      auto check = [&](double u) {
        if (u >= 0.0 && u < 1.0 && sampler.Rank(u) != BinarySearchRank(cdf, u)) {
          ADD_FAILURE() << "u = " << std::hexfloat << u;
          ++mismatches;
        }
      };
      // Every CDF step, and the doubles on either side of it.
      for (const double c : cdf) {
        check(c);
        check(std::nextafter(c, 0.0));
        check(std::nextafter(c, 1.0));
      }
      // Every guide bucket edge k / M, and the double just below it.
      std::uint32_t buckets = 1;
      while (buckets < keys) {
        buckets *= 2;
      }
      for (std::uint32_t k = 0; k < buckets; ++k) {
        const double edge = static_cast<double>(k) / buckets;
        check(edge);
        check(std::nextafter(edge, 0.0));
      }
      check(std::nextafter(1.0, 0.0));
      // Seeded draws through Sample() itself.
      ServingRng draws(keys * 31 + static_cast<std::uint64_t>(skew * 10));
      ServingRng units(keys * 31 + static_cast<std::uint64_t>(skew * 10));
      for (int i = 0; i < 1'000'000 && mismatches < 10; ++i) {
        const std::uint32_t got = sampler.Sample(draws);
        const double u = units.Unit();
        if (got != BinarySearchRank(cdf, u)) {
          ADD_FAILURE() << "draw " << i << ": u = " << std::hexfloat << u;
          ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0);
    }
  }
}

TEST(ServingWorkload, SameSeedReproducesByteIdenticalTraces) {
  ServingParams params;
  params.requests = 2000;
  ServingWorkload a = BuildServingWorkload(params, 4);
  ServingWorkload b = BuildServingWorkload(params, 4);
  ASSERT_EQ(a.total_requests, b.total_requests);
  ASSERT_EQ(a.queues.size(), b.queues.size());
  for (std::size_t p = 0; p < a.queues.size(); ++p) {
    for (std::size_t t = 0; t < a.queues[p].size(); ++t) {
      ASSERT_EQ(a.queues[p][t].size(), b.queues[p][t].size());
      for (std::size_t i = 0; i < a.queues[p][t].size(); ++i) {
        const ServingRequest& ra = a.queues[p][t][i];
        const ServingRequest& rb = b.queues[p][t][i];
        ASSERT_EQ(ra.arrival_ns, rb.arrival_ns);
        ASSERT_EQ(ra.key, rb.key);
        ASSERT_EQ(ra.tenant, rb.tenant);
        ASSERT_EQ(ra.is_put, rb.is_put);
        ASSERT_EQ(ra.remote, rb.remote);
      }
    }
  }

  ServingParams other = params;
  other.seed = params.seed + 1;
  ServingWorkload c = BuildServingWorkload(other, 4);
  bool differs = false;
  for (std::size_t p = 0; p < a.queues.size() && !differs; ++p) {
    for (std::size_t t = 0; t < a.queues[p].size() && !differs; ++t) {
      differs = a.queues[p][t].size() != c.queues[p][t].size();
      for (std::size_t i = 0; !differs && i < a.queues[p][t].size(); ++i) {
        differs = a.queues[p][t][i].arrival_ns != c.queues[p][t][i].arrival_ns ||
                  a.queues[p][t][i].key != c.queues[p][t][i].key;
      }
    }
  }
  EXPECT_TRUE(differs) << "a different seed must draw a different client population";
}

TEST(ServingWorkload, OpenLoopArrivalsAreOrderedAndAccounted) {
  ServingParams params;
  params.tenants = 4;
  params.phases = 3;
  params.requests = 3000;
  const int kThreads = 5;
  ServingWorkload wl = BuildServingWorkload(params, kThreads);

  std::uint64_t total = 0, puts = 0, remotes = 0, last_arrival = 0;
  ASSERT_EQ(wl.queues.size(), static_cast<std::size_t>(params.phases));
  for (int phase = 0; phase < params.phases; ++phase) {
    ASSERT_EQ(wl.queues[phase].size(), static_cast<std::size_t>(kThreads));
    for (int tid = 0; tid < kThreads; ++tid) {
      std::uint64_t prev = 0;
      for (const ServingRequest& r : wl.queues[phase][tid]) {
        EXPECT_GE(r.arrival_ns, prev) << "per-shard queues must be arrival-ordered";
        prev = r.arrival_ns;
        last_arrival = std::max(last_arrival, r.arrival_ns);
        ASSERT_LT(static_cast<int>(r.tenant), params.tenants);
        ASSERT_LT(r.key, params.keys_per_tenant);
        total++;
        puts += r.is_put;
        remotes += r.remote;
        const int home = ServingHomeShard(r.tenant, phase, kThreads);
        if (r.remote) {
          EXPECT_EQ(r.is_put, 0) << "only GETs route off-home";
          EXPECT_NE(tid, home);
        } else {
          EXPECT_EQ(tid, home) << "non-remote requests execute on the home shard";
        }
      }
    }
  }
  EXPECT_EQ(total, wl.total_requests);
  EXPECT_EQ(total, params.requests);
  EXPECT_EQ(puts, wl.puts);
  EXPECT_EQ(remotes, wl.remote_gets);
  EXPECT_EQ(last_arrival, wl.horizon_ns);
  // The op mix tracks its permille knobs loosely (it is a random draw).
  EXPECT_GT(puts, params.requests / 5);
  EXPECT_LT(puts, params.requests / 2);
  EXPECT_GT(remotes, 0u);
}

TEST(ServingWorkload, SingleShardHasNoRemoteRouting) {
  ServingParams params;
  params.requests = 600;
  ServingWorkload wl = BuildServingWorkload(params, 1);
  EXPECT_EQ(wl.remote_gets, 0u);
}

// --- latency instruments -----------------------------------------------------------

TEST(LatencyHistogram, BucketsBoundAndPercentilesAreExactRanks) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  // Every recorded value is <= its bucket's upper bound (the percentile read-out).
  for (std::uint64_t ns : {0ull, 1ull, 31ull, 32ull, 1000ull, 123456ull, 987654321ull}) {
    EXPECT_LE(ns, LatencyHistogram::BucketUpperNs(LatencyHistogram::BucketIndex(ns)))
        << ns;
  }
  for (std::uint64_t ns = 1; ns <= 100; ++ns) {
    h.Record(ns * 1000);
  }
  EXPECT_EQ(h.count(), 100u);
  // Rank semantics: p50 covers the 50th smallest (50us), p99 the 99th (99us);
  // answers are bucket upper bounds, so within one sub-bucket width (~3.1%).
  EXPECT_NEAR(static_cast<double>(h.PercentileNs(50)), 50e3, 50e3 * 0.04);
  EXPECT_NEAR(static_cast<double>(h.PercentileNs(99)), 99e3, 99e3 * 0.04);
  EXPECT_EQ(h.max_ns(), 100'000u);

  LatencyHistogram other;
  other.Record(7);
  other.Merge(h);
  EXPECT_EQ(other.count(), 101u);
  EXPECT_EQ(other.sum_ns(), h.sum_ns() + 7);
}

TEST(LatencyReservoir, SeededSamplingIsDeterministic) {
  LatencyReservoir a(99), b(99);
  for (std::uint64_t i = 0; i < 5000; ++i) {
    a.Record(i * 17);
    b.Record(i * 17);
  }
  EXPECT_EQ(a.SampleQuantileNs(0.5), b.SampleQuantileNs(0.5));
  EXPECT_EQ(a.SampleQuantileNs(0.99), b.SampleQuantileNs(0.99));
  // The sampled median of 0..5000*17 sits near the true median.
  double p50 = static_cast<double>(a.SampleQuantileNs(0.5));
  EXPECT_GT(p50, 2500.0 * 17 * 0.8);
  EXPECT_LT(p50, 2500.0 * 17 * 1.2);
}

// --- end-to-end determinism --------------------------------------------------------

// The acceptance property from ISSUE: the serving suite serializes byte-identically
// whether dispatched on 1 worker or 8 (extends the sweep engine's guarantee to the
// latency metrics).
TEST(ServingSweep, ParallelDispatchDoesNotChangeLatencyMetrics) {
  Suite suite = MakeSuite("serving");
  SweepOptions serial;
  serial.workers = 1;
  SweepResult r1 = RunSweep(suite.name, suite.cells, serial);
  SweepOptions parallel;
  parallel.workers = 8;
  SweepResult r8 = RunSweep(suite.name, suite.cells, parallel);
  EXPECT_EQ(SerializeSweep(r1, /*include_host=*/false),
            SerializeSweep(r8, /*include_host=*/false));
  EXPECT_TRUE(r1.AllOk());

  std::string error;
  EXPECT_TRUE(ValidateSweepJson(SerializeSweep(r1, true), &error)) << error;

  // Serving cells round-trip through the forked-cell wire format (serialize +
  // parse + key cross-check), the path --isolate and checkpoint/resume use.
  CellResult forked = RunCellForked(suite.cells[0], MachineConfig{});
  EXPECT_TRUE(forked.ok) << forked.failure_detail;
  EXPECT_EQ(forked.cell.Key(), suite.cells[0].Key());
  EXPECT_GT(forked.MetricOr("lat_p99_ms", 0.0), 0.0);
}

// Latency percentiles are virtual-time-derived, so the software-TLB fast path must
// not move them by a nanosecond.
TEST(ServingSweep, TlbOnOffLatenciesAreByteIdentical) {
  std::unique_ptr<App> app = CreateAppByName("Serving");
  ASSERT_NE(app, nullptr);
  ExperimentOptions options;
  options.num_threads = 4;
  options.config.num_processors = 4;
  options.scale = 0.25;
  options.serving.tenants = 4;
  options.serving.zipf_skew = 1.1;

  options.enable_tlb = true;
  PlacementRun on = RunPlacement(*app, options, PolicySpec::MoveLimit(4), 4, 4);
  options.enable_tlb = false;
  PlacementRun off = RunPlacement(*app, options, PolicySpec::MoveLimit(4), 4, 4);

  EXPECT_TRUE(on.app.ok);
  EXPECT_TRUE(off.app.ok);
  EXPECT_GT(on.tlb_hits, 0u) << "fast path must engage";
  EXPECT_EQ(off.tlb_hits + off.tlb_fills, 0u);
  EXPECT_EQ(on.user_sec, off.user_sec);
  EXPECT_EQ(on.system_sec, off.system_sec);
  ASSERT_EQ(on.app.metrics.size(), off.app.metrics.size());
  for (std::size_t i = 0; i < on.app.metrics.size(); ++i) {
    EXPECT_EQ(on.app.metrics[i].first, off.app.metrics[i].first);
    EXPECT_EQ(on.app.metrics[i].second, off.app.metrics[i].second) << on.app.metrics[i].first;
  }
}

// The live feed's request counters: cumulative, monotone, and equal to the app's
// own request accounting at the end of the run.
TEST(ServingLive, RequestCountersReachTheLiveSample) {
  std::unique_ptr<App> app = CreateAppByName("Serving");
  ASSERT_NE(app, nullptr);
  Machine::Options mo;
  mo.config.num_processors = 2;
  Machine machine(mo);
  AppConfig cfg;
  cfg.num_threads = 2;
  cfg.serving.requests = 256;
  AppResult result = app->Run(machine, cfg);
  ASSERT_TRUE(result.ok) << result.detail;

  LiveSample sample;
  machine.CaptureLiveSample(&sample);
  EXPECT_EQ(sample.app_requests, 256u);
  EXPECT_GT(sample.app_req_lat_ns, 0u);

  // The flat counter vocabulary carries both, in the declared slots.
  std::uint64_t flat[kNumLiveCounters];
  FlattenLiveCounters(sample, flat);
  EXPECT_EQ(flat[kLc_requests], sample.app_requests);
  EXPECT_EQ(flat[kLc_req_lat_ns], sample.app_req_lat_ns);
  EXPECT_EQ(std::string(LiveCounterKey(kLc_requests)), "requests");
  EXPECT_EQ(std::string(LiveCounterKey(kLc_req_lat_ns)), "req_lat_ns");
}

// --- golden file -------------------------------------------------------------------

// The committed serving baseline mirrors SweepGolden: schema-valid, cell set equal
// to the current serving suite, counters gated exactly, latencies with tolerance.
TEST(ServingGolden, CommittedServingBaselineIsValidAndComplete) {
  std::ifstream in(std::string(ACE_BASELINE_DIR) + "/BENCH_serving_smoke.json");
  ASSERT_TRUE(in) << "bench/baselines/BENCH_serving_smoke.json missing";
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string json = buffer.str();

  std::string error;
  ASSERT_TRUE(ValidateSweepJson(json, &error)) << error;

  JsonValue doc;
  ASSERT_TRUE(ParseJson(json, &doc, &error)) << error;
  EXPECT_EQ(doc.StringOr("suite", ""), "serving");
  ASSERT_NE(doc.Find("tolerances"), nullptr);
  ASSERT_NE(doc.Find("tolerance_notes"), nullptr);
  const JsonValue* tolerances = doc.Find("tolerances");
  EXPECT_EQ(tolerances->NumberOr("requests", -1.0), 0.0)
      << "request counters are deterministic and must be gated exactly";
  EXPECT_EQ(tolerances->NumberOr("puts", -1.0), 0.0);

  Suite suite = MakeSuite("serving");
  std::set<std::string> expected;
  for (const SweepCell& cell : suite.cells) {
    expected.insert(cell.Key());
  }
  std::set<std::string> in_baseline;
  for (const JsonValue& cell : doc.Find("cells")->items) {
    in_baseline.insert(cell.StringOr("key", ""));
    EXPECT_NE(cell.Find("metrics")->Find("lat_p50_ms"), nullptr);
    EXPECT_NE(cell.Find("metrics")->Find("lat_p99_ms"), nullptr);
  }
  EXPECT_EQ(expected, in_baseline)
      << "serving suite and its baseline diverged; regenerate with "
         "ace_bench --suite serving --no-host --out bench/baselines/"
         "BENCH_serving_smoke.json (keep the tolerance members)";
}

}  // namespace
}  // namespace ace
