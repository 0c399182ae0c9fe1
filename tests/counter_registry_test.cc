// Counter-registry tests: every registered counter reaches every surface built from
// the registry (src/sim/stats.h).
//
// Each counter gets a distinct value, so a surface that drops a row, reads the wrong
// member or files a value under another counter's key fails with the row named: the
// mismatch text, the ace-live-v1 flattening and key set, the protocol one-liner, and
// the sweep runner's chaos and durability metrics (DiffStats has the same check in
// tests/obs_test.cc). The ace-live-v1 key list is pinned here in wire order, so a
// change to the feed format is deliberate.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "src/metrics/sweep/matrix.h"
#include "src/metrics/sweep/runner.h"
#include "src/obs/live_stream.h"
#include "src/obs/sampler.h"
#include "src/obs/snapshot.h"

namespace ace {
namespace {

constexpr std::size_t kWords = sizeof(MachineStats) / sizeof(std::uint64_t);

// Every word of MachineStats distinct: 1000, 1001, ... in declaration order.
MachineStats DistinctStats() {
  std::uint64_t words[kWords];
  for (std::size_t i = 0; i < kWords; ++i) {
    words[i] = 1000 + i;
  }
  MachineStats s;
  std::memcpy(&s, words, sizeof s);
  return s;
}

// The live counter a key names, or -1.
int LiveIndex(const std::string& key) {
  for (int i = 0; i < kNumLiveCounters; ++i) {
    if (key == LiveCounterKey(i)) {
      return i;
    }
  }
  return -1;
}

TEST(CounterRegistry, LiveKeysArePinnedInWireOrder) {
  const std::vector<std::string> expected = {
      "fetch_local",      "fetch_global",    "fetch_remote",      "store_local",
      "store_global",     "store_remote",    "faults",            "zero_fills",
      "copies",           "syncs",           "flushes",           "unmaps",
      "moves",            "pins",            "alloc_fails",       "deg_fallbacks",
      "deg_copy_fails",   "deg_pool_retries", "deg_oom_faults",   "tlb_hits",
      "tlb_misses",       "dec_local",       "dec_global",        "dec_remote",
      "trace_emitted",    "trace_dropped",   "user_ns",           "system_ns",
      "requests",         "req_lat_ns",      "chaos_events",      "evacuated_pages",
      "timeouts",         "retries",         "shed",              "replicated_pages",
      "journal_bytes",    "recovered_pages", "lost_pages",        "checksum_failures",
      "dead_nodes",
  };
  std::vector<std::string> keys;
  for (int i = 0; i < kNumLiveCounters; ++i) {
    keys.push_back(LiveCounterKey(i));
  }
  EXPECT_EQ(keys, expected);
  EXPECT_EQ(std::set<std::string>(keys.begin(), keys.end()).size(), keys.size())
      << "duplicate live key";
}

TEST(CounterRegistry, FlattenFilesEveryCounterUnderItsLiveKey) {
  LiveSample sample;
  sample.stats = DistinctStats();
  std::uint64_t flat[kNumLiveCounters];
  FlattenLiveCounters(sample, flat);

  const ProcRefCounts total = sample.stats.TotalRefs();
  for (const auto& r : kRefClasses) {
    const int i = LiveIndex(r.key);
    ASSERT_GE(i, 0) << r.key;
    EXPECT_EQ(flat[i], total.*r.member) << r.key;
  }
  for (const MachineCounter& c : kMachineCounters) {
    const int i = LiveIndex(c.key);
    ASSERT_GE(i, 0) << c.field << " has no live key";
    EXPECT_EQ(flat[i], sample.stats.*c.member) << c.field;
  }
}

TEST(CounterRegistry, FormatProtocolCountersPrintsTheProtocolGroup) {
  MachineStats s;
  std::uint64_t v = 1;
  for (const MachineCounter& c : kProtocolCounters) {
    s.*c.member = v++;
  }
  s.degraded_oom_faults = 99;  // other groups stay out of the line
  EXPECT_EQ(FormatProtocolCounters(s),
            "faults=1 zero-fills=2 copies=3 syncs=4 flushes=5 unmaps=6 moves=7 pins=8 "
            "alloc-fails=9");
}

TEST(CounterRegistry, MismatchTextNamesEveryCounter) {
  const MachineStats a = DistinctStats();
  EXPECT_EQ(DescribeStatsMismatch(a, a), "");
  for (const MachineCounter& c : kMachineCounters) {
    MachineStats b = a;
    b.*c.member += 1;
    const std::uint64_t x = a.*c.member;
    EXPECT_EQ(DescribeStatsMismatch(a, b), std::string(c.field) + " " + std::to_string(x) +
                                               " vs " + std::to_string(x + 1) + "; ");
  }
  MachineStats b = a;
  b.refs[3].store_global = 0;
  EXPECT_EQ(DescribeStatsMismatch(a, b),
            "proc 3 store_global " + std::to_string(a.refs[3].store_global) + " vs 0; ");
}

// The serving-killnode gate cell: its plan carries chaos and a permanent failure, so
// the runner emits both groups, each for the move-limit leg and then the all-global
// leg ("g_"), in registry order, right after the placement counters.
TEST(CounterRegistry, RunnerEmitsChaosAndDurabilityGroups) {
  const SweepCell cell = MakeSuite("serving-killnode").cells.at(0);
  const CellResult result = RunCell(cell, MachineConfig{});
  ASSERT_TRUE(result.ok) << result.detail;

  std::vector<std::string> expected;
  for (CounterGroup group : {CounterGroup(kChaosCounters), CounterGroup(kDurabilityCounters)}) {
    for (const char* prefix : {"", "g_"}) {
      for (const MachineCounter& c : group) {
        expected.push_back(prefix + std::string(c.key));
      }
    }
  }
  ASSERT_GE(result.metrics.size(), expected.size());
  std::vector<std::string> tail;
  double chaos_events = 0;
  double replicated_pages = 0;
  for (std::size_t i = result.metrics.size() - expected.size(); i < result.metrics.size();
       ++i) {
    const auto& [name, value] = result.metrics[i];
    tail.push_back(name);
    chaos_events = name == "chaos_events" ? value : chaos_events;
    replicated_pages = name == "replicated_pages" ? value : replicated_pages;
  }
  EXPECT_EQ(tail, expected);
  EXPECT_GT(chaos_events, 0.0);
  EXPECT_GT(replicated_pages, 0.0);
}

}  // namespace
}  // namespace ace
