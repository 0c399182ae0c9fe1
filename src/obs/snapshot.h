// Counter snapshot/diff: field-wise deltas of MachineStats between two points, the
// mismatch text and the one-line formatters, all loops over the counter registry
// (src/sim/stats.h).
//
// Used by the golden-counter tests (tests/golden_counters_test.cc) to assert exactly
// which counters each NUMA-manager operation increments, and by ace_conform's
// per-policy activity summary. Header-only on purpose —
// usable from anything that already sees MachineStats.

#ifndef SRC_OBS_SNAPSHOT_H_
#define SRC_OBS_SNAPSHOT_H_

#include <algorithm>
#include <cstdio>
#include <string>

#include "src/sim/stats.h"

namespace ace {

// Field-wise `after - before` over every registered counter, the reference matrix
// included. Counters are monotone, so the result is well defined whenever `before`
// was captured earlier on the same machine.
inline MachineStats DiffStats(const MachineStats& before, const MachineStats& after) {
  MachineStats d;
  for (std::size_t p = 0; p < d.refs.size(); ++p) {
    for (const auto& r : kRefClasses) {
      d.refs[p].*r.member = after.refs[p].*r.member - before.refs[p].*r.member;
    }
  }
  for (const MachineCounter& c : kMachineCounters) {
    d.*c.member = after.*c.member - before.*c.member;
  }
  return d;
}

// Every registered counter on which `a` and `b` differ, named: the reference matrix
// first, then the scalar counters, both in declaration order ("proc 2 fetch_local
// 5 vs 6; page_faults 1 vs 2; "). Empty when a == b. Labels a failed equality check.
inline std::string DescribeStatsMismatch(const MachineStats& a, const MachineStats& b) {
  std::string out;
  auto note = [&out](const std::string& name, std::uint64_t x, std::uint64_t y) {
    if (x != y) {
      out += name + " " + std::to_string(x) + " vs " + std::to_string(y) + "; ";
    }
  };
  for (std::size_t p = 0; p < a.refs.size(); ++p) {
    for (const auto& r : kRefClasses) {
      note("proc " + std::to_string(p) + " " + r.field, a.refs[p].*r.member,
           b.refs[p].*r.member);
    }
  }
  for (const MachineCounter& c : kMachineCounters) {
    note(c.field, a.*c.member, b.*c.member);
  }
  return out;
}

// Display label of a counter: its live key with '-' for '_' ("zero-fills").
inline std::string CounterLabel(const char* key) {
  std::string label = key;
  std::replace(label.begin(), label.end(), '_', '-');
  return label;
}

// One-line summary of the protocol counters ("faults=3 zero-fills=1 ..."), used in
// CI logs so a sweep's activity is visible at a glance.
inline std::string FormatProtocolCounters(const MachineStats& s) {
  std::string out;
  for (const MachineCounter& c : kProtocolCounters) {
    if (!out.empty()) {
      out += ' ';
    }
    out += CounterLabel(c.key) + "=" + std::to_string(s.*c.member);
  }
  return out;
}

// One-line summary of the software-TLB fast-path counters (machine/tlb.h), the
// "tlb" counter group. `run_flushes` counts runs of one processor's hits on the same
// (page, kind) and `batched_refs` the hits those runs cover, so their ratio is the
// mean run length. Takes plain integers so obs stays independent of the machine
// layer; ace_run and the TLB tests feed it from Machine::tlb_stats().
inline std::string FormatTlbCounters(std::uint64_t hits, std::uint64_t misses,
                                     std::uint64_t fills, std::uint64_t conflict_evictions,
                                     std::uint64_t shootdown_pages,
                                     std::uint64_t shootdown_hits, std::uint64_t run_flushes,
                                     std::uint64_t batched_refs) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "hits=%llu misses=%llu fills=%llu conflict-evictions=%llu "
                "shootdown-pages=%llu shootdown-hits=%llu run-flushes=%llu "
                "batched-refs=%llu",
                (unsigned long long)hits, (unsigned long long)misses,
                (unsigned long long)fills, (unsigned long long)conflict_evictions,
                (unsigned long long)shootdown_pages, (unsigned long long)shootdown_hits,
                (unsigned long long)run_flushes, (unsigned long long)batched_refs);
  return buf;
}

// One-line summary of trace-ring pressure, the sampling-loss counters. A nonzero
// drop count means the per-processor rings wrapped and the oldest events were
// overwritten — any report or live feed built from the rings is missing that many
// events. Surfaced by ace_run (with --trace-out) and carried in every
// ace-live-v1 sample record so the loss is visible rather than silent.
inline std::string FormatTraceRingCounters(std::uint64_t emitted, std::uint64_t dropped) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "emitted=%llu dropped=%llu%s",
                (unsigned long long)emitted, (unsigned long long)dropped,
                dropped != 0 ? " (rings wrapped; oldest events lost)" : "");
  return buf;
}

}  // namespace ace

#endif  // SRC_OBS_SNAPSHOT_H_
