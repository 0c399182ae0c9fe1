// Counter snapshot/diff: field-wise deltas of MachineStats between two points.
//
// Used by the golden-counter tests (tests/golden_counters_test.cc) to assert exactly
// which counters each NUMA-manager operation increments, by the overhead guardrail
// bench, and by ace_conform's per-policy activity summary. Header-only on purpose —
// usable from anything that already sees MachineStats.

#ifndef SRC_OBS_SNAPSHOT_H_
#define SRC_OBS_SNAPSHOT_H_

#include <cstdio>
#include <string>

#include "src/sim/stats.h"

namespace ace {

// Field-wise `after - before` over every MachineStats counter. Counters are monotone,
// so the result is well defined whenever `before` was captured earlier on the same
// machine. tests/obs_test.cc pins the struct's size, so a new counter fails to
// compile there until it is added here.
inline MachineStats DiffStats(const MachineStats& before, const MachineStats& after) {
  MachineStats d;
  for (std::size_t p = 0; p < d.refs.size(); ++p) {
    d.refs[p].fetch_local = after.refs[p].fetch_local - before.refs[p].fetch_local;
    d.refs[p].fetch_global = after.refs[p].fetch_global - before.refs[p].fetch_global;
    d.refs[p].fetch_remote = after.refs[p].fetch_remote - before.refs[p].fetch_remote;
    d.refs[p].store_local = after.refs[p].store_local - before.refs[p].store_local;
    d.refs[p].store_global = after.refs[p].store_global - before.refs[p].store_global;
    d.refs[p].store_remote = after.refs[p].store_remote - before.refs[p].store_remote;
  }
  d.page_faults = after.page_faults - before.page_faults;
  d.zero_fills = after.zero_fills - before.zero_fills;
  d.page_copies = after.page_copies - before.page_copies;
  d.page_syncs = after.page_syncs - before.page_syncs;
  d.page_flushes = after.page_flushes - before.page_flushes;
  d.page_unmaps = after.page_unmaps - before.page_unmaps;
  d.ownership_moves = after.ownership_moves - before.ownership_moves;
  d.pages_pinned = after.pages_pinned - before.pages_pinned;
  d.local_alloc_failures = after.local_alloc_failures - before.local_alloc_failures;
  d.degraded_global_fallbacks =
      after.degraded_global_fallbacks - before.degraded_global_fallbacks;
  d.degraded_copy_failures = after.degraded_copy_failures - before.degraded_copy_failures;
  d.degraded_pool_retries = after.degraded_pool_retries - before.degraded_pool_retries;
  d.degraded_oom_faults = after.degraded_oom_faults - before.degraded_oom_faults;
  d.chaos_events = after.chaos_events - before.chaos_events;
  d.evacuated_pages = after.evacuated_pages - before.evacuated_pages;
  d.replicated_pages = after.replicated_pages - before.replicated_pages;
  d.journal_bytes = after.journal_bytes - before.journal_bytes;
  d.recovered_pages = after.recovered_pages - before.recovered_pages;
  d.lost_pages = after.lost_pages - before.lost_pages;
  d.checksum_failures = after.checksum_failures - before.checksum_failures;
  return d;
}

// One-line summary of the protocol counters ("faults=3 copies=2 ..."), used in CI
// logs so a sweep's activity is visible at a glance.
inline std::string FormatProtocolCounters(const MachineStats& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "faults=%llu zero-fills=%llu copies=%llu syncs=%llu flushes=%llu "
                "unmaps=%llu moves=%llu pins=%llu alloc-fails=%llu",
                (unsigned long long)s.page_faults, (unsigned long long)s.zero_fills,
                (unsigned long long)s.page_copies, (unsigned long long)s.page_syncs,
                (unsigned long long)s.page_flushes, (unsigned long long)s.page_unmaps,
                (unsigned long long)s.ownership_moves, (unsigned long long)s.pages_pinned,
                (unsigned long long)s.local_alloc_failures);
  return buf;
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
// events. Surfaced by ace_run (with --trace-out/--jsonl-out) and carried in every
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
