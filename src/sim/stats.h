// Machine-wide event counters.
//
// Two uses: (1) validation — the paper *derives* the locality fraction alpha from
// measured times (eq. 4); the simulator can also count references directly, and tests
// check that the derived and counted values agree; (2) the Table 4 / section 3.3
// overhead analysis (page moves, copies, faults).

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <array>
#include <cstdint>

#include "src/common/types.h"

namespace ace {

struct ProcRefCounts {
  std::uint64_t fetch_local = 0;
  std::uint64_t fetch_global = 0;
  std::uint64_t fetch_remote = 0;
  std::uint64_t store_local = 0;
  std::uint64_t store_global = 0;
  std::uint64_t store_remote = 0;

  std::uint64_t Total() const {
    return fetch_local + fetch_global + fetch_remote + store_local + store_global + store_remote;
  }
  std::uint64_t LocalTotal() const { return fetch_local + store_local; }
  std::uint64_t GlobalTotal() const { return fetch_global + store_global; }
  std::uint64_t RemoteTotal() const { return fetch_remote + store_remote; }

  bool operator==(const ProcRefCounts&) const = default;
};

struct MachineStats {
  std::array<ProcRefCounts, kMaxProcessors> refs{};

  // VM / NUMA machinery events.
  std::uint64_t page_faults = 0;
  std::uint64_t zero_fills = 0;
  std::uint64_t page_copies = 0;        // any frame-to-frame page copy
  std::uint64_t page_syncs = 0;         // local-writable copied back to global
  std::uint64_t page_flushes = 0;       // cached copy dropped
  std::uint64_t page_unmaps = 0;        // mapping dropped (global pages)
  std::uint64_t ownership_moves = 0;    // local-writable migrations between processors
  std::uint64_t pages_pinned = 0;       // pages the policy permanently placed global
  std::uint64_t local_alloc_failures = 0;  // wanted a local frame, local memory full

  // Graceful-degradation accounting (DESIGN.md section 8). All four stay zero unless
  // memory is lost *mid-operation* (after cleanup already began) or a fault plan
  // (src/inject) is armed; the pre-cleanup exhaustion fallback is counted above as
  // local_alloc_failures, exactly as before.
  std::uint64_t degraded_global_fallbacks = 0;  // resolution re-routed to the GLOBAL path
  std::uint64_t degraded_copy_failures = 0;     // local copy failed after frame allocation
  std::uint64_t degraded_pool_retries = 0;      // extra evict+alloc rounds beyond the first
  std::uint64_t degraded_oom_faults = 0;        // fault gave up after the bounded retries

  // Chaos accounting (DESIGN.md section 13). Both exactly zero unless the fault plan
  // carries chaos events, so every chaos-free baseline survives unchanged.
  std::uint64_t chaos_events = 0;     // chaos transitions applied (activation + recovery)
  std::uint64_t evacuated_pages = 0;  // resident copies flushed/synced off a draining node

  // Durability accounting (DESIGN.md section 14). All five stay exactly zero unless
  // the fault plan carries a permanent chaos event (kill-node / corrupt-page) — only
  // then is the replica manager armed — so every pre-existing baseline, transient
  // chaos plans included, survives byte-identical.
  std::uint64_t replicated_pages = 0;   // dirty-page journals opened (off-node mirrors)
  std::uint64_t journal_bytes = 0;      // bytes written through open journals
  std::uint64_t recovered_pages = 0;    // pages reconstructed from mirror/journal/replica
  std::uint64_t lost_pages = 0;         // unreplicated owned pages lost with their node
  std::uint64_t checksum_failures = 0;  // corrupted frames detected by the checksum scrub

  // One data reference, recorded as it happens by both halves of the reference path
  // (the software-TLB hit and the slow path's resolve).
  void RecordRef(ProcId proc, MemoryClass cls, AccessKind kind) {
    ProcRefCounts& c = refs[static_cast<std::size_t>(proc)];
    switch (cls) {
      case MemoryClass::kLocal:
        ++(kind == AccessKind::kFetch ? c.fetch_local : c.store_local);
        break;
      case MemoryClass::kGlobal:
        ++(kind == AccessKind::kFetch ? c.fetch_global : c.store_global);
        break;
      case MemoryClass::kRemote:
        ++(kind == AccessKind::kFetch ? c.fetch_remote : c.store_remote);
        break;
    }
  }

  ProcRefCounts TotalRefs() const {
    ProcRefCounts t;
    for (const auto& c : refs) {
      t.fetch_local += c.fetch_local;
      t.fetch_global += c.fetch_global;
      t.fetch_remote += c.fetch_remote;
      t.store_local += c.store_local;
      t.store_global += c.store_global;
      t.store_remote += c.store_remote;
    }
    return t;
  }

  // Directly measured locality fraction over data references, the counting analogue of
  // the paper's alpha (eq. 4).
  double MeasuredAlpha() const {
    ProcRefCounts t = TotalRefs();
    std::uint64_t total = t.Total();
    if (total == 0) {
      return 1.0;
    }
    return static_cast<double>(t.LocalTotal()) / static_cast<double>(total);
  }

  void Reset() { *this = MachineStats{}; }

  // Every field, the reference matrix included.
  bool operator==(const MachineStats&) const = default;
};

}  // namespace ace

#endif  // SRC_SIM_STATS_H_
