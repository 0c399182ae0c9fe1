// Machine-wide event counters.
//
// Two uses: (1) validation — the paper *derives* the locality fraction alpha from
// measured times (eq. 4); the simulator can also count references directly, and tests
// check that the derived and counted values agree; (2) the Table 4 / section 3.3
// overhead analysis (page moves, copies, faults).
//
// The counter registry. Every machine counter is declared exactly once, as one row
// of the tables below, and everything that lists counters expands from them:
// ProcRefCounts and MachineStats themselves, DiffStats and the mismatch text
// (src/obs/snapshot.h), the ace-live-v1 vocabulary (src/obs/live_stream.h), the
// sweep runner's group metrics and the soak's zero-when-unarmed checks. Adding a
// counter means adding one row. Rows are X(field, "live_key"): the struct member
// and its ace-live-v1 JSON key.

#ifndef SRC_SIM_STATS_H_
#define SRC_SIM_STATS_H_

#include <array>
#include <cstdint>
#include <span>

#include "src/common/types.h"

// Data references by memory class served, fetches and stores kept apart.
#define ACE_REF_CLASSES(X)       \
  X(fetch_local, "fetch_local")   \
  X(fetch_global, "fetch_global") \
  X(fetch_remote, "fetch_remote") \
  X(store_local, "store_local")   \
  X(store_global, "store_global") \
  X(store_remote, "store_remote")

// VM / NUMA machinery events: the protocol group.
#define ACE_PROTOCOL_COUNTERS(X)                                                      \
  X(page_faults, "faults")                                                            \
  X(zero_fills, "zero_fills")                                                         \
  X(page_copies, "copies")                /* any frame-to-frame page copy */          \
  X(page_syncs, "syncs")                  /* local-writable copied back to global */  \
  X(page_flushes, "flushes")              /* cached copy dropped */                   \
  X(page_unmaps, "unmaps")                /* mapping dropped (global pages) */        \
  X(ownership_moves, "moves")             /* local-writable migrations */             \
  X(pages_pinned, "pins")                 /* pages the policy placed global for good */ \
  X(local_alloc_failures, "alloc_fails")  /* wanted a local frame, local memory full */

// Graceful-degradation accounting (DESIGN.md section 8). All four stay zero unless
// memory is lost *mid-operation* (after cleanup already began) or a fault plan
// (src/inject) is armed; the pre-cleanup exhaustion fallback is counted above as
// local_alloc_failures.
#define ACE_DEGRADED_COUNTERS(X)                                                         \
  X(degraded_global_fallbacks, "deg_fallbacks")  /* resolution re-routed to GLOBAL */    \
  X(degraded_copy_failures, "deg_copy_fails")    /* local copy failed after allocation */ \
  X(degraded_pool_retries, "deg_pool_retries")   /* evict+alloc rounds beyond the first */ \
  X(degraded_oom_faults, "deg_oom_faults")       /* fault gave up after bounded retries */

// Chaos accounting (DESIGN.md section 13). Both exactly zero unless the fault plan
// carries chaos events, so every chaos-free baseline survives unchanged.
#define ACE_CHAOS_COUNTERS(X)                                                      \
  X(chaos_events, "chaos_events")        /* chaos transitions (activation + recovery) */ \
  X(evacuated_pages, "evacuated_pages")  /* resident copies moved off a draining node */

// Durability accounting (DESIGN.md section 14). All five stay exactly zero unless the
// fault plan carries a permanent chaos event (kill-node / corrupt-page) — only then is
// the replica manager armed — so every transient-chaos baseline survives too.
#define ACE_DURABILITY_COUNTERS(X)                                                    \
  X(replicated_pages, "replicated_pages")    /* dirty-page journals opened */           \
  X(journal_bytes, "journal_bytes")          /* bytes written through open journals */  \
  X(recovered_pages, "recovered_pages")      /* pages rebuilt from mirror/journal */    \
  X(lost_pages, "lost_pages")                /* unreplicated owned pages lost */        \
  X(checksum_failures, "checksum_failures")  /* corrupted frames the scrub detected */

// Host work: what the runtime (src/threads/runtime.h) did to run the simulation.
// Deterministic like every other counter, and identical with the software TLB on and
// off, so the bench baselines gate them exactly: a change that adds dispatches fails
// on any host. Both are counted in Runtime::DispatchNextFrom.
#define ACE_HOST_COUNTERS(X)                                                          \
  X(dispatches, "dispatches")          /* scheduler picks, self re-dispatches too */ \
  X(stack_switches, "stack_switches")  /* dispatches that switched fiber stacks */

// Every scalar MachineStats counter, in declaration order.
#define ACE_MACHINE_COUNTERS(X) \
  ACE_PROTOCOL_COUNTERS(X)      \
  ACE_DEGRADED_COUNTERS(X)      \
  ACE_CHAOS_COUNTERS(X)         \
  ACE_DURABILITY_COUNTERS(X)    \
  ACE_HOST_COUNTERS(X)

#define ACE_COUNTER_FIELD(field, key) std::uint64_t field = 0;
#define ACE_COUNTER_PLUS(field, key) +field
#define ACE_COUNTER_ADD(field, key) field += o.field;

namespace ace {

struct ProcRefCounts {
  ACE_REF_CLASSES(ACE_COUNTER_FIELD)

  std::uint64_t Total() const { return 0 ACE_REF_CLASSES(ACE_COUNTER_PLUS); }
  std::uint64_t LocalTotal() const { return fetch_local + store_local; }
  std::uint64_t GlobalTotal() const { return fetch_global + store_global; }
  std::uint64_t RemoteTotal() const { return fetch_remote + store_remote; }
  // Counted locality fraction, the analogue of the paper's alpha (eq. 4); 1.0 when
  // nothing was recorded.
  double LocalFraction() const {
    return Total() == 0 ? 1.0 : static_cast<double>(LocalTotal()) / static_cast<double>(Total());
  }

  ProcRefCounts& operator+=(const ProcRefCounts& o) {
    ACE_REF_CLASSES(ACE_COUNTER_ADD)
    return *this;
  }

  // One data reference, counted in its class: the one copy of the class switch,
  // shared by MachineStats::RecordRef and HeatProfile::RecordRef.
  void Record(MemoryClass cls, AccessKind kind) {
    const bool fetch = kind == AccessKind::kFetch;
    switch (cls) {
      case MemoryClass::kLocal:
        ++(fetch ? fetch_local : store_local);
        break;
      case MemoryClass::kGlobal:
        ++(fetch ? fetch_global : store_global);
        break;
      case MemoryClass::kRemote:
        ++(fetch ? fetch_remote : store_remote);
        break;
    }
  }

  bool operator==(const ProcRefCounts&) const = default;
};

struct MachineStats {
  std::array<ProcRefCounts, kMaxProcessors> refs{};
  ACE_MACHINE_COUNTERS(ACE_COUNTER_FIELD)

  // One data reference, recorded as it happens by both halves of the reference path
  // (the software-TLB hit and the slow path's resolve).
  void RecordRef(ProcId proc, MemoryClass cls, AccessKind kind) {
    refs[static_cast<std::size_t>(proc)].Record(cls, kind);
  }

  ProcRefCounts TotalRefs() const {
    ProcRefCounts t;
    for (const ProcRefCounts& c : refs) {
      t += c;
    }
    return t;
  }

  // Directly measured locality fraction over data references, the counting analogue of
  // the paper's alpha (eq. 4).
  double MeasuredAlpha() const { return TotalRefs().LocalFraction(); }

  void Reset() { *this = MachineStats{}; }

  // Every field, the reference matrix included.
  bool operator==(const MachineStats&) const = default;
};

#undef ACE_COUNTER_FIELD
#undef ACE_COUNTER_PLUS
#undef ACE_COUNTER_ADD

// One registered counter as data: its names and where it lives in `S`. The tables
// below are built once from the rows above; every loop over counters reads them.
template <typename S>
struct CounterDef {
  const char* field;  // member name, as the mismatch text prints it
  const char* key;    // ace-live-v1 key
  std::uint64_t S::*member;
};

#define ACE_REF_DEF(field, key) {#field, key, &ProcRefCounts::field},
#define ACE_STAT_DEF(field, key) {#field, key, &MachineStats::field},

inline constexpr CounterDef<ProcRefCounts> kRefClasses[] = {ACE_REF_CLASSES(ACE_REF_DEF)};

// A counter group is a run of MachineStats rows.
using MachineCounter = CounterDef<MachineStats>;
using CounterGroup = std::span<const MachineCounter>;

inline constexpr MachineCounter kProtocolCounters[] = {ACE_PROTOCOL_COUNTERS(ACE_STAT_DEF)};
inline constexpr MachineCounter kDegradedCounters[] = {ACE_DEGRADED_COUNTERS(ACE_STAT_DEF)};
inline constexpr MachineCounter kChaosCounters[] = {ACE_CHAOS_COUNTERS(ACE_STAT_DEF)};
inline constexpr MachineCounter kDurabilityCounters[] = {
    ACE_DURABILITY_COUNTERS(ACE_STAT_DEF)};
inline constexpr MachineCounter kHostCounters[] = {ACE_HOST_COUNTERS(ACE_STAT_DEF)};
inline constexpr MachineCounter kMachineCounters[] = {ACE_MACHINE_COUNTERS(ACE_STAT_DEF)};

#undef ACE_REF_DEF
#undef ACE_STAT_DEF

// Sum of one group's counters: zero means the group never moved.
inline std::uint64_t CounterGroupTotal(const MachineStats& s, CounterGroup group) {
  std::uint64_t total = 0;
  for (const MachineCounter& c : group) {
    total += s.*c.member;
  }
  return total;
}

}  // namespace ace

#endif  // SRC_SIM_STATS_H_
