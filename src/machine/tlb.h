// A per-processor direct-mapped software TLB in front of Machine::Access.
//
// The simulated ACE resolves every reference through the accessing processor's MMU
// (a hash map) and, on the slow path, the full pmap/NUMA machinery. The Rosetta
// single-mapping semantics the simulator already enforces make a translation cache
// sound: each (processor, virtual page) has at most one live translation at a time,
// and *every* mutation of that translation flows through Mmu::Enter / Remove /
// Downgrade / RemoveAll (src/mmu/mmu.h). The TLB registers itself as the MmuArray's
// MmuShootdownSink, so ownership moves, page syncs, replication invalidates, pageout
// round-trips, CoW shadow breaks, protection changes and fault-injection degrades all
// shoot down the precise per-processor entries they touch — there is no protocol path
// that can leave a stale entry behind without bypassing the MMU itself.
//
// A hit carries everything the accounting fast path needs — frame, its host bytes,
// protection, logical page, memory class, and the per-kind reference cost — so a
// hitting access neither consults the pmap nor recomputes latencies or frame
// addresses. The machine hands those fields to the same accounting step the slow
// path uses (Machine::CompleteAccess), so a hit is accounted exactly like a miss.
// Invalidation and run counters live here (the machine exposes them as the `tlb`
// counter group); they are deliberately *not* part of MachineStats, whose contents
// must be byte-identical with the TLB on or off.

#ifndef SRC_MACHINE_TLB_H_
#define SRC_MACHINE_TLB_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/mmu/mmu.h"
#include "src/sim/frame.h"
#include "src/sim/machine_config.h"

namespace ace {

// Counters for the `tlb` observability group. Deterministic for a given run
// configuration (the soak harness checks replay identity on them), but naturally
// different between TLB-on and TLB-off runs — equivalence suites must exclude them.
// `hits`, `misses` and `run_flushes` are aggregated from the per-processor counters
// below at read time.
//
// Runs are pure observation: a run is a maximal stretch of one processor's hits on
// the same (virtual page, kind), broken by a hit on another key or by a miss.
// `batched_refs` is the number of references those runs cover — every hit — so
// batched_refs / run_flushes is the mean run length. Nothing is deferred: each hit
// is fully accounted as it happens.
struct TlbStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;            // no entry, wrong tag, or insufficient protection
  std::uint64_t fills = 0;             // slow-path refills
  std::uint64_t conflict_evictions = 0;  // fill displaced a different page's entry
  std::uint64_t shootdown_pages = 0;   // precise per-(proc, vpage) invalidations
  std::uint64_t shootdown_hits = 0;    // ... of which actually dropped a live entry
  std::uint64_t proc_flushes = 0;      // whole-processor invalidations
  std::uint64_t run_flushes = 0;       // same-(page, kind) hit runs started
  std::uint64_t batched_refs = 0;      // references covered by those runs (= hits)
};

// Per-processor probe counters — the live feed's "per-processor TLB hit/miss rate"
// source (src/obs/sampler.h) — plus the key of the processor's current hit run.
// Kept separate from TlbStats so the probe touches one processor's line; TlbStats
// sums them on demand.
struct TlbProcCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t runs = 0;
  VirtPage run_vpage = ~VirtPage{0};  // never a real page: no open run
  AccessKind run_kind = AccessKind::kFetch;
};

class Tlb final : public MmuShootdownSink {
 public:
  // One cached translation. `data`, `cls` and the two costs are derived from `frame`
  // and the machine's latency model at fill time; they can never go stale while the
  // entry is live because a frame change requires an Mmu::Enter, which shoots the
  // entry down, and frame bytes never move (PhysicalMemory's slabs are fixed
  // mappings).
  struct Entry {
    VirtPage vpage = kInvalidVPage;
    FrameRef frame;
    std::uint8_t* data = nullptr;  // PhysicalMemory::FrameData(frame)
    LogicalPage lp = kNoLogicalPage;
    Protection prot = Protection::kNone;
    MemoryClass cls = MemoryClass::kGlobal;
    TimeNs cost_fetch = 0;
    TimeNs cost_store = 0;
  };

  Tlb(int num_processors, std::uint32_t entries_per_proc)
      : entries_mask_(entries_per_proc - 1),
        shift_(IndexBits(entries_per_proc)),
        slots_(static_cast<std::size_t>(num_processors) * entries_per_proc),
        proc_counters_(static_cast<std::size_t>(num_processors)) {
    ACE_CHECK(num_processors >= 1);
    ACE_CHECK(entries_per_proc >= 2 &&
              (entries_per_proc & (entries_per_proc - 1)) == 0);
  }

  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  // Direct-mapped probe. Returns the hitting entry, or nullptr on a tag mismatch or
  // when the cached protection does not allow `kind` (the slow path decides whether
  // that is a protection fault or an upgrade).
  const Entry* Find(ProcId proc, VirtPage vpage, AccessKind kind) {
    Entry& e = slots_[SlotIndex(proc, vpage)];
    TlbProcCounters& c = proc_counters_[static_cast<std::size_t>(proc)];
    if (e.vpage != vpage || !Allows(e.prot, kind)) {
      c.misses++;
      c.run_vpage = kInvalidVPage;
      return nullptr;
    }
    c.hits++;
    if (c.run_vpage != vpage || c.run_kind != kind) {
      c.runs++;
      c.run_vpage = vpage;
      c.run_kind = kind;
    }
    return &e;
  }

  // Probe without counters or side effects (tests, the poison cross-check).
  const Entry* Peek(ProcId proc, VirtPage vpage) const {
    const Entry& e = slots_[SlotIndex(proc, vpage)];
    return e.vpage == vpage ? &e : nullptr;
  }

  // Install a translation after a successful slow-path resolve. `data` is the frame's
  // host bytes.
  void Fill(ProcId proc, VirtPage vpage, FrameRef frame, std::uint8_t* data,
            Protection prot, LogicalPage lp, const LatencyModel& latency) {
    Entry& e = slots_[SlotIndex(proc, vpage)];
    if (e.vpage != kInvalidVPage && e.vpage != vpage) {
      global_.conflict_evictions++;
    }
    e.vpage = vpage;
    e.frame = frame;
    e.data = data;
    e.lp = lp;
    e.prot = prot;
    e.cls = frame.ClassFor(proc);
    e.cost_fetch = latency.Cost(e.cls, AccessKind::kFetch);
    e.cost_store = latency.Cost(e.cls, AccessKind::kStore);
    global_.fills++;
  }

  // --- MmuShootdownSink ----------------------------------------------------------------
  void ShootdownPage(ProcId proc, VirtPage vpage) override {
    global_.shootdown_pages++;
    Entry& e = slots_[SlotIndex(proc, vpage)];
    if (e.vpage == vpage) {
      e.vpage = kInvalidVPage;
      global_.shootdown_hits++;
    }
  }

  void ShootdownProc(ProcId proc) override {
    global_.proc_flushes++;
    std::size_t base = static_cast<std::size_t>(proc) << shift_;
    for (std::size_t i = 0; i <= entries_mask_; ++i) {
      slots_[base + i].vpage = kInvalidVPage;
    }
  }

  void InvalidateAll() {
    for (std::size_t p = 0; p < proc_counters_.size(); ++p) {
      ShootdownProc(static_cast<ProcId>(p));
    }
  }

  // Aggregate snapshot of the counter group: the global counters plus the summed
  // per-processor probe counters. By value — the hit/miss/run totals are
  // materialized at read time, never stored.
  TlbStats stats() const {
    TlbStats s = global_;
    for (const TlbProcCounters& c : proc_counters_) {
      s.hits += c.hits;
      s.misses += c.misses;
      s.run_flushes += c.runs;
    }
    s.batched_refs = s.hits;
    return s;
  }
  const std::vector<TlbProcCounters>& proc_counters() const { return proc_counters_; }
  std::uint32_t entries_per_proc() const {
    return static_cast<std::uint32_t>(entries_mask_ + 1);
  }

 private:
  // Never a real virtual page: tasks place regions far below 2^64 - 1.
  static constexpr VirtPage kInvalidVPage = ~VirtPage{0};

  static std::uint32_t IndexBits(std::uint32_t entries) {
    std::uint32_t bits = 0;
    while ((std::uint32_t{1} << bits) < entries) {
      ++bits;
    }
    return bits;
  }

  std::size_t SlotIndex(ProcId proc, VirtPage vpage) const {
    ACE_DCHECK(static_cast<std::size_t>(proc) < proc_counters_.size());
    return (static_cast<std::size_t>(proc) << shift_) +
           (static_cast<std::size_t>(vpage) & entries_mask_);
  }

  std::size_t entries_mask_;
  std::uint32_t shift_;
  std::vector<Entry> slots_;
  TlbStats global_;  // everything except hits/misses/runs, which live per processor
  std::vector<TlbProcCounters> proc_counters_;
};

}  // namespace ace

#endif  // SRC_MACHINE_TLB_H_
