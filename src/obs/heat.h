// Per-page heat profiles — the numatop-style attribution layer.
//
// While machine-wide counters (src/sim/stats.h) say *how much* replication,
// migration and pinning happened, the heat profile says *which pages* and *which
// processors*: per-page reference counts split by memory class and by referencing
// processor, per-page protocol-event counts (the move/copy/pin history), and virtual
// time spent in each protocol state. The rollup feeds the "hot pages" report
// (src/obs/export.h) — top-N pages by remote+global traffic, exactly the view
// numatop gives for real NUMA hardware.
//
// Reference counting here is driven from the same point as MachineStats::RecordRef
// (the machine's reference path), so the profile's aggregate locality fraction must
// agree with MachineStats::MeasuredAlpha() bit for bit; tests/obs_test.cc enforces
// it on whole application runs (ties the layer to the paper's eq. 4).

#ifndef SRC_OBS_HEAT_H_
#define SRC_OBS_HEAT_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/numa/page_state.h"
#include "src/numa/policy.h"
#include "src/obs/trace_event.h"
#include "src/sim/stats.h"

namespace ace {

// References to one page by memory class served (the inherited ProcRefCounts
// fields and totals), plus who touched it and its protocol history.
struct PageHeat : ProcRefCounts {
  // Total references by each processor (any class) — "who touches this page".
  std::array<std::uint64_t, kMaxProcessors> refs_by_proc{};

  // Protocol-event history, indexed by TraceEventType.
  std::array<std::uint32_t, kNumTraceEventTypes> events{};

  // Virtual time accumulated in each PageState, attributed with the acting
  // processor's clock at each transition (approximate across processors, exact per
  // processor — the paper's clocks are per-processor by design).
  std::array<TimeNs, 4> time_in_state{};
  PageState state = PageState::kReadOnly;
  TimeNs state_since = 0;

  // The hot-page ranking key: traffic that crossed the IPC bus.
  std::uint64_t OffNodeTotal() const { return GlobalTotal() + RemoteTotal(); }

  std::uint32_t Count(TraceEventType t) const {
    return events[static_cast<std::size_t>(t)];
  }
};

class HeatProfile {
 public:
  HeatProfile(int num_processors, std::uint32_t num_pages)
      : num_processors_(num_processors), pages_(num_pages) {}

  HeatProfile(const HeatProfile&) = delete;
  HeatProfile& operator=(const HeatProfile&) = delete;

  void RecordRef(LogicalPage lp, ProcId proc, MemoryClass cls, AccessKind kind) {
    PageHeat& h = pages_[lp];
    h.Record(cls, kind);
    h.refs_by_proc[static_cast<std::size_t>(proc)]++;
  }

  void CountEvent(TraceEventType type, LogicalPage lp) {
    if (lp < pages_.size()) {
      pages_[lp].events[static_cast<std::size_t>(type)]++;
    }
    machine_events_[static_cast<std::size_t>(type)]++;
  }

  // Note the page's protocol state after an operation; accumulates time-in-state on
  // transitions. `now` is the acting processor's virtual clock.
  void NoteState(LogicalPage lp, PageState state, TimeNs now) {
    PageHeat& h = pages_[lp];
    if (state == h.state) {
      return;
    }
    if (now > h.state_since) {
      h.time_in_state[static_cast<std::size_t>(h.state)] += now - h.state_since;
    }
    h.state = state;
    h.state_since = now;
  }

  void NoteDecision(Placement decision) {
    decisions_[static_cast<std::size_t>(decision)]++;
  }

  const PageHeat& page(LogicalPage lp) const { return pages_[lp]; }
  std::uint32_t num_pages() const { return static_cast<std::uint32_t>(pages_.size()); }
  int num_processors() const { return num_processors_; }

  std::uint64_t decisions(Placement p) const {
    return decisions_[static_cast<std::size_t>(p)];
  }
  std::uint64_t total_decisions() const {
    return decisions_[0] + decisions_[1] + decisions_[2];
  }
  std::uint64_t machine_events(TraceEventType t) const {
    return machine_events_[static_cast<std::size_t>(t)];
  }

  // Aggregate locality fraction over all recorded references — the heat-profile
  // analogue of MachineStats::MeasuredAlpha() (eq. 4), same formula and convention.
  double AggregateAlpha() const { return Totals().LocalFraction(); }

  // Total references recorded across all pages (cross-check against
  // MachineStats::TotalRefs().Total()).
  std::uint64_t TotalRefs() const { return Totals().Total(); }

  // Pages ranked by off-node (remote+global) traffic, hottest first; ties broken by
  // total references, then by page number. Pages with no references are omitted.
  std::vector<LogicalPage> TopPages(std::size_t n) const;

 private:
  // References by class summed over every page.
  ProcRefCounts Totals() const {
    ProcRefCounts t;
    for (const PageHeat& h : pages_) {
      t += h;
    }
    return t;
  }

  int num_processors_;
  std::vector<PageHeat> pages_;
  std::array<std::uint64_t, 3> decisions_{};  // indexed by Placement
  std::array<std::uint64_t, kNumTraceEventTypes> machine_events_{};
};

}  // namespace ace

#endif  // SRC_OBS_HEAT_H_
