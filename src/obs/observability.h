// The observability facade: one object owning the event tracer and the per-page heat
// profile, attached to the machine's hot paths through nullable pointers.
//
// Cost discipline (the bench_trace_overhead guardrail):
//   * not attached (the default)      — every hook is a single never-taken branch on
//     a null pointer (the machine's own per-reference heat test is a single flag
//     test on its member instance); this is the production path and must stay
//     within 2% of a build without the hooks at all;
//   * attached, runtime-disabled      — one extra flag test per pointer hook;
//   * attached, enabled               — ring-buffer stores and table increments, no
//     allocation, no locks (the simulator is single-threaded by construction).
//
// Timestamps are the acting processor's virtual clock (ProcClocks::now), so each
// per-processor ring is monotone by construction.

#ifndef SRC_OBS_OBSERVABILITY_H_
#define SRC_OBS_OBSERVABILITY_H_

#include <cstdint>
#include <memory>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/numa/page_state.h"
#include "src/numa/policy.h"
#include "src/obs/heat.h"
#include "src/obs/tracer.h"
#include "src/sim/clocks.h"

namespace ace {

class Observability {
 public:
  Observability(int num_processors, std::uint32_t num_pages, const ProcClocks* clocks)
      : num_processors_(num_processors), num_pages_(num_pages), clocks_(clocks) {
    ACE_CHECK(clocks != nullptr && num_processors > 0);
  }

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  void EnableTracing(std::size_t capacity_per_proc = Tracer::kDefaultCapacityPerProc);
  void DisableTracing() { tracing_ = false; }

  void EnableHeat();
  void DisableHeat() { heat_on_ = false; }

  bool tracing() const { return tracing_; }
  bool heat_on() const { return heat_on_; }
  bool active() const { return tracing_ || heat_on_; }

  Tracer& tracer() { return tracer_; }
  const Tracer& tracer() const { return tracer_; }
  HeatProfile& heat() {
    ACE_CHECK_MSG(heat_ != nullptr, "heat profiling was never enabled");
    return *heat_;
  }
  const HeatProfile& heat() const {
    ACE_CHECK_MSG(heat_ != nullptr, "heat profiling was never enabled");
    return *heat_;
  }

  // --- hooks (called by the machine, NUMA manager and fault path) --------------------
  // Out-of-line so the call sites stay small; the callers guard on a null
  // Observability pointer, keeping the not-attached path to one branch.
  void OnEvent(TraceEventType type, LogicalPage lp, ProcId proc, std::uint32_t aux);
  void OnRef(LogicalPage lp, ProcId proc, MemoryClass cls, AccessKind kind);
  void NoteState(LogicalPage lp, PageState state, ProcId proc);
  void NoteDecision(Placement decision);

 private:
  int num_processors_;
  std::uint32_t num_pages_;
  const ProcClocks* clocks_;

  bool tracing_ = false;
  bool heat_on_ = false;
  Tracer tracer_;
  std::unique_ptr<HeatProfile> heat_;
};

}  // namespace ace

#endif  // SRC_OBS_OBSERVABILITY_H_
