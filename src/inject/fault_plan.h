// Deterministic fault injection: plans, schedules and the runtime injector.
//
// The paper's pmap layer survives on real hardware because every placement decision
// has a fallback (replication failure -> map global, local memory full -> pageout or
// remote map). To keep those degraded paths first-class and continuously tested, the
// memory subsystems expose named fault *sites* and a FaultPlan describes *when* each
// site fires: on the nth occurrence, every k occurrences, with a seeded probability,
// inside a virtual-time window, or always. A FaultInjector evaluates the plan at run
// time; consumers hold a nullable pointer to it, so an unarmed build pays exactly one
// never-taken branch per site (see the bench_trace_overhead guardrail).
//
// Plans have a stable string form so a failing soak run can print a reproducer that
// ace_run / ace_soak / ace_conform replay verbatim:
//
//     local-exhausted@every:3;copy-fail@nth:5;pool-exhausted@p:0.02:7
//
// Grammar (see also DESIGN.md section 8):
//     plan      := item (';' item)*
//     item      := schedule | chaos
//     schedule  := site '@' trigger
//     trigger   := 'nth:' N | 'every:' K | 'p:' P [':' SEED]
//                | 'window:' T0 ':' T1 | 'always'
//     chaos     := 'drain-mem' '@' NODE ':' T0 ':' T1 [':' PERMILLE]
//                | 'stall-proc' '@' NODE ':' T0 ':' T1
//                | 'slow-link' '@' NODE ':' T0 ':' T1 ':' MULT_PERMILLE
//                | 'kill-node' '@' NODE ':' T0
//                | 'corrupt-page' '@' NODE ':' T0 ':' T1 [':' PERMILLE]
// Occurrence counts are per site (1-based); P is a probability in [0,1]; T0/T1 are
// virtual nanoseconds (the acting processor's clock, end-exclusive).
//
// Chaos events are machine-scoped: instead of firing at a named code site they
// change the simulated machine itself for a virtual-time window [T0, T1) — a memory
// node's frame pool shrinks to PERMILLE/1000 of capacity (0 = hot-remove), a
// processor stops dispatching, or a node's global/remote references get their cost
// multiplied by MULT_PERMILLE/1000 (>= 1000). Underscores in names are accepted as
// aliases for dashes ('drain_mem' == 'drain-mem'). See DESIGN.md section 13.
//
// Two chaos kinds are *permanent* (DESIGN.md section 14): kill-node takes one
// timestamp — at T0 the node and every frame resident in its local memory are gone
// for the rest of the run (the recovery subsystem reconstructs what it can from
// mirrors and journals) — and corrupt-page flips bits in a deterministic
// PERMILLE/1000 subset of the node's resident frames at T0 (default 100), with the
// checksum scrub detecting and repairing each corruption. Event arguments are
// validated at parse time (window ordering, permille ranges, field counts) so a
// malformed plan fails with a named error instead of being silently clamped.

#ifndef SRC_INJECT_FAULT_PLAN_H_
#define SRC_INJECT_FAULT_PLAN_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/splitmix64.h"
#include "src/common/types.h"
#include "src/sim/clocks.h"

namespace ace {

// Every named fault site in the memory subsystems. The first five are resource
// faults with documented graceful degradation; the last two are deliberate protocol
// mutations kept for the conformance harness (the differential checker must be able
// to demonstrate it catches a silently broken consistency action).
enum class FaultSite : std::uint8_t {
  kLocalExhausted = 0,          // NumaManager: local memory reads as full at the precheck
  kGlobalPoolExhausted = 1,     // PagePool::Alloc behaves as if the pool were empty
  kPageoutVictimContention = 2, // AcePager: eviction candidate reads as referenced
  kFrameAllocTransient = 3,     // PhysicalMemory::AllocLocal fails this occurrence
  kReplicationCopyFail = 4,     // NumaManager: copy into a freshly allocated frame fails
  kSkipSync = 5,                // protocol mutation: SyncOwner becomes a no-op
  kSkipMoveCount = 6,           // protocol mutation: ownership moves are not counted
};

inline constexpr int kNumFaultSites = 7;

const char* FaultSiteName(FaultSite site);
bool ParseFaultSite(std::string_view name, FaultSite* out);

// Machine-scoped chaos events (node loss, processor stall, link degradation).
// Unlike fault sites these are not tied to a code location: the ChaosController
// (src/machine/chaos.h) applies each event when virtual time crosses its window.
enum class ChaosKind : std::uint8_t {
  kDrainMem = 0,     // node's local frame pool shrinks to permille/1000 of capacity
  kStallProc = 1,    // processor stops dispatching for the window
  kSlowLink = 2,     // node's global/remote reference costs multiplied by permille/1000
  kKillNode = 3,     // permanent: node + resident frames gone at T0 (no recovery window)
  kCorruptPage = 4,  // silent bit-rot in permille/1000 of the node's resident frames
};

inline constexpr int kNumChaosKinds = 5;

// Whether `kind` is one of the permanent-failure kinds that arm the durability
// subsystem (ReplicaManager / RecoveryManager); transient kinds never do, so every
// pre-existing chaos plan keeps its exact disarmed behaviour.
inline bool IsDurableChaosKind(ChaosKind kind) {
  return kind == ChaosKind::kKillNode || kind == ChaosKind::kCorruptPage;
}

const char* ChaosKindName(ChaosKind kind);
bool ParseChaosKind(std::string_view name, ChaosKind* out);

// Comma-separated list of every valid site and chaos name, for error messages.
std::string ValidPlanNames();

struct ChaosEvent {
  ChaosKind kind = ChaosKind::kDrainMem;
  std::uint32_t node = 0;       // processor / memory-node index
  TimeNs t_begin = 0;           // window in virtual ns, end-exclusive
  TimeNs t_end = 0;
  std::uint32_t permille = 0;   // drain: capacity remaining; slow-link: cost multiplier

  std::string Format() const;
};

// When one site fires. `n` is the 1-based occurrence for kNth and the period for
// kEveryK; probability draws use SplitMix64 seeded from (injector seed ^ schedule
// seed), so the same plan string under the same --seed replays bit-identically.
struct FaultSchedule {
  enum class Kind : std::uint8_t { kNth = 0, kEveryK = 1, kProbability = 2, kWindow = 3, kAlways = 4 };

  FaultSite site = FaultSite::kLocalExhausted;
  Kind kind = Kind::kNth;
  std::uint64_t n = 1;
  double probability = 0.0;
  std::uint64_t seed = 0;
  TimeNs t_begin = 0;
  TimeNs t_end = 0;

  std::string Format() const;
};

struct FaultPlan {
  std::vector<FaultSchedule> schedules;
  std::vector<ChaosEvent> chaos;

  bool empty() const { return schedules.empty() && chaos.empty(); }

  // True when any chaos event is a permanent failure (kill-node / corrupt-page);
  // the machine then arms the replica and recovery managers.
  bool has_durable_chaos() const {
    for (const ChaosEvent& e : chaos) {
      if (IsDurableChaosKind(e.kind)) {
        return true;
      }
    }
    return false;
  }

  // Round-trippable string form ('' for the empty plan).
  std::string Format() const;
  // Parse the grammar above; on failure returns false and, when `error` is non-null,
  // a one-line description of what was rejected, naming the offending schedule
  // substring and its byte offset in the plan text.
  static bool Parse(std::string_view text, FaultPlan* out, std::string* error = nullptr);
};

// Evaluates a plan against the per-site occurrence stream. Not thread-safe; one
// injector belongs to one machine (the simulator runs one host thread per machine).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 0);

  // Window schedules need virtual time; without clocks they never fire. The acting
  // processor's clock is used when the site reports one, the machine-wide maximum
  // otherwise (PagePool::Alloc has no acting processor).
  void set_clocks(const ProcClocks* clocks) { clocks_ = clocks; }

  // Count one occurrence of `site` and report whether any schedule fires for it.
  // Out of line so consumer headers pay only the null-pointer test.
  bool ShouldInject(FaultSite site, ProcId proc = kNoProc);

  std::uint64_t occurrences(FaultSite site) const {
    return occurrences_[static_cast<std::size_t>(site)];
  }
  std::uint64_t fires(FaultSite site) const {
    return fires_[static_cast<std::size_t>(site)];
  }
  std::uint64_t total_fires() const;
  const FaultPlan& plan() const { return plan_; }
  std::uint64_t seed() const { return seed_; }

 private:
  TimeNs Now(ProcId proc) const;

  FaultPlan plan_;
  std::uint64_t seed_;
  const ProcClocks* clocks_ = nullptr;
  std::array<std::uint64_t, kNumFaultSites> occurrences_{};
  std::array<std::uint64_t, kNumFaultSites> fires_{};
  std::vector<SplitMix64> rng_;  // per-schedule stream (probability kind)
};

}  // namespace ace

#endif  // SRC_INJECT_FAULT_PLAN_H_
