// Live telemetry sampler: periodic counter-snapshot diffs from a running simulation.
//
// The sampler turns the batch-only observability layer into a streaming one. On a
// virtual-time cadence (Tick is called by the thread runtime once per dispatch with
// the minimum runnable clock, which is monotone nondecreasing), it captures a full
// cumulative snapshot — machine counters, per-processor TLB hit/miss, policy
// decisions, trace-ring emitted/dropped, per-page heat totals — diffs it against the
// previous capture, and writes one ace-live-v1 sample record of per-interval deltas
// through the durable stream writer (src/obs/live_stream.h).
//
// Sampling is a pure observer: the capture source reads counters through the same
// const accessors every report already uses and changes no MachineStats value, clock,
// or application result — the determinism test in tests/live_sampler_test.cc proves
// a sampled run byte-identical to an unsampled one, and the watchdog reads the
// machine's counters directly, so a sampled run trips its livelock budget exactly
// where an unsampled one does. The layering follows the repo's
// function-pointer-plus-context idiom (as Machine::RefObserver does): obs stays
// independent of the machine layer; the machine implements the capture and hands the
// sampler a thunk.

#ifndef SRC_OBS_SAMPLER_H_
#define SRC_OBS_SAMPLER_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/obs/live_stream.h"
#include "src/sim/stats.h"

namespace ace {

// One cumulative capture of everything the live feed reports. Plain data, filled by
// the capture source (Machine::CaptureLiveSample); the sampler owns the diffing.
struct LiveSample {
  MachineStats stats;                 // cumulative counters incl. per-proc refs
  TimeNs user_ns = 0;                 // ProcClocks::TotalUser
  TimeNs system_ns = 0;               // ProcClocks::TotalSystem
  TimeNs max_clock_ns = 0;            // ProcClocks::MaxNow
  // Per-processor software-TLB hit/miss counters (empty when the TLB is off).
  std::vector<std::uint64_t> tlb_hits_by_proc;
  std::vector<std::uint64_t> tlb_misses_by_proc;
  // Trace-ring pressure (0/0 when tracing is not configured). `trace_dropped`
  // rising within a segment means the rings wrapped — sampling loss is visible in
  // the feed rather than silent.
  std::uint64_t trace_emitted = 0;
  std::uint64_t trace_dropped = 0;
  // Policy decisions by Placement (heat profiling only; zeros otherwise).
  std::array<std::uint64_t, 3> decisions{};
  // Per-page cumulative {local, global, remote, state-tag-index} reference totals
  // from the heat profile; empty when heat profiling is off — the sampler then
  // degrades to counters-only records with no hot-page list.
  bool have_heat = false;
  std::vector<std::array<std::uint64_t, 4>> page_refs;
  // Dead-node bitmask (bit p = processor p lost to kill-node chaos). Monotone —
  // bits are only ever set — so the feed validator's non-negative-delta rule holds.
  // Zero unless the plan carries a permanent chaos event. The durability counters
  // (replicated/recovered/lost pages, journal bytes, checksum failures) ride in
  // `stats` above.
  std::uint32_t dead_nodes = 0;

  std::uint64_t TlbHits() const;
  std::uint64_t TlbMisses() const;
};

// Flatten a capture into the ace-live-v1 counter vocabulary (live_stream.h).
void FlattenLiveCounters(const LiveSample& s, std::uint64_t out[kNumLiveCounters]);

class LiveSampler {
 public:
  // Fills `out` with the current cumulative state of the simulation.
  using CaptureFn = void (*)(void* ctx, LiveSample* out);

  struct Options {
    // Virtual-time sampling cadence. Samples are taken at the first dispatch whose
    // minimum runnable clock passes each interval boundary, so real inter-sample
    // spacing is >= interval_ns (never less).
    TimeNs interval_ns = 10'000'000;
    // Hot-page rows per sample record (pages ranked by off-node delta in the
    // interval). 0 disables the per-page list even when heat is available.
    std::size_t hot_pages = 16;
    // Echoed as "tool" in every segment's meta record.
    std::string tool = "ace";
  };

  // `sink` may be null: the sampler still captures (the watchdog integration and
  // tests use it bare); only record emission is skipped.
  LiveSampler(Options options, LiveStreamWriter* sink)
      : options_(options), sink_(sink) {}

  LiveSampler(const LiveSampler&) = delete;
  LiveSampler& operator=(const LiveSampler&) = delete;

  // Bind the capture source for the upcoming run. Must precede BeginRun; rebind per
  // run when machines come and go (the sweep engine builds one machine per cell).
  void SetSource(CaptureFn fn, void* ctx) {
    capture_ = fn;
    capture_ctx_ = ctx;
  }

  // Start a segment: write the meta record (tool and sample interval are filled in
  // from Options) and take the baseline capture that the first sample diffs against.
  void BeginRun(LiveRunMeta meta);

  // The runtime's per-dispatch hook. `now` is the dispatched fiber's virtual clock
  // (the minimum runnable clock — monotone nondecreasing across dispatches). One
  // compare on the fast path; a capture + record only when an interval boundary
  // has passed.
  void Tick(TimeNs now) {
    if (running_ && now >= next_due_) {
      Sample(now);
    }
  }

  // Finish the segment: flush a final partial sample if any counter moved since the
  // last boundary, then write the summary record (cumulative totals, `outcome`) and
  // fsync the feed. `outcome` is "ok" or a failure kind (e.g. "watchdog-livelock").
  void EndRun(const std::string& outcome);

  std::uint64_t samples() const { return sample_idx_; }
  // Lifetime totals across every segment this sampler wrote (a bench sweep or soak
  // run strings many segments through one sampler).
  std::uint64_t segments() const { return segments_; }
  std::uint64_t total_samples() const { return total_samples_; }
  TimeNs interval_ns() const { return options_.interval_ns; }
  const Options& options() const { return options_; }

 private:
  void Sample(TimeNs now);
  // Capture now and emit one sample record covering (last_ts_, ts]. When
  // `force` is false the record is skipped if nothing changed.
  void EmitSample(TimeNs ts, bool force);

  Options options_;
  LiveStreamWriter* sink_;
  CaptureFn capture_ = nullptr;
  void* capture_ctx_ = nullptr;

  bool running_ = false;
  LiveRunMeta meta_;
  TimeNs next_due_ = 0;
  TimeNs last_ts_ = 0;
  std::uint64_t sample_idx_ = 0;
  std::uint64_t segments_ = 0;
  std::uint64_t total_samples_ = 0;
  LiveSample prev_;
  // Flattened counters at BeginRun. The summary reports totals relative to this,
  // so sum-of-sample-deltas == summary holds even when the machine did work (app
  // setup, a previous unsampled phase) before sampling started.
  std::uint64_t base_[kNumLiveCounters] = {};
};

}  // namespace ace

#endif  // SRC_OBS_SAMPLER_H_
