// Per-processor event trace recorded into preallocated ring buffers.
//
// Each processor gets its own ring, written only with that processor's virtual clock,
// so timestamps within a ring are monotone by construction (virtual clocks never run
// backwards). When a ring wraps, the oldest events are overwritten and counted as
// dropped — recording never allocates and never blocks.
//
// The runtime enable keeps the disabled path to a single predictable branch in the
// emit hooks (see src/obs/observability.h).

#ifndef SRC_OBS_TRACER_H_
#define SRC_OBS_TRACER_H_

#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/obs/trace_event.h"

namespace ace {

class Tracer {
 public:
  static constexpr std::size_t kDefaultCapacityPerProc = 1u << 16;

  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // (Re)allocate one ring per processor. Discards previously recorded events.
  void Configure(int num_processors, std::size_t capacity_per_proc) {
    ACE_CHECK(num_processors > 0 && capacity_per_proc > 0);
    rings_.clear();
    rings_.resize(static_cast<std::size_t>(num_processors));
    for (Ring& r : rings_) {
      r.buf.resize(capacity_per_proc);
    }
  }

  bool configured() const { return !rings_.empty(); }
  int num_processors() const { return static_cast<int>(rings_.size()); }
  std::size_t capacity_per_proc() const { return rings_.empty() ? 0 : rings_[0].buf.size(); }

  void Emit(TraceEventType type, LogicalPage lp, ProcId proc, std::uint32_t aux, TimeNs ts) {
    Ring& r = rings_[static_cast<std::size_t>(proc)];
    TraceEvent& e = r.buf[r.next];
    e.ts = ts;
    e.lp = lp;
    e.aux = aux;
    e.proc = static_cast<std::int16_t>(proc);
    e.type = type;
    r.next = r.next + 1 == r.buf.size() ? 0 : r.next + 1;
    r.total++;
  }

  // Events currently held for `proc` (<= capacity).
  std::size_t size(ProcId proc) const {
    const Ring& r = rings_[static_cast<std::size_t>(proc)];
    return r.total < r.buf.size() ? static_cast<std::size_t>(r.total) : r.buf.size();
  }

  std::uint64_t total_emitted(ProcId proc) const {
    return rings_[static_cast<std::size_t>(proc)].total;
  }

  std::uint64_t total_emitted() const {
    std::uint64_t t = 0;
    for (const Ring& r : rings_) {
      t += r.total;
    }
    return t;
  }

  // Events lost to ring wrap-around, across all processors.
  std::uint64_t dropped() const {
    std::uint64_t d = 0;
    for (const Ring& r : rings_) {
      if (r.total > r.buf.size()) {
        d += r.total - r.buf.size();
      }
    }
    return d;
  }

  // Visit `proc`'s retained events oldest-first.
  template <typename Fn>
  void ForEach(ProcId proc, Fn&& fn) const {
    const Ring& r = rings_[static_cast<std::size_t>(proc)];
    std::size_t n = size(proc);
    // When wrapped, the oldest retained event sits at `next` (the slot about to be
    // overwritten); otherwise the ring starts at 0.
    std::size_t start = r.total > r.buf.size() ? r.next : 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t idx = start + i;
      if (idx >= r.buf.size()) {
        idx -= r.buf.size();
      }
      fn(r.buf[idx]);
    }
  }

 private:
  struct Ring {
    std::vector<TraceEvent> buf;
    std::size_t next = 0;      // slot the next event lands in
    std::uint64_t total = 0;   // events ever emitted to this ring
  };

  std::vector<Ring> rings_;
};

}  // namespace ace

#endif  // SRC_OBS_TRACER_H_
