// Software model of the per-processor Rosetta-C memory management unit.
//
// Each processor has its own translation state: virtual page -> (physical frame,
// protection). Two properties of the real hardware matter to the paper's design and
// are modeled here:
//
//  * Mappings may be dropped, or their permissions reduced, at almost any time; the
//    resulting faults are resolved by the machine-independent VM layer re-entering the
//    mapping (paper section 2.1). This is the engine behind the consistency protocol.
//
//  * Rosetta allows only a single virtual address per physical page per processor
//    (sections 2.1, 2.3.1). Entering a second virtual mapping for a frame silently
//    displaces the first, producing a later refault.

#ifndef SRC_MMU_MMU_H_
#define SRC_MMU_MMU_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/common/check.h"
#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/sim/frame.h"

namespace ace {

// Sink for MMU shootdown notifications (implemented by the software TLB,
// src/machine/tlb.h). Every mutation of a processor's translation state — enter,
// displacement, removal, protection downgrade, wholesale clear — notifies the sink
// *before* the MMU changes, so a translation cache can never hold an entry the MMU no
// longer backs. Hooking at this choke point (rather than at each NUMA-protocol call
// site) makes invalidation structural: ownership moves, page syncs, replication
// invalidates, pageout, CoW shadow breaks and fault-injection degrades all reach the
// MMU through these mutators, and therefore all shoot down precisely.
class MmuShootdownSink {
 public:
  // A single (processor, virtual page) translation changed or died.
  virtual void ShootdownPage(ProcId proc, VirtPage vpage) = 0;
  // Processor `proc` dropped its entire translation state.
  virtual void ShootdownProc(ProcId proc) = 0;

 protected:
  ~MmuShootdownSink() = default;
};

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kNoMapping = 1,   // no translation for the virtual page
  kProtection = 2,  // translation present but permission insufficient
};

struct TranslateResult {
  FaultKind fault = FaultKind::kNoMapping;
  FrameRef frame;
  Protection prot = Protection::kNone;

  bool ok() const { return fault == FaultKind::kNone; }
};

// One processor's MMU.
class Mmu {
 public:
  explicit Mmu(ProcId proc) : proc_(proc) {}

  ProcId proc() const { return proc_; }

  // Translate an access; no side effects on success. On a fault the caller invokes the
  // VM fault handler and retries.
  TranslateResult Translate(VirtPage vpage, AccessKind kind) const {
    auto it = mappings_.find(vpage);
    if (it == mappings_.end()) {
      return TranslateResult{FaultKind::kNoMapping, FrameRef::Invalid(), Protection::kNone};
    }
    const Entry& e = it->second;
    if (!Allows(e.prot, kind)) {
      return TranslateResult{FaultKind::kProtection, e.frame, e.prot};
    }
    return TranslateResult{FaultKind::kNone, e.frame, e.prot};
  }

  // Install (or replace) a mapping. Returns the virtual page whose mapping was
  // displaced by the Rosetta single-mapping restriction, or no value.
  // The displaced page will fault again on next touch, exactly like the RT/PC
  // behaviour the paper leans on.
  struct EnterResult {
    bool displaced = false;
    VirtPage displaced_vpage = 0;
  };
  EnterResult Enter(VirtPage vpage, FrameRef frame, Protection prot) {
    ACE_CHECK(frame.valid());
    ACE_CHECK(prot != Protection::kNone);
    // The entered page's old translation (if any) is replaced below; either way any
    // cached copy is stale the moment this returns.
    Shootdown(vpage);
    EnterResult result;
    auto rit = frame_to_vpage_.find(frame);
    if (rit != frame_to_vpage_.end() && rit->second != vpage) {
      result.displaced = true;
      result.displaced_vpage = rit->second;
      Shootdown(rit->second);
      mappings_.erase(rit->second);
      frame_to_vpage_.erase(rit);
    }
    // Replacing vpage's previous mapping (possibly to a different frame) is fine; drop
    // the stale reverse entry if any.
    auto old = mappings_.find(vpage);
    if (old != mappings_.end() && !(old->second.frame == frame)) {
      auto rit = frame_to_vpage_.find(old->second.frame);
      if (rit != frame_to_vpage_.end() && rit->second == vpage) {
        frame_to_vpage_.erase(rit);
      }
    }
    mappings_[vpage] = Entry{frame, prot};
    frame_to_vpage_[frame] = vpage;
    return result;
  }

  // Drop a mapping if present. Returns true if a mapping existed.
  bool Remove(VirtPage vpage) {
    auto it = mappings_.find(vpage);
    if (it == mappings_.end()) {
      return false;
    }
    Shootdown(vpage);
    auto rit = frame_to_vpage_.find(it->second.frame);
    if (rit != frame_to_vpage_.end() && rit->second == vpage) {
      frame_to_vpage_.erase(rit);
    }
    mappings_.erase(it);
    return true;
  }

  // Reduce the protection on an existing mapping (no-op if absent or already at most
  // `prot`). Tightening only: the MMU never silently grants more access.
  void Downgrade(VirtPage vpage, Protection prot) {
    auto it = mappings_.find(vpage);
    if (it == mappings_.end()) {
      return;
    }
    if (!ProtLeq(it->second.prot, prot)) {
      Shootdown(vpage);
      it->second.prot = prot;
    }
  }

  bool HasMapping(VirtPage vpage) const { return mappings_.contains(vpage); }

  std::size_t MappingCount() const { return mappings_.size(); }

  // Visit every mapping as fn(vpage, frame, prot); used by invariant checkers.
  template <typename Fn>
  void ForEachMapping(Fn&& fn) const {
    for (const auto& [vpage, entry] : mappings_) {
      fn(vpage, entry.frame, entry.prot);
    }
  }

  void RemoveAll() {
    if (shootdown_sink_ != nullptr && !mappings_.empty()) {
      shootdown_sink_->ShootdownProc(proc_);
    }
    mappings_.clear();
    frame_to_vpage_.clear();
  }

  // Attach a translation-cache shootdown sink (nullptr detaches; the default). Must
  // not change while mappings exist — the sink would miss their history.
  void set_shootdown_sink(MmuShootdownSink* sink) { shootdown_sink_ = sink; }

 private:
  struct Entry {
    FrameRef frame;
    Protection prot = Protection::kNone;
  };

  void Shootdown(VirtPage vpage) {
    if (shootdown_sink_ != nullptr) {
      shootdown_sink_->ShootdownPage(proc_, vpage);
    }
  }

  ProcId proc_;
  MmuShootdownSink* shootdown_sink_ = nullptr;
  std::unordered_map<VirtPage, Entry> mappings_;
  std::unordered_map<FrameRef, VirtPage, FrameRefHash> frame_to_vpage_;
};

// The set of MMUs in the machine, one per processor.
class MmuArray {
 public:
  explicit MmuArray(int num_processors) {
    mmus_.reserve(static_cast<std::size_t>(num_processors));
    for (int p = 0; p < num_processors; ++p) {
      mmus_.emplace_back(static_cast<ProcId>(p));
    }
  }

  Mmu& At(ProcId proc) {
    ACE_DCHECK(proc >= 0 && proc < static_cast<ProcId>(mmus_.size()));
    return mmus_[static_cast<std::size_t>(proc)];
  }
  const Mmu& At(ProcId proc) const {
    ACE_DCHECK(proc >= 0 && proc < static_cast<ProcId>(mmus_.size()));
    return mmus_[static_cast<std::size_t>(proc)];
  }

  int num_processors() const { return static_cast<int>(mmus_.size()); }

  // Attach one shootdown sink to every MMU in the array.
  void set_shootdown_sink(MmuShootdownSink* sink) {
    for (Mmu& mmu : mmus_) {
      mmu.set_shootdown_sink(sink);
    }
  }

 private:
  std::vector<Mmu> mmus_;
};

}  // namespace ace

#endif  // SRC_MMU_MMU_H_
