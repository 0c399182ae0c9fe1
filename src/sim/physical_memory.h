// Simulated physical memory: global memory boards plus per-processor local memories.
//
// Frames hold real bytes. Page migration and replication move actual data between
// frames, so a consistency-protocol bug shows up as corrupted application output —
// the test suite relies on this end-to-end property.
//
// Global frames back the Mach logical page pool and are allocated/freed by the VM
// layer; local frames are the NUMA manager's cache resource, allocated per processor.
//
// Each slab (global memory, and each processor's local memory) is an anonymous zero
// mapping that the host commits page by page on first touch, so building a machine
// costs a handful of mmap calls, not a memset over every frame, and a frame nothing
// ever touches costs no host memory. Untouched frames read as zero, exactly like the
// simulated OS's own lazy zero-fill (paper section 2.3.1).

#ifndef SRC_SIM_PHYSICAL_MEMORY_H_
#define SRC_SIM_PHYSICAL_MEMORY_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/check.h"
#include "src/common/types.h"
#include "src/sim/frame.h"
#include "src/sim/machine_config.h"

namespace ace {

class FaultInjector;

class PhysicalMemory {
 public:
  explicit PhysicalMemory(const MachineConfig& config);

  PhysicalMemory(const PhysicalMemory&) = delete;
  PhysicalMemory& operator=(const PhysicalMemory&) = delete;

  // --- Frame allocation ------------------------------------------------------------

  // Global frames are identity-managed by the logical page pool (logical page i is
  // global frame i, paper section 2.3.1), so there is no global allocator here; the
  // pool lives in src/vm.

  // Allocate a frame from processor `proc`'s local memory. Returns an invalid FrameRef
  // if that local memory is exhausted (the caller falls back to global placement).
  // A scheduled kFrameAllocTransient fault (src/inject) fails the allocation the same
  // way, so every caller's exhaustion path is reachable on any machine size.
  FrameRef AllocLocal(ProcId proc);
  void FreeLocal(FrameRef frame);

  // Arm fault injection for AllocLocal. Null (the default) keeps the hot path at a
  // single never-taken branch.
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  // Frames still allocatable on `proc` — free-list population capped by the chaos
  // capacity limit below. Zero both when the memory is exhausted and when a drain
  // event shrank the limit under the current allocation.
  std::uint32_t FreeLocalFrames(ProcId proc) const;
  // Frames currently handed out on `proc`, independent of any capacity limit.
  std::uint32_t AllocatedLocalFrames(ProcId proc) const;
  std::uint32_t local_pages_per_proc() const { return local_pages_per_proc_; }
  std::uint32_t global_pages() const { return global_pages_; }

  // Chaos capacity limit (drain-mem events, DESIGN.md section 13): cap `proc`'s
  // usable frame count at `limit` (clamped to the physical capacity). AllocLocal
  // fails while the allocation sits at or above the limit; frames already handed
  // out stay valid — the NumaManager evacuates them. Restoring the full limit ends
  // the drain.
  void SetLocalLimit(ProcId proc, std::uint32_t limit);
  std::uint32_t LocalLimit(ProcId proc) const;

  // --- Data access -----------------------------------------------------------------
  // A user reference copies its word through FrameData (Machine::CompleteAccess; a
  // TLB hit uses the pointer its entry cached at fill time). ReadWord/WriteWord serve
  // the kernel side: debug access, journals and the conformance checker.

  // Raw bytes of a frame; valid until the memory object is destroyed.
  std::uint8_t* FrameData(FrameRef frame) {
    std::size_t offset = FrameOffset(frame);
    if (frame.is_global()) {
      return global_data_.data() + offset;
    }
    return local_data_[static_cast<std::size_t>(frame.node)].data() + offset;
  }
  const std::uint8_t* FrameData(FrameRef frame) const {
    std::size_t offset = FrameOffset(frame);
    if (frame.is_global()) {
      return global_data_.data() + offset;
    }
    return local_data_[static_cast<std::size_t>(frame.node)].data() + offset;
  }

  std::uint32_t ReadWord(FrameRef frame, std::uint32_t offset) const {
    ACE_DCHECK(offset % kWordBytes == 0 && offset < page_size_);
    std::uint32_t value;
    std::memcpy(&value, FrameData(frame) + offset, kWordBytes);
    return value;
  }
  void WriteWord(FrameRef frame, std::uint32_t offset, std::uint32_t value) {
    ACE_DCHECK(offset % kWordBytes == 0 && offset < page_size_);
    std::memcpy(FrameData(frame) + offset, &value, kWordBytes);
  }

  // Copy a whole page between frames. Returns the kernel-time cost of the copy: one
  // fetch from the source plus one store to the destination per 32-bit word, scaled by
  // the configured copy efficiency. (The copying processor is charged by the caller.)
  TimeNs CopyPage(FrameRef src, FrameRef dst, ProcId copier);

  // Zero a frame. Returns the kernel-time cost (one store per word at the target).
  TimeNs ZeroPage(FrameRef frame, ProcId zeroer);

  // Overwrite every byte of `proc`'s local slab with `byte`. Used after a kill-node
  // chaos event: the dead node's frames must never again read as silently-correct
  // data, so a protocol bug that reaches one shows up as loud garbage. No cost — a
  // dead node's memory is not a device anyone pays to touch.
  void PoisonLocal(ProcId proc, std::uint8_t byte);

  std::uint32_t page_size() const { return page_size_; }

 private:
  // A zero-filled byte range backed by an anonymous private mapping, unmapped on
  // destruction. The host commits its pages on first touch (see the file comment).
  class Slab {
   public:
    explicit Slab(std::size_t bytes);
    Slab(Slab&& other) noexcept;
    Slab(const Slab&) = delete;
    Slab& operator=(const Slab&) = delete;
    Slab& operator=(Slab&&) = delete;
    ~Slab();

    std::uint8_t* data() const { return data_; }
    std::size_t size() const { return size_; }

   private:
    std::uint8_t* data_;
    std::size_t size_;
  };

  std::size_t FrameOffset(FrameRef frame) const {
    ACE_DCHECK(frame.valid());
    if (frame.is_global()) {
      ACE_DCHECK(frame.index < global_pages_);
    } else {
      ACE_DCHECK(frame.node < num_processors_);
      ACE_DCHECK(frame.index < local_pages_per_proc_);
    }
    return static_cast<std::size_t>(frame.index) * page_size_;
  }

  std::uint32_t page_size_;
  std::uint32_t words_per_page_;
  std::uint32_t global_pages_;
  std::uint32_t local_pages_per_proc_;
  int num_processors_;
  LatencyModel latency_;
  double copy_efficiency_;

  // Backing stores: one slab for global memory, one per processor for local memory.
  Slab global_data_;
  std::vector<Slab> local_data_;

  // Per-processor free lists of local frame indices.
  std::vector<std::vector<std::uint32_t>> local_free_;

  // Per-processor usable-frame cap; local_pages_per_proc_ unless a drain-mem chaos
  // event is active (empty until the first SetLocalLimit keeps chaos-free runs on
  // the exact pre-chaos code path).
  std::vector<std::uint32_t> local_limit_;

  FaultInjector* injector_ = nullptr;
};

}  // namespace ace

#endif  // SRC_SIM_PHYSICAL_MEMORY_H_
