#include "src/lang/segregated_heap.h"

#include "src/common/check.h"

namespace ace {

const char* DataClassName(DataClass c) {
  switch (c) {
    case DataClass::kPrivate:
      return "private";
    case DataClass::kReadShared:
      return "read-shared";
    case DataClass::kWritablyShared:
      return "writably-shared";
  }
  return "?";
}

SegregatedHeap::SegregatedHeap(Machine* machine, Task* task, Options options)
    : machine_(machine), task_(task), options_(options) {
  ACE_CHECK(machine_ != nullptr && task_ != nullptr);
  ACE_CHECK(options_.num_threads >= 1);
}

std::uint64_t SegregatedHeap::SegmentKey(DataClass cls, int owner_tid) const {
  if (options_.mode == LayoutMode::kNaive) {
    return 0;  // everything interleaves in one region
  }
  if (cls == DataClass::kPrivate) {
    // One segment per owning thread.
    return 0x100u + static_cast<std::uint64_t>(owner_tid);
  }
  return static_cast<std::uint64_t>(cls);
}

VirtAddr SegregatedHeap::BumpAlloc(Segment& segment, std::uint64_t bytes, const char* label) {
  // Word-align every allocation.
  bytes = (bytes + 3) & ~std::uint64_t{3};
  if (segment.used + bytes > segment.size) {
    // Grow: map a new region for this segment (at least 8 pages or the request).
    std::uint64_t grow = 8ull * machine_->page_size();
    if (grow < bytes) {
      grow = (bytes + machine_->page_size() - 1) / machine_->page_size() *
             machine_->page_size();
    }
    segment.base = task_->MapAnonymous(label, grow);
    segment.size = grow;
    segment.used = 0;
  }
  VirtAddr va = segment.base + segment.used;
  segment.used += bytes;
  return va;
}

VirtAddr SegregatedHeap::Alloc(const std::string& name, std::uint64_t bytes, DataClass cls,
                               int owner_tid) {
  ACE_CHECK(bytes > 0);
  ACE_CHECK(owner_tid >= 0 && owner_tid < options_.num_threads);
  Segment& segment = segments_[SegmentKey(cls, owner_tid)];
  std::string label = options_.mode == LayoutMode::kNaive
                          ? "heap"
                          : std::string("heap-") + DataClassName(cls) +
                                (cls == DataClass::kPrivate
                                     ? "-t" + std::to_string(owner_tid)
                                     : "");
  VirtAddr va = BumpAlloc(segment, bytes, label.c_str());
  if (options_.tracer != nullptr) {
    options_.tracer->AddObject(name, va, bytes);
  }
  return va;
}

}  // namespace ace
