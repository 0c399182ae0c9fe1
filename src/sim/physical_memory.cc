#include "src/sim/physical_memory.h"

#include <sys/mman.h>

#include <cstring>
#include <utility>

#include "src/inject/fault_plan.h"

namespace ace {

// Not calloc: glibc raises its mmap threshold after the first large free, so later
// machines in the same process would get recycled heap memory and memset it again.
PhysicalMemory::Slab::Slab(std::size_t bytes) : size_(bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ACE_CHECK_MSG(p != MAP_FAILED, "mmap of a frame slab failed");
  data_ = static_cast<std::uint8_t*>(p);
}

PhysicalMemory::Slab::Slab(Slab&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}

PhysicalMemory::Slab::~Slab() {
  if (data_ != nullptr) {
    munmap(data_, size_);
  }
}

PhysicalMemory::PhysicalMemory(const MachineConfig& config)
    // Validate first: the global slab below is mapped in the initializer list.
    : page_size_((config.Validate(), config.page_size)),
      words_per_page_(config.WordsPerPage()),
      global_pages_(config.global_pages),
      local_pages_per_proc_(config.local_pages_per_proc),
      num_processors_(config.num_processors),
      latency_(config.latency),
      copy_efficiency_(config.kernel.copy_efficiency),
      global_data_(static_cast<std::size_t>(global_pages_) * page_size_) {
  local_data_.reserve(static_cast<std::size_t>(num_processors_));
  local_free_.resize(static_cast<std::size_t>(num_processors_));
  for (int p = 0; p < num_processors_; ++p) {
    local_data_.emplace_back(static_cast<std::size_t>(local_pages_per_proc_) * page_size_);
    auto& free_list = local_free_[static_cast<std::size_t>(p)];
    free_list.reserve(local_pages_per_proc_);
    // Push in reverse so that frames are handed out in increasing index order.
    for (std::uint32_t i = local_pages_per_proc_; i > 0; --i) {
      free_list.push_back(i - 1);
    }
  }
}

FrameRef PhysicalMemory::AllocLocal(ProcId proc) {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  if (injector_ != nullptr &&
      injector_->ShouldInject(FaultSite::kFrameAllocTransient, proc)) {
    return FrameRef::Invalid();
  }
  auto& free_list = local_free_[static_cast<std::size_t>(proc)];
  if (free_list.empty() || AllocatedLocalFrames(proc) >= LocalLimit(proc)) {
    return FrameRef::Invalid();
  }
  std::uint32_t index = free_list.back();
  free_list.pop_back();
  return FrameRef::Local(proc, index);
}

void PhysicalMemory::FreeLocal(FrameRef frame) {
  ACE_CHECK(frame.valid() && frame.is_local());
  ACE_CHECK(frame.node < num_processors_);
  ACE_CHECK(frame.index < local_pages_per_proc_);
  local_free_[static_cast<std::size_t>(frame.node)].push_back(frame.index);
}

std::uint32_t PhysicalMemory::FreeLocalFrames(ProcId proc) const {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  std::uint32_t free_frames =
      static_cast<std::uint32_t>(local_free_[static_cast<std::size_t>(proc)].size());
  std::uint32_t limit = LocalLimit(proc);
  std::uint32_t allocated = local_pages_per_proc_ - free_frames;
  if (allocated >= limit) {
    return 0;
  }
  std::uint32_t headroom = limit - allocated;
  return headroom < free_frames ? headroom : free_frames;
}

std::uint32_t PhysicalMemory::AllocatedLocalFrames(ProcId proc) const {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  return local_pages_per_proc_ -
         static_cast<std::uint32_t>(local_free_[static_cast<std::size_t>(proc)].size());
}

void PhysicalMemory::SetLocalLimit(ProcId proc, std::uint32_t limit) {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  if (local_limit_.empty()) {
    local_limit_.assign(static_cast<std::size_t>(num_processors_), local_pages_per_proc_);
  }
  local_limit_[static_cast<std::size_t>(proc)] =
      limit < local_pages_per_proc_ ? limit : local_pages_per_proc_;
}

std::uint32_t PhysicalMemory::LocalLimit(ProcId proc) const {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  if (local_limit_.empty()) {
    return local_pages_per_proc_;
  }
  return local_limit_[static_cast<std::size_t>(proc)];
}

TimeNs PhysicalMemory::CopyPage(FrameRef src, FrameRef dst, ProcId copier) {
  ACE_CHECK(src.valid() && dst.valid());
  ACE_CHECK(!(src == dst));
  std::memcpy(FrameData(dst), FrameData(src), page_size_);
  TimeNs per_word = latency_.Cost(src.ClassFor(copier), AccessKind::kFetch) +
                    latency_.Cost(dst.ClassFor(copier), AccessKind::kStore);
  return static_cast<TimeNs>(static_cast<double>(per_word) * words_per_page_ * copy_efficiency_);
}

void PhysicalMemory::PoisonLocal(ProcId proc, std::uint8_t byte) {
  ACE_CHECK(proc >= 0 && proc < num_processors_);
  auto& slab = local_data_[static_cast<std::size_t>(proc)];
  std::memset(slab.data(), byte, slab.size());
}

TimeNs PhysicalMemory::ZeroPage(FrameRef frame, ProcId zeroer) {
  ACE_CHECK(frame.valid());
  std::memset(FrameData(frame), 0, page_size_);
  TimeNs per_word = latency_.Cost(frame.ClassFor(zeroer), AccessKind::kStore);
  return static_cast<TimeNs>(static_cast<double>(per_word) * words_per_page_ * copy_efficiency_);
}

}  // namespace ace
