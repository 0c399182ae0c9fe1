// Data segregation — the language-processor remedy for false sharing.
//
// Paper section 1: programs "can be modified to better exploit automatic page
// placement, by placing into separate pages data that are private to a process, data
// that are shared for reading only, and data that are writably shared. This
// segregation can be performed by the applications programmer on an ad hoc basis or,
// potentially, by special language-processor based tools." Section 3.2 describes the
// two layout worlds this library reproduces:
//   * C-Threads: "truly private and truly shared data may be indiscriminately
//     interspersed in the program load image" (kNaive);
//   * EPEX FORTRAN: "variables are implicitly private unless explicitly tagged
//     'shared'. Shared data is automatically gathered together and separated from
//     private data" (kSegregated).
//
// SegregatedHeap is an allocator over a simulated task's address space operating in
// either mode; in segregated mode each data class gets its own page-aligned segments
// (private data additionally per-thread), so no page ever mixes classes.

#ifndef SRC_LANG_SEGREGATED_HEAP_H_
#define SRC_LANG_SEGREGATED_HEAP_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/machine/machine.h"
#include "src/trace/ref_trace.h"

namespace ace {

enum class DataClass : std::uint8_t {
  kPrivate = 0,        // touched by exactly one thread
  kReadShared = 1,     // written at initialization, then read by everyone
  kWritablyShared = 2, // written by several threads throughout
};

const char* DataClassName(DataClass c);

enum class LayoutMode {
  kNaive = 0,       // one bump region; classes interleave within pages (C-Threads)
  kSegregated = 1,  // per-class, per-owner page-aligned segments (EPEX)
};

class SegregatedHeap {
 public:
  struct Options {
    LayoutMode mode = LayoutMode::kSegregated;
    int num_threads = 1;
    // Attach allocations as named objects to this tracer (for false-sharing reports).
    RefTracer* tracer = nullptr;
  };

  SegregatedHeap(Machine* machine, Task* task, Options options);

  // Allocate `bytes` of the given class. Private allocations name their owning
  // thread. Returns the simulated virtual address.
  VirtAddr Alloc(const std::string& name, std::uint64_t bytes, DataClass cls,
                 int owner_tid = 0);

 private:
  struct Segment {
    VirtAddr base = 0;
    std::uint64_t size = 0;
    std::uint64_t used = 0;
  };

  // Segment key: class (and owner thread for private data) in segregated mode; a
  // single shared key in naive mode.
  std::uint64_t SegmentKey(DataClass cls, int owner_tid) const;
  VirtAddr BumpAlloc(Segment& segment, std::uint64_t bytes, const char* label);

  Machine* machine_;
  Task* task_;
  Options options_;
  std::map<std::uint64_t, Segment> segments_;
};

}  // namespace ace

#endif  // SRC_LANG_SEGREGATED_HEAP_H_
