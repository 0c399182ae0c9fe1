// The layout advisor: the "special language-processor based tool" the paper proposes.
//
// Section 4.2: "We expect that language processor level solutions to the false
// sharing problem can significantly reduce the amount of intervention necessary by
// the application programmer." The advisor closes the loop the paper describes doing
// by hand:
//
//   1. run the program once with tracing (objects registered with RefTracer);
//   2. the advisor classifies every object from its observed readers/writers —
//      private (with its owning processor), read-shared, or writably-shared — and
//      reports the falsely-shared ones;
//   3. the proposed plan assigns each object a DataClass; re-allocating through a
//      SegregatedHeap in segregated mode realizes the paper's manual fixes
//      ("we separately coalesced cacheable and non-cacheable objects and padded
//      around them") automatically.

#ifndef SRC_LANG_LAYOUT_ADVISOR_H_
#define SRC_LANG_LAYOUT_ADVISOR_H_

#include <string>
#include <vector>

#include "src/lang/segregated_heap.h"
#include "src/trace/ref_trace.h"

namespace ace {

struct ObjectAdvice {
  std::string name;
  DataClass cls = DataClass::kWritablyShared;
  int owner_tid = 0;           // meaningful for kPrivate (assumes thread i on proc i)
  bool was_falsely_shared = false;
};

struct LayoutPlan {
  std::vector<ObjectAdvice> objects;
  int falsely_shared = 0;

  const ObjectAdvice* Find(const std::string& name) const {
    for (const ObjectAdvice& o : objects) {
      if (o.name == name) {
        return &o;
      }
    }
    return nullptr;
  }
};

// Build a layout plan from a traced run. Objects never referenced are classified as
// private to thread 0 (harmless default).
LayoutPlan AdviseLayout(const RefTracer& tracer);

}  // namespace ace

#endif  // SRC_LANG_LAYOUT_ADVISOR_H_
