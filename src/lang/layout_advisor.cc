#include "src/lang/layout_advisor.h"

namespace ace {

LayoutPlan AdviseLayout(const RefTracer& tracer) {
  LayoutPlan plan;
  std::vector<FalseSharingFinding> findings = tracer.FindFalseSharing();
  auto falsely_shared = [&](const std::string& name) {
    for (const FalseSharingFinding& f : findings) {
      if (f.object_name == name) {
        return true;
      }
    }
    return false;
  };

  for (const TracedObject& object : tracer.objects()) {
    ObjectAdvice advice;
    advice.name = object.name;
    advice.was_falsely_shared = falsely_shared(object.name);
    switch (object.counts.Classify()) {
      case SharingClass::kUnreferenced:
      case SharingClass::kPrivate: {
        advice.cls = DataClass::kPrivate;
        ProcId owner = object.counts.Referencers().First();
        advice.owner_tid = owner == kNoProc ? 0 : owner;
        break;
      }
      case SharingClass::kReadShared:
        advice.cls = DataClass::kReadShared;
        break;
      case SharingClass::kWritablyShared: {
        // The paper's IMatMult lesson: "data that is writable, but that is never
        // written" (after initialization) should replicate. An object with a single
        // writing processor and an overwhelmingly read-dominated mix is init-then-read:
        // classify it read-shared so it is not colocated with genuinely shared data.
        const RefCounts& c = object.counts;
        bool read_mostly = c.writers.Count() == 1 &&
                           c.stores * 20 < c.fetches + c.stores;  // < 5% stores
        advice.cls = read_mostly ? DataClass::kReadShared : DataClass::kWritablyShared;
        break;
      }
    }
    if (advice.was_falsely_shared) {
      plan.falsely_shared++;
    }
    plan.objects.push_back(std::move(advice));
  }
  return plan;
}

}  // namespace ace
