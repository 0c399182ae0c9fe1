#include "src/obs/observability.h"

namespace ace {

void Observability::EnableTracing(std::size_t capacity_per_proc) {
  if (!tracer_.configured() || tracer_.capacity_per_proc() != capacity_per_proc) {
    tracer_.Configure(num_processors_, capacity_per_proc);
  }
  tracing_ = true;
}

void Observability::EnableHeat() {
  if (heat_ == nullptr) {
    heat_ = std::make_unique<HeatProfile>(num_processors_, num_pages_);
  }
  heat_on_ = true;
}

void Observability::OnEvent(TraceEventType type, LogicalPage lp, ProcId proc,
                            std::uint32_t aux) {
  if (tracing_) {
    tracer_.Emit(type, lp, proc, aux, clocks_->now(proc));
  }
  if (heat_on_) {
    heat_->CountEvent(type, lp);
  }
}

void Observability::OnRef(LogicalPage lp, ProcId proc, MemoryClass cls, AccessKind kind) {
  if (heat_on_) {
    heat_->RecordRef(lp, proc, cls, kind);
  }
}

void Observability::NoteState(LogicalPage lp, PageState state, ProcId proc) {
  if (heat_on_) {
    heat_->NoteState(lp, state, clocks_->now(proc));
  }
}

void Observability::NoteDecision(Placement decision) {
  if (heat_on_) {
    heat_->NoteDecision(decision);
  }
}

}  // namespace ace
