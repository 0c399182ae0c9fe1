// Shared harness for the Table 1 / Table 2 reproduction benches.
//
// Drives the real NUMA manager through every (policy decision x page state) cell and
// records the actions it takes, so the printed matrix is generated from the
// implementation rather than transcribed from the paper.

#ifndef BENCH_PROTOCOL_TABLES_H_
#define BENCH_PROTOCOL_TABLES_H_

#include <string>
#include <vector>

#include "src/machine/machine.h"
#include "src/metrics/table.h"

namespace ace {

// The four "logical page state" columns of Tables 1 and 2.
enum class StartState {
  kReadOnly = 0,        // replicated read-only on another node
  kGlobalWritable = 1,  // in global memory
  kLocalWritableOwn = 2,    // local-writable on the requesting node
  kLocalWritableOther = 3,  // local-writable on another node
};

inline const char* StartStateName(StartState s) {
  switch (s) {
    case StartState::kReadOnly:
      return "Read-Only";
    case StartState::kGlobalWritable:
      return "Global-Writable";
    case StartState::kLocalWritableOwn:
      return "Local-Writable (own node)";
    case StartState::kLocalWritableOther:
      return "Local-Writable (other node)";
  }
  return "?";
}

struct ProtocolCellResult {
  std::string cleanup;
  bool copied_to_local = false;
  std::string new_state;
};

// Run one cell: prepare a fresh page in `start`, then issue a request of `kind` from
// processor 0 under the given policy decision, and report what the manager did.
inline ProtocolCellResult RunProtocolCell(AccessKind kind, Placement decision,
                                          StartState start) {
  ScriptedPolicy policy;
  Machine::Options mo;
  mo.config.num_processors = 3;
  mo.config.global_pages = 64;
  mo.config.local_pages_per_proc = 16;
  mo.custom_policy = &policy;
  Machine m(mo);
  Task* task = m.CreateTask("cell");
  VirtAddr va = task->MapAnonymous("page", m.page_size());

  // Prepare the starting state using requests from the appropriate processors.
  switch (start) {
    case StartState::kReadOnly:
      policy.next = Placement::kLocal;
      (void)m.LoadWord(*task, /*proc=*/1, va);  // replicate read-only on node 1
      break;
    case StartState::kGlobalWritable:
      policy.next = Placement::kGlobal;
      m.StoreWord(*task, /*proc=*/1, va, 1);
      break;
    case StartState::kLocalWritableOwn:
      policy.next = Placement::kLocal;
      m.StoreWord(*task, /*proc=*/0, va, 1);
      break;
    case StartState::kLocalWritableOther:
      policy.next = Placement::kLocal;
      m.StoreWord(*task, /*proc=*/1, va, 1);
      break;
  }

  // Force the next access to fault into the NUMA manager even if a usable mapping
  // exists (the table describes requests that reach the manager).
  LogicalPage lp = m.DebugLogicalPage(*task, va);
  m.pmap().RemoveAll(lp);

  NumaManager& manager = m.numa_manager();
  manager.set_trace_actions(true);
  policy.next = decision;
  if (kind == AccessKind::kFetch) {
    (void)m.LoadWord(*task, /*proc=*/0, va);
  } else {
    m.StoreWord(*task, /*proc=*/0, va, 2);
  }
  const ActionTrace& trace = manager.last_trace();

  ProtocolCellResult result;
  result.cleanup = trace.cleanup.empty() ? "-" : trace.cleanup[0];
  for (std::size_t i = 1; i < trace.cleanup.size(); ++i) {
    result.cleanup += "; " + trace.cleanup[i];
  }
  result.copied_to_local = trace.copied_to_local;
  result.new_state = PageStateName(trace.new_state);
  return result;
}

inline void PrintProtocolTable(AccessKind kind, const char* title) {
  std::printf("%s\n", title);
  std::printf("(generated by driving the NUMA manager implementation through each cell)\n\n");
  TextTable table({"Policy Decision", "Logical Page State", "Cleanup actions",
                   "Copy to local?", "New state"});
  for (Placement decision : {Placement::kLocal, Placement::kGlobal}) {
    for (StartState start :
         {StartState::kReadOnly, StartState::kGlobalWritable, StartState::kLocalWritableOwn,
          StartState::kLocalWritableOther}) {
      ProtocolCellResult cell = RunProtocolCell(kind, decision, start);
      table.AddRow({PlacementName(decision), StartStateName(start), cell.cleanup,
                    cell.copied_to_local ? "copy to local" : "-", cell.new_state});
    }
  }
  table.Print();
}

}  // namespace ace

#endif  // BENCH_PROTOCOL_TABLES_H_
