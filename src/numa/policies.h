// Concrete NUMA policies.
//
//  * MoveLimitPolicy — the paper's policy (section 2.3.2): answer LOCAL until a page
//    has used up its threshold number of ownership moves (default four), then answer
//    GLOBAL forever — the page is "pinned" until freed. Honors placement pragmas.
//  * AllGlobalPolicy — the baseline used to measure Tglobal (section 3.1): place all
//    data pages in global memory.
//  * AllLocalPolicy — always answer LOCAL; with a single thread this realizes the
//    Tlocal measurement (all data in local memory). With multiple writers it shows the
//    thrashing the move limit exists to prevent.
//  * ReconsiderPolicy — the paper's future-work extension (sections 4.3/5): like
//    MoveLimitPolicy, but a pinning decision expires after a configurable interval of
//    virtual time, giving pages whose sharing behaviour was transient another chance.

#ifndef SRC_NUMA_POLICIES_H_
#define SRC_NUMA_POLICIES_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/numa/policy.h"
#include "src/sim/clocks.h"
#include "src/sim/stats.h"

namespace ace {

class MoveLimitPolicy : public NumaPolicy {
 public:
  struct Options {
    // Ownership moves a page may make before being pinned in global memory. The paper:
    // "a system-wide boot-time parameter which defaults to four".
    int move_threshold = 4;
  };

  MoveLimitPolicy(std::uint32_t num_pages, Options options, MachineStats* stats)
      : options_(options), stats_(stats), page_(num_pages) {}

  Placement CachePolicy(LogicalPage lp, AccessKind kind, ProcId proc) override;
  void NoteOwnershipMove(LogicalPage lp) override { page_[lp].moves++; }
  void NotePageFreed(LogicalPage lp) override { page_[lp] = PerPage{}; }
  void NoteAdvice(LogicalPage lp, PlacementPragma pragma) override { page_[lp].pragma = pragma; }
  const char* name() const override { return "move-limit"; }

  bool IsPinned(LogicalPage lp) const { return page_[lp].pinned; }
  int MoveCount(LogicalPage lp) const { return page_[lp].moves; }
  std::uint64_t pinned_pages() const { return pinned_pages_; }

 private:
  struct PerPage {
    int moves = 0;
    bool pinned = false;
    PlacementPragma pragma = PlacementPragma::kDefault;
  };

  Options options_;
  MachineStats* stats_;
  std::vector<PerPage> page_;
  std::uint64_t pinned_pages_ = 0;
};

class AllGlobalPolicy : public NumaPolicy {
 public:
  Placement CachePolicy(LogicalPage, AccessKind, ProcId) override { return Placement::kGlobal; }
  const char* name() const override { return "all-global"; }
};

class AllLocalPolicy : public NumaPolicy {
 public:
  Placement CachePolicy(LogicalPage, AccessKind, ProcId) override { return Placement::kLocal; }
  const char* name() const override { return "all-local"; }
};

// The section 4.4 alternative to pinning: like MoveLimitPolicy, but when a page uses
// up its moves it is *homed* in the local memory of its last owner rather than placed
// in global memory; other processors then reference it remotely. On machines without
// physically global memory (Butterfly, RP3) this is the only option; on the ACE the
// paper expected it to lose unless reference patterns are lopsided — the section 4.4
// view of the `ablations` sweep suite measures exactly that.
class RemoteHomePolicy : public NumaPolicy {
 public:
  struct Options {
    int move_threshold = 4;
  };

  RemoteHomePolicy(std::uint32_t num_pages, Options options, MachineStats* stats)
      : options_(options), stats_(stats), page_(num_pages) {}

  Placement CachePolicy(LogicalPage lp, AccessKind kind, ProcId proc) override;
  void NoteOwnershipMove(LogicalPage lp) override { page_[lp].moves++; }
  void NotePageFreed(LogicalPage lp) override { page_[lp] = PerPage{}; }
  void NoteAdvice(LogicalPage lp, PlacementPragma pragma) override { page_[lp].pragma = pragma; }
  const char* name() const override { return "remote-home"; }

  bool IsHomed(LogicalPage lp) const { return page_[lp].homed; }

 private:
  struct PerPage {
    int moves = 0;
    bool homed = false;
    PlacementPragma pragma = PlacementPragma::kDefault;
  };

  Options options_;
  MachineStats* stats_;
  std::vector<PerPage> page_;
};

// A policy whose next answer is set externally. Used by the protocol-table bench, the
// test suite, and any experiment that wants manual control of placement decisions.
class ScriptedPolicy : public NumaPolicy {
 public:
  Placement CachePolicy(LogicalPage, AccessKind, ProcId) override { return next; }
  const char* name() const override { return "scripted"; }

  Placement next = Placement::kLocal;
};

class ReconsiderPolicy : public NumaPolicy {
 public:
  struct Options {
    int move_threshold = 4;
    // Virtual time after which a pin is reconsidered (the move count restarts).
    TimeNs reconsider_after_ns = 50'000'000;  // 50 ms of processor time
  };

  ReconsiderPolicy(std::uint32_t num_pages, Options options, MachineStats* stats,
                   const ProcClocks* clocks)
      : options_(options), stats_(stats), clocks_(clocks), page_(num_pages) {}

  Placement CachePolicy(LogicalPage lp, AccessKind kind, ProcId proc) override;
  void NoteOwnershipMove(LogicalPage lp) override { page_[lp].moves++; }
  void NotePageFreed(LogicalPage lp) override { page_[lp] = PerPage{}; }
  void NoteAdvice(LogicalPage lp, PlacementPragma pragma) override { page_[lp].pragma = pragma; }
  const char* name() const override { return "reconsider"; }

  bool IsPinned(LogicalPage lp) const { return page_[lp].pinned; }
  std::uint64_t unpin_events() const { return unpin_events_; }

 private:
  struct PerPage {
    int moves = 0;
    bool pinned = false;
    TimeNs pinned_at_ns = 0;
    PlacementPragma pragma = PlacementPragma::kDefault;
  };

  Options options_;
  MachineStats* stats_;
  const ProcClocks* clocks_;
  std::vector<PerPage> page_;
  std::uint64_t unpin_events_ = 0;
};

}  // namespace ace

#endif  // SRC_NUMA_POLICIES_H_
