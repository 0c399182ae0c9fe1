// Executable reference model of the NUMA cache protocol.
//
// A second, independent implementation of the paper's page-state machine (Tables 1
// and 2 plus the section 4.3 pragmas, the section 2.3.2 move limit, and the section
// 4.4 remote-home extension), written as pure bookkeeping: no frames, no clocks, no
// pmap — just the logical state every correct implementation must reach. The
// differential checker (differ.h) drives this model and the real NumaManager with the
// same operation stream and diffs the observable state after every step.
//
// The model deliberately re-derives the protocol from the paper's tables rather than
// calling into src/numa, so a bug in NumaManager cannot hide by being mirrored here.
// Where NumaManager has a defensible free choice (e.g. which processor's clock is
// charged), the model tracks nothing; where behaviour is observable through the
// public API (states, owners, replica sets, content, counters, free-frame levels),
// the model tracks it exactly.

#ifndef SRC_CONFORMANCE_REF_MODEL_H_
#define SRC_CONFORMANCE_REF_MODEL_H_

#include <cstdint>
#include <vector>

#include "src/common/proc_set.h"
#include "src/common/protection.h"
#include "src/common/types.h"
#include "src/numa/page_state.h"
#include "src/numa/policy.h"

namespace ace {

class RefModel {
 public:
  // The shipped policies the checker exercises. ReconsiderPolicy is excluded: its
  // decisions depend on virtual clock values, which the model deliberately does not
  // track.
  enum class PolicyKind : std::uint8_t {
    kMoveLimit = 0,   // paper section 2.3.2: pin after N moves
    kRemoteHome = 1,  // section 4.4: home after N moves instead of pinning
    kAllGlobal = 2,
    kAllLocal = 3,
  };

  struct Config {
    int num_processors = 4;
    std::uint32_t pages = 24;
    std::uint32_t local_frames_per_proc = 6;
    std::uint32_t words_per_page = 64;
    PolicyKind policy = PolicyKind::kMoveLimit;
    int move_threshold = 4;
    // Mirror the durability substrate (src/numa/replica_manager.h): dirty-page
    // journal accounting on owned stores, and the KillNode/CorruptAndScrub
    // transitions. The model assumes an *unbounded* journal — it tracks only the
    // current logical content, never the stale global copy an unreplicated page
    // would degrade to — so the differ must attach the real ReplicaManager with an
    // effectively unlimited journal_page_cap.
    bool durability = false;
  };

  // What one resolved request looks like from outside: which memory the mapping
  // points at and how tight the protection is. Local frame *indices* are an
  // implementation freedom, so only the node is modeled.
  struct Outcome {
    bool is_global = false;
    ProcId node = kNoProc;  // meaningful when !is_global
    Protection prot = Protection::kNone;
  };

  // The counters a correct implementation must report (the subset of MachineStats the
  // protocol determines exactly).
  struct Counters {
    std::uint64_t zero_fills = 0;
    std::uint64_t page_copies = 0;
    std::uint64_t page_syncs = 0;
    std::uint64_t page_flushes = 0;
    std::uint64_t page_unmaps = 0;
    std::uint64_t ownership_moves = 0;
    std::uint64_t pages_pinned = 0;
    std::uint64_t local_alloc_failures = 0;
    // Durability and recovery (all zero unless Config::durability). With the
    // unbounded-journal assumption every killed or corrupted page is recoverable,
    // so lost_pages stays zero by construction — comparing it against the real side
    // asserts full recoverability, not just agreement.
    std::uint64_t evacuated_pages = 0;
    std::uint64_t replicated_pages = 0;
    std::uint64_t journal_bytes = 0;
    std::uint64_t recovered_pages = 0;
    std::uint64_t lost_pages = 0;
    std::uint64_t checksum_failures = 0;
  };

  // Observable per-page state.
  struct PageView {
    PageState state = PageState::kReadOnly;
    ProcId owner = kNoProc;
    ProcId last_owner = kNoProc;
    std::uint32_t copies_bits = 0;
    bool zero_pending = false;
    PlacementPragma pragma = PlacementPragma::kDefault;
  };

  explicit RefModel(const Config& config);

  // One page fault: NumaManager::HandleRequest.
  Outcome Access(LogicalPage lp, AccessKind kind, ProcId proc, Protection max_prot);

  // Logical content of one word (what DebugReadWord must return).
  std::uint32_t ReadWord(LogicalPage lp, std::uint32_t word) const;
  // A user store through a writable mapping obtained from Access.
  void WriteWord(LogicalPage lp, std::uint32_t word, std::uint32_t value);

  // ResetPage followed by MarkZeroPending: the page is freed and comes back as a
  // fresh, lazily zero-filled allocation.
  void FreePage(LogicalPage lp);

  void SetPragma(LogicalPage lp, PlacementPragma pragma);

  // CopyLogicalPage; `dst` must be fresh (state Read-Only, no copies).
  void CopyLogicalPage(LogicalPage src, LogicalPage dst);

  // MigrateResidentPages; returns the number of pages moved.
  std::uint32_t MigrateResidentPages(ProcId from, ProcId to);

  // PrepareForPageout → ResetPage → LoadPageContent with the prepared bytes: the page
  // keeps its content but loses all placement state (and its policy move count).
  void PageRoundTrip(LogicalPage lp);

  // --- durability mirror (Config::durability; DESIGN.md section 14) -------------------

  // A user store landed in `lp`'s owner frame (call after WriteWord when the access
  // resolved to a local frame). Mirrors NumaManager::NoteStore's journal accounting:
  // the first store since ownership mirrors the whole page, later ones write through
  // one word. The journal retires whenever the owner syncs back.
  void NoteStore(LogicalPage lp);

  // NumaManager::KillNode on a node whose allocation limit was zeroed: every resident
  // copy at `node` dies. Owned pages recover from the journal (dirty) or the current
  // global frame (clean) — unbounded journal, so never lost — and degrade to
  // Read-Only with no copies; Read-Only replicas die like an evacuation without the
  // sync. Afterwards the node's free-frame level reads zero (SetLocalLimit(node, 0)).
  // Returns the number of released pages.
  std::uint32_t KillNode(ProcId node);

  // NumaManager::CorruptAndScrubNode: one SplitMix64Next draw per page resident
  // at `node` in ascending order decides corruption (draw % 1000 < permille). Every
  // corrupted frame is detected and repaired in place — checksum_failures and
  // recovered_pages each advance by one; no state, content, or frame level changes.
  std::uint32_t CorruptAndScrub(ProcId node, std::uint64_t seed, std::uint32_t permille);

  PageView View(LogicalPage lp) const;
  std::uint32_t FreeLocalFrames(ProcId proc) const;
  const Counters& counters() const { return counters_; }
  const Config& config() const { return config_; }

 private:
  struct Page {
    PageState state = PageState::kReadOnly;
    ProcId owner = kNoProc;
    ProcId last_owner = kNoProc;
    ProcSet copies;
    bool zero_pending = false;
    PlacementPragma pragma = PlacementPragma::kDefault;
    // Policy-side per-page state (move count and the sticky pin/home decision).
    int moves = 0;
    bool placed = false;
    // Durability mirror: a dirty-page journal is open for this page (stored-to since
    // ownership and not yet synced back). Journal *content* is not tracked — every
    // store writes through, so it always equals the current logical content.
    bool journal_open = false;
    // Current logical content, one entry per word. While zero_pending is set the
    // logical content is zero regardless of this array (ReadWord handles it).
    std::vector<std::uint32_t> content;
  };

  Page& At(LogicalPage lp);
  const Page& At(LogicalPage lp) const;

  Placement CachePolicy(LogicalPage lp);
  void CountMove(LogicalPage lp);
  bool EnsureLocalCopy(LogicalPage lp, ProcId proc);
  void FlushCopy(LogicalPage lp, ProcId holder);
  void FlushAllCopies(LogicalPage lp);
  void FlushCopiesExcept(LogicalPage lp, ProcId keep);
  void MaterializeGlobalZero(LogicalPage lp);
  void BecomeOwner(LogicalPage lp, ProcId proc);

  Outcome ResolveRead(LogicalPage lp, ProcId proc, Protection max_prot, Placement decision);
  Outcome ResolveWrite(LogicalPage lp, ProcId proc, Protection max_prot, Placement decision);
  Outcome ResolveRemote(LogicalPage lp, ProcId proc, Protection max_prot);
  void CollapseToGlobal(LogicalPage lp);  // the shared GLOBAL row of Tables 1 and 2

  Config config_;
  Counters counters_;
  std::vector<std::uint32_t> free_frames_;  // per processor
  std::vector<Page> pages_;
};

}  // namespace ace

#endif  // SRC_CONFORMANCE_REF_MODEL_H_
