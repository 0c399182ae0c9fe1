#include "src/conformance/ref_model.h"

#include "src/common/check.h"
#include "src/common/splitmix64.h"

namespace ace {

RefModel::RefModel(const Config& config)
    : config_(config),
      free_frames_(static_cast<std::size_t>(config.num_processors),
                   config.local_frames_per_proc),
      pages_(config.pages) {
  ACE_CHECK(config.num_processors >= 1 && config.num_processors <= kMaxProcessors);
  for (Page& page : pages_) {
    // Physical memory starts zeroed, so every page's initial logical content is zero.
    page.content.assign(config.words_per_page, 0);
  }
}

RefModel::Page& RefModel::At(LogicalPage lp) {
  ACE_CHECK(lp < pages_.size());
  return pages_[lp];
}

const RefModel::Page& RefModel::At(LogicalPage lp) const {
  ACE_CHECK(lp < pages_.size());
  return pages_[lp];
}

// --- policy ---------------------------------------------------------------------------

Placement RefModel::CachePolicy(LogicalPage lp) {
  Page& page = At(lp);
  switch (config_.policy) {
    case PolicyKind::kAllGlobal:
      return Placement::kGlobal;
    case PolicyKind::kAllLocal:
      return Placement::kLocal;
    case PolicyKind::kMoveLimit:
    case PolicyKind::kRemoteHome: {
      // Pragmas override everything; then the sticky pin/home decision; then the
      // move-count threshold, applied (and made sticky) at query time.
      Placement placed = config_.policy == PolicyKind::kMoveLimit ? Placement::kGlobal
                                                                  : Placement::kRemoteHome;
      if (page.pragma == PlacementPragma::kNoncacheable) {
        return Placement::kGlobal;
      }
      if (page.pragma == PlacementPragma::kCacheable) {
        return Placement::kLocal;
      }
      if (page.placed) {
        return placed;
      }
      if (page.moves >= config_.move_threshold) {
        page.placed = true;
        counters_.pages_pinned++;
        return placed;
      }
      return Placement::kLocal;
    }
  }
  ACE_CHECK_MSG(false, "bad PolicyKind");
}

void RefModel::CountMove(LogicalPage lp) {
  counters_.ownership_moves++;
  At(lp).moves++;
}

// --- consistency primitives -----------------------------------------------------------

bool RefModel::EnsureLocalCopy(LogicalPage lp, ProcId proc) {
  Page& page = At(lp);
  if (page.copies.Contains(proc)) {
    return true;
  }
  std::uint32_t& free = free_frames_[static_cast<std::size_t>(proc)];
  if (free == 0) {
    counters_.local_alloc_failures++;
    return false;
  }
  free--;
  if (page.zero_pending) {
    counters_.zero_fills++;
  } else {
    counters_.page_copies++;
  }
  page.copies.Add(proc);
  return true;
}

void RefModel::FlushCopy(LogicalPage lp, ProcId holder) {
  Page& page = At(lp);
  ACE_CHECK(page.copies.Contains(holder));
  page.copies.Remove(holder);
  free_frames_[static_cast<std::size_t>(holder)]++;
  counters_.page_flushes++;
}

void RefModel::FlushAllCopies(LogicalPage lp) {
  At(lp).copies.ForEach([&](ProcId holder) { FlushCopy(lp, holder); });
}

void RefModel::FlushCopiesExcept(LogicalPage lp, ProcId keep) {
  At(lp).copies.ForEach([&](ProcId holder) {
    if (holder != keep) {
      FlushCopy(lp, holder);
    }
  });
}

void RefModel::MaterializeGlobalZero(LogicalPage lp) {
  Page& page = At(lp);
  if (!page.zero_pending) {
    return;
  }
  counters_.zero_fills++;
  page.zero_pending = false;
  // Logical content is already all-zero; materialization changes no logical bytes.
}

void RefModel::BecomeOwner(LogicalPage lp, ProcId proc) {
  Page& page = At(lp);
  ACE_CHECK(page.copies.Contains(proc));
  page.state = PageState::kLocalWritable;
  page.owner = proc;
  page.zero_pending = false;
  if (page.last_owner != kNoProc && page.last_owner != proc) {
    CountMove(lp);
  }
  page.last_owner = proc;
}

// --- request resolution ---------------------------------------------------------------

RefModel::Outcome RefModel::Access(LogicalPage lp, AccessKind kind, ProcId proc,
                                   Protection max_prot) {
  Page& page = At(lp);
  Placement decision = CachePolicy(lp);

  // Local-memory-full fallback, exactly as HandleRequest applies it: only requests
  // that would have to allocate a frame at `proc` are demoted to GLOBAL.
  bool needs_local_frame;
  if (page.state == PageState::kRemoteHomed) {
    needs_local_frame = decision == Placement::kLocal && page.owner != proc;
  } else {
    needs_local_frame = (decision == Placement::kLocal || decision == Placement::kRemoteHome) &&
                        !page.copies.Contains(proc);
  }
  if (needs_local_frame && FreeLocalFrames(proc) == 0) {
    counters_.local_alloc_failures++;
    decision = Placement::kGlobal;
  }

  if (decision == Placement::kRemoteHome) {
    return ResolveRemote(lp, proc, max_prot);
  }
  return kind == AccessKind::kFetch ? ResolveRead(lp, proc, max_prot, decision)
                                    : ResolveWrite(lp, proc, max_prot, decision);
}

void RefModel::CollapseToGlobal(LogicalPage lp) {
  // The GLOBAL rows of Tables 1 and 2 (identical cleanup for reads and writes).
  Page& page = At(lp);
  switch (page.state) {
    case PageState::kReadOnly:
      FlushAllCopies(lp);
      break;
    case PageState::kGlobalWritable:
      break;
    case PageState::kLocalWritable:
      counters_.page_syncs++;
      page.journal_open = false;  // the sync retires the dirty-page journal
      FlushCopy(lp, page.owner);
      page.owner = kNoProc;
      break;
    case PageState::kRemoteHomed:
      counters_.page_unmaps++;
      counters_.page_syncs++;
      page.journal_open = false;
      FlushCopy(lp, page.owner);
      page.owner = kNoProc;
      break;
  }
  page.state = PageState::kGlobalWritable;
  page.owner = kNoProc;
  MaterializeGlobalZero(lp);
}

RefModel::Outcome RefModel::ResolveRead(LogicalPage lp, ProcId proc, Protection max_prot,
                                        Placement decision) {
  Page& page = At(lp);
  if (decision == Placement::kLocal) {
    switch (page.state) {
      case PageState::kReadOnly:
        ACE_CHECK(EnsureLocalCopy(lp, proc));
        break;
      case PageState::kGlobalWritable:
        counters_.page_unmaps++;
        ACE_CHECK(EnsureLocalCopy(lp, proc));
        page.state = PageState::kReadOnly;
        page.owner = kNoProc;
        break;
      case PageState::kRemoteHomed:
        counters_.page_unmaps++;
        if (page.owner == proc) {
          page.state = PageState::kLocalWritable;
          return Outcome{false, proc,
                         max_prot == Protection::kReadWrite ? Protection::kReadWrite
                                                            : Protection::kRead};
        }
        counters_.page_syncs++;
        page.journal_open = false;
        FlushCopy(lp, page.owner);
        page.state = PageState::kReadOnly;
        page.owner = kNoProc;
        CountMove(lp);  // last_owner deliberately kept (see NumaManager::ResolveRead)
        ACE_CHECK(EnsureLocalCopy(lp, proc));
        break;
      case PageState::kLocalWritable:
        if (page.owner == proc) {
          return Outcome{false, proc,
                         max_prot == Protection::kReadWrite ? Protection::kReadWrite
                                                            : Protection::kRead};
        }
        counters_.page_syncs++;
        page.journal_open = false;
        FlushCopy(lp, page.owner);
        page.state = PageState::kReadOnly;
        page.owner = kNoProc;
        CountMove(lp);
        ACE_CHECK(EnsureLocalCopy(lp, proc));
        break;
    }
    return Outcome{false, proc, Protection::kRead};
  }

  CollapseToGlobal(lp);
  return Outcome{true, kNoProc, max_prot};
}

RefModel::Outcome RefModel::ResolveWrite(LogicalPage lp, ProcId proc, Protection max_prot,
                                         Placement decision) {
  ACE_CHECK(max_prot == Protection::kReadWrite);
  Page& page = At(lp);
  if (decision == Placement::kLocal) {
    switch (page.state) {
      case PageState::kReadOnly:
        FlushCopiesExcept(lp, proc);
        ACE_CHECK(EnsureLocalCopy(lp, proc));
        BecomeOwner(lp, proc);
        break;
      case PageState::kGlobalWritable:
        counters_.page_unmaps++;
        ACE_CHECK(EnsureLocalCopy(lp, proc));
        BecomeOwner(lp, proc);
        break;
      case PageState::kRemoteHomed:
        counters_.page_unmaps++;
        if (page.owner != proc) {
          counters_.page_syncs++;
          page.journal_open = false;
          FlushCopy(lp, page.owner);
          page.state = PageState::kReadOnly;
          page.owner = kNoProc;
          ACE_CHECK(EnsureLocalCopy(lp, proc));
          BecomeOwner(lp, proc);
        } else {
          page.state = PageState::kLocalWritable;
        }
        break;
      case PageState::kLocalWritable:
        if (page.owner != proc) {
          counters_.page_syncs++;
          page.journal_open = false;
          FlushCopy(lp, page.owner);
          page.state = PageState::kReadOnly;
          page.owner = kNoProc;
          ACE_CHECK(EnsureLocalCopy(lp, proc));
          BecomeOwner(lp, proc);
        }
        break;
    }
    return Outcome{false, proc, Protection::kReadWrite};
  }

  CollapseToGlobal(lp);
  return Outcome{true, kNoProc, max_prot};
}

RefModel::Outcome RefModel::ResolveRemote(LogicalPage lp, ProcId proc, Protection max_prot) {
  Page& page = At(lp);
  switch (page.state) {
    case PageState::kReadOnly:
      FlushCopiesExcept(lp, proc);
      ACE_CHECK(EnsureLocalCopy(lp, proc));
      counters_.page_unmaps++;
      if (page.last_owner != kNoProc && page.last_owner != proc) {
        CountMove(lp);
      }
      page.state = PageState::kRemoteHomed;
      page.owner = proc;
      page.last_owner = proc;
      page.zero_pending = false;
      break;
    case PageState::kGlobalWritable:
      counters_.page_unmaps++;
      MaterializeGlobalZero(lp);
      ACE_CHECK(EnsureLocalCopy(lp, proc));
      if (page.last_owner != kNoProc && page.last_owner != proc) {
        CountMove(lp);
      }
      page.state = PageState::kRemoteHomed;
      page.owner = proc;
      page.last_owner = proc;
      break;
    case PageState::kLocalWritable:
      // The current owner becomes the home; a non-owner requester maps it remotely.
      page.state = PageState::kRemoteHomed;
      break;
    case PageState::kRemoteHomed:
      break;
  }
  return Outcome{false, page.owner, max_prot};
}

// --- content --------------------------------------------------------------------------

std::uint32_t RefModel::ReadWord(LogicalPage lp, std::uint32_t word) const {
  const Page& page = At(lp);
  ACE_CHECK(word < config_.words_per_page);
  return page.zero_pending ? 0 : page.content[word];
}

void RefModel::WriteWord(LogicalPage lp, std::uint32_t word, std::uint32_t value) {
  Page& page = At(lp);
  ACE_CHECK(word < config_.words_per_page);
  // Stores happen only through writable mappings, and every path that grants one
  // clears the pending zero-fill first.
  ACE_CHECK(!page.zero_pending);
  page.content[word] = value;
}

// --- lifecycle ------------------------------------------------------------------------

void RefModel::FreePage(LogicalPage lp) {
  Page& page = At(lp);
  page.copies.ForEach(
      [&](ProcId holder) { free_frames_[static_cast<std::size_t>(holder)]++; });
  // ResetPage: full NumaPageInfo reset plus the policy forgetting its decisions
  // ("our system never reconsiders a pinning decision unless the pinned page is paged
  // out and back in", section 4.3 footnote). No flush counters: the frames are
  // released directly, not through the consistency machinery.
  std::vector<std::uint32_t> zeros(config_.words_per_page, 0);
  page = Page{};
  page.content = std::move(zeros);
  // MarkZeroPending: the page comes back as a fresh, lazily zero-filled allocation.
  page.zero_pending = true;
}

void RefModel::SetPragma(LogicalPage lp, PlacementPragma pragma) {
  At(lp).pragma = pragma;
}

void RefModel::CopyLogicalPage(LogicalPage src, LogicalPage dst) {
  ACE_CHECK(src != dst);
  Page& src_page = At(src);
  Page& dst_page = At(dst);
  ACE_CHECK_MSG(dst_page.state == PageState::kReadOnly && dst_page.copies.Empty(),
                "pmap_copy_page destination must be fresh");
  if (src_page.zero_pending) {
    dst_page.zero_pending = true;
    dst_page.content.assign(config_.words_per_page, 0);
    return;
  }
  if (src_page.state == PageState::kLocalWritable ||
      src_page.state == PageState::kRemoteHomed) {
    counters_.page_syncs++;
    src_page.journal_open = false;  // SyncOwner on the source retires its journal
  }
  counters_.page_copies++;
  dst_page.zero_pending = false;
  dst_page.content = src_page.content;
}

std::uint32_t RefModel::MigrateResidentPages(ProcId from, ProcId to) {
  std::uint32_t moved = 0;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    Page& page = pages_[lp];
    if (page.state == PageState::kLocalWritable && page.owner == from) {
      counters_.page_syncs++;
      page.journal_open = false;
      FlushCopy(lp, from);
      page.state = PageState::kReadOnly;
      page.owner = kNoProc;
      if (EnsureLocalCopy(lp, to)) {
        page.state = PageState::kLocalWritable;
        page.owner = to;
        page.last_owner = to;  // not a counted move: deliberate relocation
        ++moved;
      }
    } else if (page.state == PageState::kReadOnly && page.copies.Contains(from)) {
      FlushCopy(lp, from);
    }
  }
  return moved;
}

void RefModel::PageRoundTrip(LogicalPage lp) {
  Page& page = At(lp);
  // PrepareForPageout: sync an owned copy back, flush every replica, materialize a
  // pending zero-fill — the content ends up in the global frame.
  if (page.state == PageState::kLocalWritable || page.state == PageState::kRemoteHomed) {
    counters_.page_syncs++;
  }
  FlushAllCopies(lp);
  MaterializeGlobalZero(lp);
  // ResetPage + LoadPageContent: all placement state (and the policy's move count)
  // starts over; only the bytes survive.
  std::vector<std::uint32_t> content = std::move(page.content);
  page = Page{};
  page.content = std::move(content);
}

// --- durability mirror (DESIGN.md section 14) -------------------------------------------

void RefModel::NoteStore(LogicalPage lp) {
  if (!config_.durability) {
    return;
  }
  Page& page = At(lp);
  if ((page.state != PageState::kLocalWritable && page.state != PageState::kRemoteHomed) ||
      page.owner == kNoProc) {
    return;  // only owned frames are journaled (NumaManager::NoteStore)
  }
  if (!page.journal_open) {
    // First store since ownership: the whole frame mirrors off-node. Unbounded
    // journal (see Config::durability), so the cap-overflow path never triggers.
    page.journal_open = true;
    counters_.replicated_pages++;
    counters_.journal_bytes += config_.words_per_page * kWordBytes;
  } else {
    counters_.journal_bytes += kWordBytes;  // later stores write through one word
  }
}

std::uint32_t RefModel::KillNode(ProcId node) {
  ACE_CHECK(node >= 0 && node < config_.num_processors);
  std::uint32_t released = 0;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    Page& page = pages_[lp];
    if (!page.copies.Contains(node)) {
      continue;
    }
    ++released;
    if ((page.state == PageState::kLocalWritable || page.state == PageState::kRemoteHomed) &&
        page.owner == node) {
      counters_.page_unmaps++;  // UnmapAll: remote-homed pages are mapped everywhere
      // Unbounded journal: a dirty page replays from its journal, a clean one from
      // the (current) global frame — either way the content survives unchanged.
      counters_.recovered_pages++;
      page.copies.Remove(node);
      free_frames_[static_cast<std::size_t>(node)]++;
      page.owner = kNoProc;
      page.state = PageState::kReadOnly;
      page.journal_open = false;
      counters_.page_flushes++;
    } else {
      // Read-Only replica: dies with its node, like an evacuation without the sync.
      FlushCopy(lp, node);
      counters_.evacuated_pages++;
    }
  }
  // The recovery manager zeroes the dead node's allocation limit before the kill, so
  // its free-frame level reads zero from here on and EnsureLocalCopy always fails.
  free_frames_[static_cast<std::size_t>(node)] = 0;
  return released;
}

std::uint32_t RefModel::CorruptAndScrub(ProcId node, std::uint64_t seed,
                                        std::uint32_t permille) {
  ACE_CHECK(node >= 0 && node < config_.num_processors);
  std::uint64_t rng = seed;
  std::uint32_t detected = 0;
  for (LogicalPage lp = 0; lp < pages_.size(); ++lp) {
    Page& page = pages_[lp];
    if (!page.copies.Contains(node)) {
      continue;
    }
    // One draw per resident frame, same order and recurrence as the real walk.
    const std::uint64_t draw = SplitMix64Next(&rng);
    if (draw % 1000 >= permille) {
      continue;
    }
    // Every corrupted frame is detected (checksum / reference comparison) and
    // repaired in place from its authoritative source — journal for dirty owners,
    // global frame for clean owners and replicas, zeros for pending-zero replicas.
    // No protocol state, logical content, or frame level changes.
    counters_.checksum_failures++;
    counters_.recovered_pages++;
    ++detected;
  }
  return detected;
}

// --- observation ----------------------------------------------------------------------

RefModel::PageView RefModel::View(LogicalPage lp) const {
  const Page& page = At(lp);
  return PageView{page.state, page.owner,          page.last_owner,
                  page.copies.bits(), page.zero_pending, page.pragma};
}

std::uint32_t RefModel::FreeLocalFrames(ProcId proc) const {
  ACE_CHECK(proc >= 0 && proc < config_.num_processors);
  return free_frames_[static_cast<std::size_t>(proc)];
}

}  // namespace ace
