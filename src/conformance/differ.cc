#include "src/conformance/differ.h"

#include <iterator>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "src/common/check.h"
#include "src/common/splitmix64.h"
#include "src/numa/policies.h"
#include "src/numa/replica_manager.h"
#include "src/obs/observability.h"
#include "src/sim/clocks.h"
#include "src/sim/machine_config.h"
#include "src/sim/physical_memory.h"
#include "src/sim/stats.h"

namespace ace {

namespace {

// The checker drives NumaManager directly, below the pmap layer; there are no
// virtual mappings to drop.
class NullMappings : public MappingControl {
 public:
  void RemoveMappingsOn(LogicalPage, ProcId) override {}
  void RemoveAllMappings(LogicalPage) override {}
};

// Software-TLB mirror (ConformConfig::tlb): caches every resolution per (proc, page)
// and discards entries ONLY through the MappingControl callbacks — the exact
// discipline Machine's per-processor TLB (src/machine/tlb.h) relies on. Unlike the
// real direct-mapped TLB it never conflict-evicts, so every translation the protocol
// failed to shoot down survives to be caught by Validate().
class TlbMirror : public MappingControl {
 public:
  struct Entry {
    FrameRef frame;
    Protection prot = Protection::kNone;
  };

  void Install(ProcId proc, LogicalPage lp, FrameRef frame, Protection prot) {
    entries_[Key(proc, lp)] = Entry{frame, prot};
  }

  void RemoveMappingsOn(LogicalPage lp, ProcId proc) override {
    entries_.erase(Key(proc, lp));
  }

  void RemoveAllMappings(LogicalPage lp) override {
    for (auto it = entries_.begin(); it != entries_.end();) {
      it = (it->first & 0xffffffffu) == lp ? entries_.erase(it) : std::next(it);
    }
  }

  // Is each surviving translation still the one the protocol would install? Derived
  // from the resolution tables (numa_manager.cc): global mappings exist only while
  // the page is Global-Writable; a processor's own-frame mapping requires its replica
  // (writable only for the owning processor); a mapping of *another* node's frame
  // exists only for remote-homed pages, pointing at the home frame.
  std::optional<std::string> Validate(const NumaManager& manager) const {
    for (const auto& [key, e] : entries_) {
      ProcId proc = static_cast<ProcId>(key >> 32);
      LogicalPage lp = static_cast<LogicalPage>(key & 0xffffffffu);
      const NumaPageInfo& info = manager.PageInfo(lp);
      if (StillValid(info, lp, proc, e)) {
        continue;
      }
      std::ostringstream out;
      out << "stale TLB entry: proc " << proc << " page " << lp << " -> "
          << (e.frame.is_global() ? "global" : "local") << " node=" << e.frame.node
          << " index=" << e.frame.index << " prot=" << ProtName(e.prot)
          << " survived a transition to state=" << PageStateName(info.state)
          << " owner=" << info.owner << " (missed shootdown)";
      return out.str();
    }
    return std::nullopt;
  }

 private:
  static std::uint64_t Key(ProcId proc, LogicalPage lp) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(proc)) << 32) | lp;
  }

  static bool StillValid(const NumaPageInfo& info, LogicalPage lp, ProcId proc,
                         const Entry& e) {
    if (e.frame.is_global()) {
      return info.state == PageState::kGlobalWritable && e.frame.index == lp;
    }
    if (e.frame.node == proc) {
      if (info.local_frame[static_cast<std::size_t>(proc)] != e.frame.index ||
          !info.copies.Contains(proc)) {
        return false;
      }
      bool owner_here = (info.state == PageState::kLocalWritable ||
                         info.state == PageState::kRemoteHomed) &&
                        info.owner == proc;
      if (e.prot == Protection::kReadWrite) {
        return owner_here;
      }
      return owner_here || info.state == PageState::kReadOnly;
    }
    return info.state == PageState::kRemoteHomed && info.owner == e.frame.node &&
           info.local_frame[static_cast<std::size_t>(e.frame.node)] == e.frame.index;
  }

  std::unordered_map<std::uint64_t, Entry> entries_;
};

MachineConfig BuildMachineConfig(const ConformConfig& cc) {
  MachineConfig mc;
  mc.num_processors = cc.num_processors;
  mc.page_size = cc.page_size;
  mc.global_pages = cc.pages;
  mc.local_pages_per_proc = cc.local_frames_per_proc;
  mc.Validate();
  return mc;
}

std::unique_ptr<NumaPolicy> BuildPolicy(const ConformConfig& cc, MachineStats* stats) {
  switch (cc.policy) {
    case RefModel::PolicyKind::kMoveLimit:
      return std::make_unique<MoveLimitPolicy>(
          cc.pages, MoveLimitPolicy::Options{cc.move_threshold}, stats);
    case RefModel::PolicyKind::kRemoteHome:
      return std::make_unique<RemoteHomePolicy>(
          cc.pages, RemoteHomePolicy::Options{cc.move_threshold}, stats);
    case RefModel::PolicyKind::kAllGlobal:
      return std::make_unique<AllGlobalPolicy>();
    case RefModel::PolicyKind::kAllLocal:
      return std::make_unique<AllLocalPolicy>();
  }
  ACE_CHECK_MSG(false, "bad PolicyKind");
}

RefModel::Config BuildModelConfig(const ConformConfig& cc) {
  RefModel::Config mc;
  mc.num_processors = cc.num_processors;
  mc.pages = cc.pages;
  mc.local_frames_per_proc = cc.local_frames_per_proc;
  mc.words_per_page = cc.WordsPerPage();
  mc.policy = cc.policy;
  mc.move_threshold = cc.move_threshold;
  mc.durability = cc.durability;
  return mc;
}

const char* PragmaName(PlacementPragma p) {
  switch (p) {
    case PlacementPragma::kDefault:
      return "default";
    case PlacementPragma::kCacheable:
      return "cacheable";
    case PlacementPragma::kNoncacheable:
      return "noncacheable";
  }
  return "?";
}

}  // namespace

struct Differ::Impl {
  explicit Impl(const ConformConfig& cc)
      : config(cc),
        machine(BuildMachineConfig(cc)),
        phys(machine),
        clocks(machine.num_processors),
        policy(BuildPolicy(cc, &stats)),
        manager(machine, &phys, &clocks, &stats, policy.get(),
                cc.tlb ? static_cast<MappingControl*>(&tlb) : &mappings),
        model(BuildModelConfig(cc)),
        obs(cc.num_processors, cc.pages, &clocks) {
    if (!cc.plan.empty()) {
      injector = std::make_unique<FaultInjector>(cc.plan, cc.fault_seed);
      injector->set_clocks(&clocks);
      phys.set_fault_injector(injector.get());
      manager.set_fault_injector(injector.get());
    }
    if (cc.durability) {
      // Unbounded journal: the RefModel tracks only current logical content (never
      // the stale global copy an unreplicated page degrades to), so every owned page
      // must stay recoverable. One journal per page is the true upper bound.
      ReplicaManager::Options ropt;
      ropt.journal_page_cap = cc.pages;
      replica = std::make_unique<ReplicaManager>(machine, &phys, &clocks, &stats, ropt);
      manager.set_replica_manager(replica.get());
    }
    // The conformance sweeps run with full observability attached: a protocol bug that
    // only appears when tracing is on (or one the hooks themselves introduce) must not
    // slip past the differ. The small ring keeps long sweeps cheap.
    obs.EnableHeat();
    obs.EnableTracing(1024);
    manager.set_observability(&obs);
  }

  std::optional<std::string> CompareAll();

  ConformConfig config;
  MachineConfig machine;
  PhysicalMemory phys;
  ProcClocks clocks;
  MachineStats stats;
  std::unique_ptr<NumaPolicy> policy;
  NullMappings mappings;
  TlbMirror tlb;  // real side's MappingControl when config.tlb — declared before manager
  NumaManager manager;
  RefModel model;
  Observability obs;
  std::unique_ptr<FaultInjector> injector;
  std::unique_ptr<ReplicaManager> replica;  // armed when config.durability
  std::uint32_t dead_nodes = 0;             // bit p: processor p killed this stream
};

std::optional<std::string> Differ::Impl::CompareAll() {
  std::ostringstream out;
  for (LogicalPage lp = 0; lp < config.pages; ++lp) {
    const NumaPageInfo& real = manager.PageInfo(lp);
    RefModel::PageView want = model.View(lp);
    if (real.state != want.state) {
      out << "page " << lp << " state: manager=" << PageStateName(real.state)
          << " model=" << PageStateName(want.state);
      return out.str();
    }
    if (real.owner != want.owner) {
      out << "page " << lp << " owner: manager=" << real.owner << " model=" << want.owner;
      return out.str();
    }
    if (real.last_owner != want.last_owner) {
      out << "page " << lp << " last_owner: manager=" << real.last_owner
          << " model=" << want.last_owner;
      return out.str();
    }
    if (real.copies.bits() != want.copies_bits) {
      out << "page " << lp << " replica set: manager=0x" << std::hex << real.copies.bits()
          << " model=0x" << want.copies_bits;
      return out.str();
    }
    if (real.zero_pending != want.zero_pending) {
      out << "page " << lp << " zero_pending: manager=" << real.zero_pending
          << " model=" << want.zero_pending;
      return out.str();
    }
    if (real.pragma != want.pragma) {
      out << "page " << lp << " pragma: manager=" << PragmaName(real.pragma)
          << " model=" << PragmaName(want.pragma);
      return out.str();
    }
    for (std::uint32_t word = 0; word < config.WordsPerPage(); ++word) {
      std::uint32_t got = manager.DebugReadWord(lp, word * kWordBytes);
      std::uint32_t want_word = model.ReadWord(lp, word);
      if (got != want_word) {
        out << "page " << lp << " word " << word << ": manager=0x" << std::hex << got
            << " model=0x" << want_word;
        return out.str();
      }
    }
  }
  for (ProcId p = 0; p < config.num_processors; ++p) {
    if (phys.FreeLocalFrames(p) != model.FreeLocalFrames(p)) {
      out << "proc " << p << " free local frames: manager=" << phys.FreeLocalFrames(p)
          << " model=" << model.FreeLocalFrames(p);
      return out.str();
    }
  }
  const RefModel::Counters& want = model.counters();
  struct {
    const char* name;
    std::uint64_t got;
    std::uint64_t want;
  } counters[] = {
      {"zero_fills", stats.zero_fills, want.zero_fills},
      {"page_copies", stats.page_copies, want.page_copies},
      {"page_syncs", stats.page_syncs, want.page_syncs},
      {"page_flushes", stats.page_flushes, want.page_flushes},
      {"page_unmaps", stats.page_unmaps, want.page_unmaps},
      {"ownership_moves", stats.ownership_moves, want.ownership_moves},
      {"pages_pinned", stats.pages_pinned, want.pages_pinned},
      {"local_alloc_failures", stats.local_alloc_failures, want.local_alloc_failures},
      // Durability and recovery: all six stay zero when config.durability is off (the
      // disarmed-substrate invariant); with it on, lost_pages is compared against the
      // model's constant zero, i.e. every kill and corruption must be recoverable.
      {"evacuated_pages", stats.evacuated_pages, want.evacuated_pages},
      {"replicated_pages", stats.replicated_pages, want.replicated_pages},
      {"journal_bytes", stats.journal_bytes, want.journal_bytes},
      {"recovered_pages", stats.recovered_pages, want.recovered_pages},
      {"lost_pages", stats.lost_pages, want.lost_pages},
      {"checksum_failures", stats.checksum_failures, want.checksum_failures},
  };
  for (const auto& c : counters) {
    if (c.got != c.want) {
      out << "counter " << c.name << ": manager=" << c.got << " model=" << c.want;
      return out.str();
    }
  }
  if (config.tlb) {
    if (std::optional<std::string> stale = tlb.Validate(manager)) {
      return stale;
    }
  }
  return std::nullopt;
}

Differ::Differ(const ConformConfig& config) : impl_(new Impl(config)) {}

Differ::~Differ() { delete impl_; }

NumaManager& Differ::manager() { return impl_->manager; }

const RefModel& Differ::model() const { return impl_->model; }

const MachineStats& Differ::stats() const { return impl_->stats; }

std::optional<std::string> Differ::Step(const ConformOp& op) {
  Impl& im = *impl_;
  const ConformConfig& cc = im.config;
  switch (op.kind) {
    case ConformOp::Kind::kAccess: {
      // Stores require a writable region; fetches may come from a read-only one.
      Protection max_prot = (op.access == AccessKind::kStore || op.writable_region)
                                ? Protection::kReadWrite
                                : Protection::kRead;
      std::uint32_t offset = (op.offset % cc.page_size) & ~(kWordBytes - 1);
      RefModel::Outcome want = im.model.Access(op.lp, op.access, op.proc, max_prot);
      Resolution got = im.manager.HandleRequest(op.lp, op.access, op.proc, max_prot);
      if (got.frame.is_global() != want.is_global ||
          (!want.is_global && got.frame.node != want.node) || got.prot != want.prot) {
        std::ostringstream out;
        out << "resolution of " << FormatOp(op) << ": manager={"
            << (got.frame.is_global() ? "global" : "local") << " node=" << got.frame.node
            << " prot=" << ProtName(got.prot) << "} model={"
            << (want.is_global ? "global" : "local") << " node=" << want.node
            << " prot=" << ProtName(want.prot) << "}";
        return out.str();
      }
      if (op.access == AccessKind::kFetch) {
        std::uint32_t got_word = im.phys.ReadWord(got.frame, offset);
        std::uint32_t want_word = im.model.ReadWord(op.lp, offset / kWordBytes);
        if (got_word != want_word) {
          std::ostringstream out;
          out << "fetched value of " << FormatOp(op) << ": manager=0x" << std::hex << got_word
              << " model=0x" << want_word;
          return out.str();
        }
      } else {
        im.phys.WriteWord(got.frame, offset, op.value);
        im.model.WriteWord(op.lp, offset / kWordBytes, op.value);
        // The journal hook Machine::Access runs after every store (no-op unless the
        // durability substrate is armed and the store landed in an owned frame).
        im.manager.NoteStore(op.lp, offset, op.value, op.proc, /*charge=*/true);
        im.model.NoteStore(op.lp);
      }
      if (cc.tlb) {
        im.tlb.Install(op.proc, op.lp, got.frame, got.prot);
      }
      break;
    }
    case ConformOp::Kind::kFree:
      // pmap_free_page drops the mappings before releasing the cache state
      // (pmap_ace.cc); the mirror models the pmap, so it must do the same.
      im.tlb.RemoveAllMappings(op.lp);
      im.manager.ResetPage(op.lp, op.proc);
      im.manager.MarkZeroPending(op.lp);
      im.model.FreePage(op.lp);
      break;
    case ConformOp::Kind::kCopy: {
      RefModel::PageView dst = im.model.View(op.lp2);
      bool applicable = op.lp != op.lp2 && dst.state == PageState::kReadOnly &&
                        dst.copies_bits == 0;
      if (applicable) {
        im.manager.CopyLogicalPage(op.lp, op.lp2, op.proc);
        im.model.CopyLogicalPage(op.lp, op.lp2);
      }
      break;
    }
    case ConformOp::Kind::kPageRound: {
      const std::uint8_t* data = im.manager.PrepareForPageout(op.lp, op.proc);
      std::vector<std::uint8_t> saved(data, data + cc.page_size);
      im.manager.ResetPage(op.lp, op.proc);
      im.manager.LoadPageContent(op.lp, saved.data(), op.proc);
      im.model.PageRoundTrip(op.lp);
      break;
    }
    case ConformOp::Kind::kMigrate: {
      if (op.proc == op.proc2) {
        break;
      }
      std::uint32_t got = im.manager.MigrateResidentPages(op.proc, op.proc2);
      std::uint32_t want = im.model.MigrateResidentPages(op.proc, op.proc2);
      if (got != want) {
        std::ostringstream out;
        out << "moved-page count of " << FormatOp(op) << ": manager=" << got
            << " model=" << want;
        return out.str();
      }
      break;
    }
    case ConformOp::Kind::kPragma:
      im.manager.SetPragma(op.lp, op.pragma);
      im.model.SetPragma(op.lp, op.pragma);
      break;
    case ConformOp::Kind::kKillNode: {
      // Mirror RecoveryManager's applicability: the target must be alive, and the
      // acting processor must be a *different* live one (which also guarantees a
      // survivor). Inapplicable kills are skipped so shrunk streams stay meaningful.
      bool node_dead = ((im.dead_nodes >> static_cast<std::uint32_t>(op.proc)) & 1u) != 0;
      bool actor_dead = ((im.dead_nodes >> static_cast<std::uint32_t>(op.proc2)) & 1u) != 0;
      if (!cc.durability || node_dead || actor_dead || op.proc == op.proc2) {
        break;
      }
      im.dead_nodes |= 1u << static_cast<std::uint32_t>(op.proc);
      // The RecoveryManager's exact sequence: fence the allocator, reconstruct and
      // release, then poison the dead slab so stale reads surface as loud garbage.
      im.phys.SetLocalLimit(op.proc, 0);
      std::uint32_t got = im.manager.KillNode(op.proc, op.proc2);
      im.phys.PoisonLocal(op.proc, 0xDE);
      std::uint32_t want = im.model.KillNode(op.proc);
      if (got != want) {
        std::ostringstream out;
        out << "released-page count of " << FormatOp(op) << ": manager=" << got
            << " model=" << want;
        return out.str();
      }
      break;
    }
    case ConformOp::Kind::kCorruptNode: {
      bool node_dead = ((im.dead_nodes >> static_cast<std::uint32_t>(op.proc)) & 1u) != 0;
      if (!cc.durability || node_dead) {
        break;  // RecoveryManager also drops corrupt-page events on dead nodes
      }
      std::uint32_t got = im.manager.CorruptAndScrubNode(op.proc, op.seed, op.value, op.proc2);
      std::uint32_t want = im.model.CorruptAndScrub(op.proc, op.seed, op.value);
      if (got != want) {
        std::ostringstream out;
        out << "detected-corruption count of " << FormatOp(op) << ": manager=" << got
            << " model=" << want;
        return out.str();
      }
      break;
    }
  }
  return im.CompareAll();
}

std::vector<ConformOp> GenerateOps(const ConformConfig& config, std::uint64_t seed,
                                   std::size_t count) {
  SplitMix64 rng(seed);
  std::vector<ConformOp> ops;
  ops.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    ConformOp op;
    std::uint32_t r = rng.Below(100);
    // Mostly faults (the protocol's bread and butter), with a steady trickle of
    // lifecycle events so every state meets every operation.
    if (r < 78) {
      op.kind = ConformOp::Kind::kAccess;
      op.lp = rng.Below(config.pages);
      op.proc = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
      op.access = rng.Below(100) < 40 ? AccessKind::kStore : AccessKind::kFetch;
      op.writable_region = op.access == AccessKind::kStore || rng.Below(4) != 0;
      op.offset = rng.Below(config.WordsPerPage()) * kWordBytes;
      op.value = static_cast<std::uint32_t>(rng.Next());
    } else if (r < 84) {
      op.kind = ConformOp::Kind::kFree;
      op.lp = rng.Below(config.pages);
      op.proc = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
    } else if (r < 87) {
      op.kind = ConformOp::Kind::kCopy;
      op.lp = rng.Below(config.pages);
      op.lp2 = rng.Below(config.pages);
      op.proc = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
    } else if (r < 91) {
      op.kind = ConformOp::Kind::kPageRound;
      op.lp = rng.Below(config.pages);
      op.proc = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
    } else if (r < 94) {
      op.kind = ConformOp::Kind::kMigrate;
      op.proc = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
      op.proc2 = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
    } else if (!config.durability || r < 96) {
      // Without durability this branch is everything from 94 up, so streams for
      // existing (non-durability) configs stay byte-identical seed for seed.
      op.kind = ConformOp::Kind::kPragma;
      op.lp = rng.Below(config.pages);
      std::uint32_t p = rng.Below(3);
      op.pragma = p == 0 ? PlacementPragma::kDefault
                         : (p == 1 ? PlacementPragma::kCacheable : PlacementPragma::kNoncacheable);
    } else if (r < 99) {
      op.kind = ConformOp::Kind::kCorruptNode;
      op.proc = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
      op.proc2 = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
      op.value = 100 + rng.Below(901);  // permille in [100, 1000]
      op.seed = rng.Next();
    } else {
      op.kind = ConformOp::Kind::kKillNode;
      op.proc = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
      op.proc2 = static_cast<ProcId>(rng.Below(static_cast<std::uint32_t>(config.num_processors)));
    }
    ops.push_back(op);
  }
  return ops;
}

std::optional<Divergence> RunOps(const ConformConfig& config,
                                 const std::vector<ConformOp>& ops,
                                 MachineStats* final_stats) {
  Differ differ(config);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (std::optional<std::string> what = differ.Step(ops[i])) {
      return Divergence{i, *what};
    }
  }
  if (final_stats != nullptr) {
    *final_stats = differ.stats();
  }
  return std::nullopt;
}

std::vector<ConformOp> ShrinkOps(const ConformConfig& config, std::vector<ConformOp> ops) {
  std::optional<Divergence> d = RunOps(config, ops);
  ACE_CHECK_MSG(d.has_value(), "ShrinkOps requires a diverging stream");
  ops.resize(d->op_index + 1);

  // Greedy ddmin: repeatedly try to delete chunks, halving the chunk size; accept any
  // deletion after which *some* divergence remains (truncating to its index).
  bool progress = true;
  while (progress) {
    progress = false;
    for (std::size_t chunk = ops.size() / 2; chunk >= 1; chunk /= 2) {
      for (std::size_t start = 0; start + chunk <= ops.size();) {
        std::vector<ConformOp> candidate;
        candidate.reserve(ops.size() - chunk);
        candidate.insert(candidate.end(), ops.begin(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start));
        candidate.insert(candidate.end(),
                         ops.begin() + static_cast<std::ptrdiff_t>(start + chunk), ops.end());
        std::optional<Divergence> cd = RunOps(config, candidate);
        if (cd.has_value()) {
          candidate.resize(cd->op_index + 1);
          ops = std::move(candidate);
          progress = true;
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) {
        break;
      }
    }
  }
  return ops;
}

std::string FormatOp(const ConformOp& op) {
  std::ostringstream out;
  switch (op.kind) {
    case ConformOp::Kind::kAccess:
      out << (op.access == AccessKind::kFetch ? "fetch" : "store") << " lp=" << op.lp
          << " proc=" << op.proc << " off=" << op.offset;
      if (op.access == AccessKind::kStore) {
        out << " val=0x" << std::hex << op.value << std::dec;
      }
      out << " max_prot=" << (op.access == AccessKind::kStore || op.writable_region ? "rw" : "r");
      break;
    case ConformOp::Kind::kFree:
      out << "free lp=" << op.lp << " proc=" << op.proc;
      break;
    case ConformOp::Kind::kCopy:
      out << "copy src=" << op.lp << " dst=" << op.lp2 << " proc=" << op.proc;
      break;
    case ConformOp::Kind::kPageRound:
      out << "pageout+pagein lp=" << op.lp << " proc=" << op.proc;
      break;
    case ConformOp::Kind::kMigrate:
      out << "migrate from=" << op.proc << " to=" << op.proc2;
      break;
    case ConformOp::Kind::kPragma:
      out << "pragma lp=" << op.lp << " " << PragmaName(op.pragma);
      break;
    case ConformOp::Kind::kKillNode:
      out << "kill-node node=" << op.proc << " actor=" << op.proc2;
      break;
    case ConformOp::Kind::kCorruptNode:
      out << "corrupt-node node=" << op.proc << " actor=" << op.proc2
          << " permille=" << op.value << " seed=0x" << std::hex << op.seed << std::dec;
      break;
  }
  return out.str();
}

std::string PolicyKindName(RefModel::PolicyKind kind) {
  switch (kind) {
    case RefModel::PolicyKind::kMoveLimit:
      return "move-limit";
    case RefModel::PolicyKind::kRemoteHome:
      return "remote-home";
    case RefModel::PolicyKind::kAllGlobal:
      return "all-global";
    case RefModel::PolicyKind::kAllLocal:
      return "all-local";
  }
  return "?";
}

}  // namespace ace
