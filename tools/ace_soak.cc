// ace_soak — randomized fault-injection soak harness.
//
// Each seed derives one run: an application from the suite, a machine shape
// (threads, policy, threshold, scheduler, pager on/off) and a generated fault plan
// of 1–3 schedules over the graceful-degradation fault sites (src/inject). The run
// executes in a forked child so that an ACE_CHECK abort — a degradation path that
// crashed instead of degrading — is caught as a violation instead of killing the
// harness. After the application finishes, the child checks:
//   * the application's own result verification (every app computes and checks a
//     real result through simulated memory),
//   * the full protocol invariant sweep (VerifyAllInvariants; aborts on violation),
//   * counter identities that must survive any injection: page_syncs <= page_copies
//     + zero_fills, pageins <= pageouts, measured alpha in [0, 1],
//   * on clean runs (every 8th seed carries an empty plan), that every degradation
//     counter stayed zero — injection must be zero-cost when unarmed,
//   * on chaos-free runs (chaos events ride along only on every 4th seed), that the
//     chaos counters stayed zero and no controller was built,
//   * on runs without a permanent failure (kill-node / corrupt-page plans ride the
//     seed % 8 == 5 family, at most one kill each so survivors always remain), that
//     the durability counters stayed zero and no replica/recovery manager was built;
//     on permanent-failure runs, the journal and detection counter identities,
//   * on pool-exhaustion runs (the seed % 16 == 3 family adds pool-exhausted@always),
//     that the run ends in the named out-of-memory outcome with the protocol
//     invariants intact; completing, an abort or any other ending is a violation.
//
// A failing run's plan is shrunk to a minimal subset of schedules that still fails
// and printed as a replayable `ace_soak --replay ...` command line (also written to
// --repro-out for CI artifact upload). --replay executes in-process, so an abort
// produces a debuggable stack instead of a harness report.
//
// Generated plans are constrained to stay *survivable*: the sites with graceful
// fallbacks (local-exhausted, frame-alloc, copy-fail) may fire at any rate, while
// pool-exhausted and victim-contention are kept transient — a plan that permanently
// empties the page pool makes the application legitimately run out of memory, which
// is not a robustness bug. That ending is drawn on purpose on one seed family only,
// where out-of-memory is the one outcome that passes. The protocol-mutation sites
// (skip-sync, skip-move-count) are excluded: they corrupt results by design and
// belong to ace_conform.
//
// A soak is time-bounded random sampling: every invocation runs its seed range from
// the start (each night draws a fresh range), so there is nothing to resume.
// --run-timeout arms an alarm() in each forked child so a hung run dies with SIGALRM
// and is reported as a violation instead of wedging the harness. --failures-json
// writes quarantined seeds in the ace-failures-v1 schema with replayable command
// lines.

#include <cerrno>
#include <csignal>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/common/run_killed.h"
#include "src/inject/fault_plan.h"
#include "src/machine/machine.h"
#include "src/metrics/experiment.h"
#include "src/common/splitmix64.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/obs/live_stream.h"
#include "src/obs/sampler.h"
#include "src/threads/runtime.h"

namespace {

// Everything needed to rebuild one soak run exactly.
struct RunSpec {
  std::string app = "IMatMult";
  int threads = 4;
  double scale = 0.25;
  int variant = 0;
  std::string policy = "move-limit";
  int threshold = 4;
  bool migrating = false;
  bool pager = false;
  bool tlb = false;
  std::uint32_t global_pages = 4096;
  // Open-loop request budget for Serving draws (0 for the batch apps): keeps each
  // soak run a short bounded burst well inside --run-timeout.
  std::uint64_t serving_requests = 0;
  ace::FaultPlan plan;
  std::uint64_t fault_seed = 0;
};

ace::FaultSchedule GenSchedule(ace::SplitMix64& rng, bool pager) {
  using ace::FaultSite;
  static const FaultSite kGraceful[] = {FaultSite::kLocalExhausted,
                                        FaultSite::kFrameAllocTransient,
                                        FaultSite::kReplicationCopyFail};
  ace::FaultSchedule s;
  // Victim contention only has a consumer when the pageout daemon runs, and pool
  // exhaustion is only survivable there (the evict-and-retry loop needs a pager; on a
  // pager-less machine an empty pool is architecturally fatal to the faulting app).
  std::uint32_t pick = rng.Below(pager ? 5 : 3);
  bool transient_only = false;
  if (pick < 3) {
    s.site = kGraceful[pick];
  } else if (pick == 3) {
    s.site = FaultSite::kGlobalPoolExhausted;
    transient_only = true;
  } else {
    s.site = FaultSite::kPageoutVictimContention;
    transient_only = true;
  }
  // Sites without a graceful fallback of their own must fire transiently — a retry
  // after the injected miss has to be able to succeed (never kAlways, every-K >= 2,
  // low probabilities) or the app legitimately runs out of memory.
  switch (rng.Below(transient_only ? 3u : 4u)) {
    case 0:
      s.kind = ace::FaultSchedule::Kind::kNth;
      s.n = 1 + rng.Below(50);
      break;
    case 1:
      s.kind = ace::FaultSchedule::Kind::kEveryK;
      s.n = transient_only ? 2 + rng.Below(7) : 1 + rng.Below(8);
      break;
    case 2: {
      s.kind = ace::FaultSchedule::Kind::kProbability;
      double cap = s.site == ace::FaultSite::kGlobalPoolExhausted
                       ? 0.05
                       : (s.site == ace::FaultSite::kPageoutVictimContention ? 0.2 : 0.3);
      s.probability = cap * static_cast<double>(1 + rng.Below(100)) / 100.0;
      s.seed = rng.Next() & 0xffff;
      break;
    }
    default:
      s.kind = ace::FaultSchedule::Kind::kAlways;
      break;
  }
  return s;
}

// Machine-scoped chaos events are kept survivable by construction: windows start
// after warmup and always end (5–30 ms wide, inside every app's horizon at soak
// scale), drains never exceed half the node's pool unless the full hot-remove
// (permille 0) is drawn, and slow links dilate at most 4x. Node ids are drawn
// below the thread count, so every event targets a node that actually exists.
ace::ChaosEvent GenChaosEvent(ace::SplitMix64& rng, int threads) {
  ace::ChaosEvent e;
  e.node = rng.Below(static_cast<std::uint32_t>(threads));
  e.t_begin = 5'000'000 + static_cast<ace::TimeNs>(rng.Below(45)) * 1'000'000;
  e.t_end = e.t_begin + 5'000'000 + static_cast<ace::TimeNs>(rng.Below(25)) * 1'000'000;
  switch (rng.Below(3)) {
    case 0: {
      e.kind = ace::ChaosKind::kDrainMem;
      static const std::uint32_t kResidual[] = {0, 250, 500};
      e.permille = kResidual[rng.Below(3)];
      break;
    }
    case 1:
      e.kind = ace::ChaosKind::kStallProc;
      break;
    default:
      e.kind = ace::ChaosKind::kSlowLink;
      e.permille = 2000 + rng.Below(5) * 500;  // 2x .. 4x remote-cost dilation
      break;
  }
  return e;
}

// Permanent failures (kill-node / corrupt-page), survivable by construction: at
// most one kill per plan — with threads >= 2 there is always a surviving node to
// reconstruct into and re-home fibers onto — landing early (5–30 ms), while pages
// are still locally owned and there is actually resident state to lose. Corruption
// bursts scrub a whole permille band of a node's resident frames; every detection
// must end in a repair or an accounted loss, never an abort.
ace::ChaosEvent GenDurableChaosEvent(ace::SplitMix64& rng, int threads, bool allow_kill) {
  ace::ChaosEvent e;
  e.node = rng.Below(static_cast<std::uint32_t>(threads));
  e.t_begin = 5'000'000 + static_cast<ace::TimeNs>(rng.Below(25)) * 1'000'000;
  if (allow_kill && rng.Below(2) == 0) {
    e.kind = ace::ChaosKind::kKillNode;
    return e;  // one timestamp; no window end
  }
  e.kind = ace::ChaosKind::kCorruptPage;
  e.t_end = e.t_begin + 1'000'000 + static_cast<ace::TimeNs>(rng.Below(5)) * 1'000'000;
  static const std::uint32_t kPermille[] = {250, 500, 1000};
  e.permille = kPermille[rng.Below(3)];
  return e;
}

RunSpec DeriveRun(std::uint64_t seed) {
  ace::SplitMix64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  RunSpec spec;
  spec.fault_seed = seed;
  static const char* kApps[] = {"ParMult", "Gfetch",  "IMatMult", "Primes1", "Primes2",
                                "Primes3", "FFT",     "PlyTrace", "Serving"};
  spec.app = kApps[rng.Below(9)];
  spec.threads = 2 + static_cast<int>(rng.Below(5));
  spec.scale = 0.25;
  if (spec.app == "Primes2" || spec.app == "PlyTrace") {
    spec.variant = static_cast<int>(rng.Below(2));
  }
  if (spec.app == "Serving") {
    spec.serving_requests = 512;
  }
  static const char* kPolicies[] = {"move-limit", "remote-home", "all-global", "all-local",
                                    "reconsider"};
  spec.policy = kPolicies[rng.Below(5)];
  spec.threshold = 1 + static_cast<int>(rng.Below(6));
  spec.migrating = rng.Below(4) == 0;
  spec.pager = rng.Below(2) == 0;
  // The TLB flip: half of all seeds run through the software-TLB fast path with
  // the poison cross-check forced on, so a degrade path that forgets a shootdown
  // aborts ("poisoned TLB entry") and is caught by the fork layer as a violation.
  spec.tlb = rng.Below(2) == 0;
  // With the pager on, a tight pool forces real pageout traffic under injection.
  spec.global_pages = spec.pager ? 1024 : 4096;
  if (seed % 8 != 0) {  // every 8th run stays clean to assert zero-cost-when-unarmed
    std::uint32_t count = 1 + rng.Below(3);
    for (std::uint32_t i = 0; i < count; ++i) {
      spec.plan.schedules.push_back(GenSchedule(rng, spec.pager));
    }
  }
  // Every 4th seed also rides a machine-scoped chaos plan (disjoint from the clean
  // seeds above: seed % 8 == 0 implies seed % 4 == 0). All other seeds stay
  // chaos-free so RunInProcess can assert the chaos counters' zero-cost invariant.
  if (seed % 4 == 2) {
    std::uint32_t count = 1 + rng.Below(2);
    for (std::uint32_t i = 0; i < count; ++i) {
      spec.plan.chaos.push_back(GenChaosEvent(rng, spec.threads));
    }
  }
  // Every 8th seed (% 8 == 5: disjoint from both the clean family at % 8 == 0 and
  // the transient-chaos family at % 4 == 2) rides a permanent-failure plan, so the
  // soak continuously exercises journal restore, mirror reconstruction, fiber
  // re-homing and the checksum scrub under every machine shape. All other seeds
  // stay durable-free so RunInProcess can assert the durability counters' and the
  // replica/recovery managers' zero-cost invariant.
  if (seed % 8 == 5) {
    std::uint32_t count = 1 + rng.Below(2);
    bool allow_kill = true;
    for (std::uint32_t i = 0; i < count; ++i) {
      ace::ChaosEvent e = GenDurableChaosEvent(rng, spec.threads, allow_kill);
      if (e.kind == ace::ChaosKind::kKillNode) {
        allow_kill = false;  // at most one kill: survivors must always remain
      }
      spec.plan.chaos.push_back(e);
    }
  }
  // Every 16th seed (% 16 == 3: disjoint from the clean, transient-chaos and durable
  // families) also empties the page pool for good, on top of its drawn schedules. No
  // pager can help, so RunInProcess requires the named out-of-memory ending. Nothing
  // is drawn here, so every other seed's run is unchanged.
  if (seed % 16 == 3) {
    ace::FaultSchedule exhausted;
    exhausted.site = ace::FaultSite::kGlobalPoolExhausted;
    exhausted.kind = ace::FaultSchedule::Kind::kAlways;
    spec.plan.schedules.push_back(exhausted);
  }
  return spec;
}

// Whether `plan` empties the page pool for good, so the run can only end out of
// memory. Read from the plan, not the seed, so a replayed or shrunk plan is judged
// by what it arms.
bool ExhaustsPoolForGood(const ace::FaultPlan& plan) {
  for (const ace::FaultSchedule& s : plan.schedules) {
    if (s.site == ace::FaultSite::kGlobalPoolExhausted &&
        s.kind == ace::FaultSchedule::Kind::kAlways) {
      return true;
    }
  }
  return false;
}

std::string ReplayCommand(const RunSpec& spec) {
  char requests[48] = "";
  if (spec.serving_requests != 0) {
    std::snprintf(requests, sizeof requests, " --requests %llu",
                  static_cast<unsigned long long>(spec.serving_requests));
  }
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "ace_soak --replay --app %s --threads %d --scale %g --variant %d "
                "--policy %s --threshold %d%s%s%s%s --fault-seed %llu --plan '%s'",
                spec.app.c_str(), spec.threads, spec.scale, spec.variant, spec.policy.c_str(),
                spec.threshold, spec.migrating ? " --migrating" : "",
                spec.pager ? " --pager" : "", spec.tlb ? " --tlb" : "", requests,
                static_cast<unsigned long long>(spec.fault_seed),
                spec.plan.Format().c_str());
  return buf;
}

std::string DescribeRun(const RunSpec& spec) {
  char buf[384];
  std::snprintf(buf, sizeof buf, "%-8s threads=%d policy=%-11s%s%s%s plan=%s", spec.app.c_str(),
                spec.threads, spec.policy.c_str(), spec.migrating ? " migrating" : "",
                spec.pager ? " pager" : "", spec.tlb ? " tlb" : "",
                spec.plan.empty() ? "-" : spec.plan.Format().c_str());
  return buf;
}

// Live telemetry: when --live-out is set, every run — replay, soak seed, and each
// shrink re-run of a failing seed — appends one ace-live-v1 segment tagged
// "seed=N" to the shared feed. Runs execute one at a time (RunForked is serial),
// so append-mode opens never interleave; a child that aborts mid-run leaves an
// open segment, the crash shape ace_top --validate tolerates by design.
std::string g_live_out;
long long g_sample_interval_ns = 10'000'000;

// Build the machine, run the application, run every check. Empty string = run OK;
// otherwise the first violation. ACE_CHECK failures abort (caught by the fork layer).
std::string RunInProcess(const RunSpec& spec) {
  std::unique_ptr<ace::App> app = ace::CreateAppByName(spec.app);
  if (app == nullptr) {
    return "unknown application '" + spec.app + "'";
  }
  std::optional<ace::PolicySpec> policy = ace::PolicySpec::FromName(spec.policy, spec.threshold);
  if (!policy) {
    std::fprintf(stderr, "unknown policy '%s'\n", spec.policy.c_str());
    std::exit(2);
  }
  ace::ExperimentOptions options;
  options.machine.config.num_processors = spec.threads;
  options.machine.config.global_pages = spec.global_pages;
  options.machine.policy = *policy;
  options.machine.enable_pager = spec.pager;
  options.machine.enable_tlb = spec.tlb;
  if (spec.tlb) {
    options.machine.tlb_verify = true;  // poison cross-check on: stale entries abort
  }
  options.machine.fault_plan = spec.plan;
  options.machine.fault_seed = spec.fault_seed;
  options.app.num_threads = spec.threads;
  options.app.scale = spec.scale;
  options.app.variant = spec.variant;
  options.app.runtime.scheduler =
      spec.migrating ? ace::SchedulerKind::kMigrating : ace::SchedulerKind::kAffinity;
  // Serving draws: a bounded request budget and a per-seed client population, both
  // reproduced exactly by the replay command line.
  options.app.serving.requests = spec.serving_requests;
  options.app.serving.seed = spec.fault_seed;
  options.live_tag = "seed=" + std::to_string(spec.fault_seed);

  ace::LiveStreamWriter live_writer;
  std::unique_ptr<ace::LiveSampler> sampler;
  if (!g_live_out.empty()) {
    if (!live_writer.Open(g_live_out, /*append=*/true)) {
      return "cannot open live feed '" + g_live_out + "'";
    }
    ace::LiveSampler::Options so;
    so.interval_ns = g_sample_interval_ns;
    so.tool = "ace_soak";
    sampler = std::make_unique<ace::LiveSampler>(so, &live_writer);
    options.app.runtime.sampler = sampler.get();
  }

  ace::Machine machine(options.machine);
  const bool must_run_out = ExhaustsPoolForGood(spec.plan);
  ace::PlacementRun run;
  try {
    run = ace::RunOnMachine(*app, machine, options);
  } catch (const ace::RunKilledError& killed) {
    if (must_run_out && killed.reason() == "out-of-memory") {
      machine.numa_manager().VerifyAllInvariants();
      return "";
    }
    return std::string("run ended early: ") + killed.what();
  }
  if (must_run_out) {
    return "a page pool exhausted for good must end the run out-of-memory, but it completed";
  }
  const ace::AppResult& result = run.app;
  if (!result.ok) {
    return "application verification failed: " + result.detail;
  }
  machine.numa_manager().VerifyAllInvariants();

  const ace::MachineStats& s = run.stats;
  auto fail = [](const char* what, std::uint64_t a, std::uint64_t b) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "counter identity violated: %s (%llu vs %llu)", what,
                  static_cast<unsigned long long>(a), static_cast<unsigned long long>(b));
    return std::string(buf);
  };
  // Every synced copy was created by a replication or a zero-fill.
  if (s.page_syncs > s.page_copies + s.zero_fills) {
    return fail("page_syncs <= page_copies + zero_fills", s.page_syncs,
                s.page_copies + s.zero_fills);
  }
  if (machine.pager() != nullptr &&
      machine.pager()->stats().pageins > machine.pager()->stats().pageouts) {
    return fail("pageins <= pageouts", machine.pager()->stats().pageins,
                machine.pager()->stats().pageouts);
  }
  double alpha = s.MeasuredAlpha();
  if (!(alpha >= 0.0 && alpha <= 1.0)) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "measured alpha out of range: %f", alpha);
    return buf;
  }
  const ace::TlbStats& t = run.tlb;
  if (spec.tlb) {
    // Every fill follows a miss, with or without injected faults in the resolve path.
    if (t.fills > t.misses) {
      return fail("tlb fills <= tlb misses", t.fills, t.misses);
    }
  } else if (t.hits + t.misses + t.fills != 0) {
    return fail("disabled TLB must stay cold", t.hits + t.misses + t.fills, 0);
  }
  if (spec.plan.empty()) {
    std::uint64_t degraded = ace::CounterGroupTotal(s, ace::kDegradedCounters);
    if (degraded != 0 || machine.fault_injector() != nullptr) {
      return fail("clean run must not degrade (disarmed injection is zero-cost)", degraded, 0);
    }
  }
  if (spec.plan.chaos.empty()) {
    // Chaos-free runs (including every plan-only seed) must never build a controller
    // or touch the chaos counters — chaos, like injection, is zero-cost when unarmed.
    std::uint64_t chaos = ace::CounterGroupTotal(s, ace::kChaosCounters);
    if (chaos != 0 || machine.chaos() != nullptr) {
      return fail("chaos-free run must keep chaos counters zero", chaos, 0);
    }
  }
  std::uint64_t durability = ace::CounterGroupTotal(s, ace::kDurabilityCounters);
  if (!spec.plan.has_durable_chaos()) {
    // Plans without a permanent failure — transient chaos included — must never arm
    // the durability subsystem: no replica or recovery manager, every durability
    // counter exactly zero. Durability, like chaos, is zero-cost when unarmed.
    if (durability != 0 || machine.replica_manager() != nullptr ||
        machine.recovery() != nullptr) {
      return fail("durable-chaos-free run must keep durability counters zero", durability, 0);
    }
  } else {
    // Every journal opens with a full-frame mirror write before any word-sized
    // appends, so the byte count can never undercut the open count.
    if (s.journal_bytes < s.replicated_pages * machine.page_size()) {
      return fail("journal_bytes >= replicated_pages * page_size", s.journal_bytes,
                  s.replicated_pages * machine.page_size());
    }
    // Every detected corruption ends in a repair or an accounted loss; kills add
    // recoveries and losses of their own, so detection can never exceed the sum.
    if (s.checksum_failures > s.recovered_pages + s.lost_pages) {
      return fail("checksum_failures <= recovered_pages + lost_pages", s.checksum_failures,
                  s.recovered_pages + s.lost_pages);
    }
  }
  return "";
}

// Per-child wall-clock budget (0 = unlimited), armed via alarm() inside the fork so
// a hung run dies with SIGALRM instead of wedging the whole soak.
unsigned g_run_timeout_sec = 0;

// Run the spec in a forked child: an ACE_CHECK abort (SIGABRT) or any other crash
// becomes a reported violation instead of taking the harness down.
std::string RunForked(const RunSpec& spec) {
  ace::ChildOutcome child = ace::RunInChild(
      [&](std::string* violation) {
        *violation = RunInProcess(spec);
        return violation->empty() ? 0 : 1;
      },
      g_run_timeout_sec);
  if (!child.started) {
    std::perror("fork");
    std::exit(2);
  }
  if (child.signal != 0) {
    char sig[128];
    if (child.signal == SIGALRM && g_run_timeout_sec > 0) {
      std::snprintf(sig, sizeof sig, "child died with signal %d (hung run killed after %us by --run-timeout)",
                    child.signal, g_run_timeout_sec);
    } else {
      std::snprintf(sig, sizeof sig, "child died with signal %d (%s)", child.signal,
                    child.signal == SIGABRT ? "ACE_CHECK abort" : strsignal(child.signal));
    }
    return sig;
  }
  if (child.exit_code == 0) {
    return "";
  }
  return child.payload.empty() ? "child exited with failure but reported nothing"
                               : child.payload;
}

// Greedy plan-subset minimization: drop any schedule or chaos event whose removal
// keeps the violation alive, to a locally minimal (often single-item) reproducer.
RunSpec ShrinkPlan(RunSpec spec) {
  bool progress = true;
  while (progress && spec.plan.schedules.size() + spec.plan.chaos.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < spec.plan.schedules.size(); ++i) {
      RunSpec candidate = spec;
      candidate.plan.schedules.erase(candidate.plan.schedules.begin() +
                                     static_cast<std::ptrdiff_t>(i));
      if (!RunForked(candidate).empty()) {
        spec = std::move(candidate);
        progress = true;
        break;
      }
    }
    if (progress) {
      continue;
    }
    for (std::size_t i = 0; i < spec.plan.chaos.size(); ++i) {
      RunSpec candidate = spec;
      candidate.plan.chaos.erase(candidate.plan.chaos.begin() +
                                 static_cast<std::ptrdiff_t>(i));
      if (!RunForked(candidate).empty()) {
        spec = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return spec;
}

// Classify a RunForked violation string for the quarantine record.
std::string FailureKind(const std::string& what) {
  int sig = 0;
  if (std::sscanf(what.c_str(), "child died with signal %d", &sig) == 1) {
    return "signal:" + std::to_string(sig);
  }
  return "soak-violation";
}

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--start-seed N] [--time-budget SECONDS[s]]\n"
               "          [--repro-out FILE] [--run-timeout SECONDS]\n"
               "          [--failures-json FILE] [--quiet]\n"
               "          [--live-out FILE] [--sample-interval NS]\n"
               "   or: %s --replay --app NAME --threads N --scale X --variant N\n"
               "          --policy P --threshold N [--migrating] [--pager] [--tlb]\n"
               "          --fault-seed N --plan STR\n",
               argv0, argv0);
  std::exit(2);
}

double ParseSeconds(const char* text) {
  char* end = nullptr;
  double v = std::strtod(text, &end);
  if (end == text || v < 0) {
    std::fprintf(stderr, "bad --time-budget '%s'\n", text);
    std::exit(2);
  }
  if (*end == 'm') {
    v *= 60;
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 64;
  std::uint64_t start_seed = 1;
  double time_budget_sec = 0;  // 0 = unlimited
  std::string repro_out;
  std::string failures_json;
  bool quiet = false;
  bool replay = false;
  RunSpec replay_spec;
  std::string replay_plan;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string inline_value;
    bool has_inline = false;
    if (arg.rfind("--", 0) == 0) {
      auto eq = arg.find('=');
      if (eq != std::string::npos) {
        inline_value = arg.substr(eq + 1);
        arg.resize(eq);
        has_inline = true;
      }
    }
    auto next = [&]() -> const char* {
      if (has_inline) {
        return inline_value.c_str();
      }
      if (i + 1 >= argc) {
        Usage(argv[0]);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--start-seed") {
      start_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--time-budget") {
      time_budget_sec = ParseSeconds(next());
    } else if (arg == "--repro-out") {
      repro_out = next();
    } else if (arg == "--run-timeout") {
      g_run_timeout_sec = static_cast<unsigned>(std::strtoul(next(), nullptr, 0));
    } else if (arg == "--failures-json") {
      failures_json = next();
    } else if (arg == "--live-out") {
      g_live_out = next();
    } else if (arg == "--sample-interval") {
      g_sample_interval_ns = std::atoll(next());
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--replay") {
      replay = true;
    } else if (arg == "--app") {
      replay_spec.app = next();
    } else if (arg == "--threads") {
      replay_spec.threads = std::atoi(next());
    } else if (arg == "--scale") {
      replay_spec.scale = std::atof(next());
    } else if (arg == "--variant") {
      replay_spec.variant = std::atoi(next());
    } else if (arg == "--policy") {
      replay_spec.policy = next();
    } else if (arg == "--threshold") {
      replay_spec.threshold = std::atoi(next());
    } else if (arg == "--migrating") {
      replay_spec.migrating = true;
    } else if (arg == "--pager") {
      replay_spec.pager = true;
    } else if (arg == "--tlb") {
      replay_spec.tlb = true;
    } else if (arg == "--requests") {
      replay_spec.serving_requests = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--fault-seed") {
      replay_spec.fault_seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--plan") {
      replay_plan = next();
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage(argv[0]);
    }
  }

  if (replay) {
    if (!replay_plan.empty()) {
      std::string error;
      if (!ace::FaultPlan::Parse(replay_plan, &replay_spec.plan, &error)) {
        std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
        return 2;
      }
    }
    replay_spec.global_pages = replay_spec.pager ? 1024 : 4096;
    std::printf("replay: %s\n", DescribeRun(replay_spec).c_str());
    std::string what = RunInProcess(replay_spec);  // in-process: aborts are debuggable
    if (!what.empty()) {
      std::printf("VIOLATION: %s\n", what.c_str());
      return 1;
    }
    std::printf("ok\n");
    return 0;
  }

  if (!g_live_out.empty()) {
    if (g_sample_interval_ns <= 0) {
      std::fprintf(stderr, "--sample-interval must be > 0\n");
      return 2;
    }
    // Children open the feed in append mode, so start it fresh here.
    std::FILE* f = std::fopen(g_live_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open live feed '%s': %s\n", g_live_out.c_str(),
                   std::strerror(errno));
      return 2;
    }
    std::fclose(f);
  }

  auto t0 = std::chrono::steady_clock::now();
  auto elapsed = [&]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  std::uint64_t ran = 0;
  std::vector<ace::CellFailure> quarantine;
  for (std::uint64_t n = 0; n < seeds; ++n) {
    if (time_budget_sec > 0 && elapsed() > time_budget_sec) {
      std::printf("time budget (%.0fs) reached after %llu of %llu seeds\n", time_budget_sec,
                  static_cast<unsigned long long>(ran), static_cast<unsigned long long>(seeds));
      break;
    }
    std::uint64_t seed = start_seed + n;
    RunSpec spec = DeriveRun(seed);
    std::string what = RunForked(spec);
    ++ran;
    if (what.empty()) {
      if (!quiet) {
        std::printf("seed %-4llu ok    %s\n", static_cast<unsigned long long>(seed),
                    DescribeRun(spec).c_str());
      }
      continue;
    }
    std::printf("seed %-4llu FAIL  %s\n", static_cast<unsigned long long>(seed),
                DescribeRun(spec).c_str());
    std::printf("  violation: %s\n", what.c_str());
    RunSpec shrunk = ShrinkPlan(spec);
    std::string repro = ReplayCommand(shrunk);
    std::printf("  shrunk to %zu schedule(s) + %zu chaos event(s): %s\n",
                shrunk.plan.schedules.size(), shrunk.plan.chaos.size(),
                shrunk.plan.Format().c_str());
    std::printf("  replay: %s\n", repro.c_str());
    if (!repro_out.empty()) {
      std::ofstream out(repro_out, quarantine.empty() ? std::ios::trunc : std::ios::app);
      out << repro << "\n";
    }
    ace::CellFailure f;
    f.key = "seed=" + std::to_string(seed);
    f.kind = FailureKind(what);
    f.detail = what;
    f.replay = std::move(repro);
    quarantine.push_back(std::move(f));
  }
  if (!failures_json.empty()) {
    std::string error;
    if (!ace::WriteFailuresJson("soak", quarantine, failures_json, &error)) {
      std::fprintf(stderr, "failed to write %s: %s\n", failures_json.c_str(), error.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu quarantined)\n", failures_json.c_str(), quarantine.size());
  }

  std::printf("soak: %llu run(s), %zu violation(s)\n", static_cast<unsigned long long>(ran),
              quarantine.size());
  // Host time goes to stderr, so the stdout of two soaks can be compared with cmp.
  std::fprintf(stderr, "soak: %.1fs wall\n", elapsed());
  if (!g_live_out.empty()) {
    std::printf("live feed: %s (one segment per run; validate with ace_top --validate)\n",
                g_live_out.c_str());
  }
  return quarantine.empty() ? 0 : 1;
}
