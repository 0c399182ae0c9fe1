// layerbench: host time of the simulator, end to end and layer by layer.
//
//   layerbench --workload imatmult|gfetch|serving --seconds S --trace 0|1
//              [--seed N] [--serving-seed N] [--perturb-seed N] [--probes 1]
//
// --trace 0 runs timed passes back to back for S seconds (at least two) and reports
// the end-to-end metrics: host ns per simulated reference and per request on the
// fastest pass, the median set-up time, peak memory, and the simulated times and
// latencies, which must repeat exactly.
//
// --trace 1 is the separate traced run: it probes each layer's cost per call, runs
// unobserved passes for the first half of S and reference-observed passes for the
// rest, probing again after each half, and prints the host-side eq. 2 attribution
// (count x cost per layer against the fastest unobserved pass) before reporting the
// per-layer metrics. --probes 1 runs only the three probe rounds and prints their
// costs, without passes or a result line.
//
// Every pass is compared with the first one of its kind; a pass whose app fails its
// self-verification or whose simulated outcome differs counts as failed. On serving
// the operations are requests, and every offered request not served counts as failed
// too. --perturb-seed runs the second pass with another serving client seed, which
// the comparison must flag. The last stdout line is the result as one JSON object.

#include <malloc.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "layerbench/passes.h"
#include "layerbench/probes.h"

namespace layerbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::uint64_t serving_seed = 1;
  std::uint64_t perturb_seed = 0;  // 0 = off
  bool probes_only = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      continue;
    }
    if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value, &end, 10));
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
    } else if (flag == "--serving-seed") {
      args->serving_seed = std::strtoull(value, &end, 10);
    } else if (flag == "--perturb-seed") {
      args->perturb_seed = std::strtoull(value, &end, 10);
    } else if (flag == "--probes") {
      args->probes_only = std::strtol(value, &end, 10) == 1;
    } else {
      return false;
    }
    if (end == value || *end != '\0') {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0 && (args->trace == 0 || args->trace == 1);
}

double SafeDiv(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// Passes of one kind (unobserved or observed), each compared with the first, with
// attempted/failed operations tallied across all kinds.
class PassSet {
 public:
  PassSet(const WorkloadSpec& spec, std::uint64_t* attempted, std::uint64_t* failed)
      : spec_(spec), attempted_(attempted), failed_(failed) {}

  // Runs one pass; `reference` (may be null) is another kind's first pass whose
  // simulated outcome, except the TLB group, this pass must also reproduce.
  void Run(const ace::AppConfig& config, bool observed, const PassOutcome* reference,
           SpanLog* spans) {
    SwitchCounter counter;
    PassOutcome p = RunPass(spec_, config, observed ? &counter : nullptr, spans);
    std::string diff;
    if (!p.result.ok) {
      diff = "the app's self-verification failed: " + p.result.detail;
    } else if (!passes_.empty()) {
      diff = SimulationDiff(passes_.front(), p, /*with_tlb=*/true);
    }
    if (diff.empty() && reference != nullptr) {
      diff = SimulationDiff(*reference, p, /*with_tlb=*/false);
    }
    const std::uint64_t ops = spec_.serving ? p.result.work_units : 1;
    const std::uint64_t served =
        spec_.serving ? static_cast<std::uint64_t>(p.AppMetric("requests")) : 1;
    *attempted_ += ops;
    *failed_ += diff.empty() ? ops - std::min(ops, served) : ops;
    std::printf("pass %zu%s: setup %.4f s, wall %.4f s, %llu refs, %.2f ns/ref, %s%s\n",
                passes_.size() + 1, observed ? " (observed)" : "", p.setup_s, p.wall_s,
                static_cast<unsigned long long>(p.Refs()),
                SafeDiv(p.wall_s * 1e9, static_cast<double>(p.Refs())),
                diff.empty() ? "ok: " : "FAILED: ", diff.empty() ? p.result.detail.c_str()
                                                                 : diff.c_str());
    std::fflush(stdout);
    if (observed) {
      switches_.push_back(counter.switches);
    }
    passes_.push_back(std::move(p));
  }

  const std::vector<PassOutcome>& passes() const { return passes_; }
  const PassOutcome& first() const { return passes_.front(); }
  std::uint64_t first_switches() const { return switches_.front(); }

  double FastestWallS() const {
    double fastest = passes_.front().wall_s;
    for (const PassOutcome& p : passes_) {
      fastest = std::min(fastest, p.wall_s);
    }
    return fastest;
  }

 private:
  const WorkloadSpec& spec_;
  std::uint64_t* attempted_;
  std::uint64_t* failed_;
  std::vector<PassOutcome> passes_;
  std::vector<std::uint64_t> switches_;
};

struct Metric {
  const char* name;
  const char* unit;
  double value;
};

// A non-finite metric (a probe that divided by zero) stops the run before any
// result is printed, rather than being reported as some plausible number.
void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<Metric>& metrics) {
  for (const Metric& metric : metrics) {
    if (!std::isfinite(metric.value)) {
      std::fprintf(stderr, "layerbench: metric %s is %g\n", metric.name, metric.value);
      std::exit(4);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name, metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

// Keep passing until `deadline_ns`, judged by whether one more pass of the last
// pass's length would still end before it, and until `min_passes` have run.
template <typename OnePass>
void PassUntil(std::int64_t deadline_ns, std::size_t min_passes, OnePass&& one_pass) {
  for (std::size_t n = 0;; ++n) {
    const std::int64_t t0 = NowNs();
    one_pass();
    const std::int64_t t1 = NowNs();
    if (n + 1 >= min_passes && t1 + (t1 - t0) > deadline_ns) {
      return;
    }
  }
}

int RunTimed(const WorkloadSpec& spec, const Args& args) {
  std::uint64_t attempted = 0, failed = 0;
  PassSet set(spec, &attempted, &failed);
  const std::int64_t deadline = NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  PassUntil(deadline, 2, [&] {
    ace::AppConfig config = AppConfigFor(spec, args.serving_seed);
    if (args.perturb_seed != 0 && set.passes().size() == 1) {
      config.serving.seed = args.perturb_seed;
    }
    set.Run(config, /*observed=*/false, nullptr, nullptr);
  });

  // Host time is reported from the fastest pass: on a shared host, interference from
  // other tenants only ever slows a pass, so the fastest one is the steadiest
  // estimate of the simulator's own cost. Every pass still simulates the same thing.
  std::vector<double> setup;
  for (const PassOutcome& p : set.passes()) {
    setup.push_back(p.setup_s);
  }
  const PassOutcome& first = set.first();
  const double wall_ns = set.FastestWallS() * 1e9;
  const double makespan_ms = static_cast<double>(first.MakespanNs()) * 1e-6;
  PrintResult(failed == 0, attempted, failed,
              {
                  {"ns_per_ref", "ns", SafeDiv(wall_ns, static_cast<double>(first.Refs()))},
                  // A batch pass is one request: due at virtual time 0, done at its
                  // makespan.
                  {"ns_per_request", "ns",
                   spec.serving ? SafeDiv(wall_ns, first.AppMetric("requests")) : wall_ns},
                  {"setup_s", "s", Median(setup)},
                  {"peak_rss_mb", "MB", PeakRssMb()},
                  {"sim_user_s", "sim_s", static_cast<double>(first.total_user_ns) * 1e-9},
                  {"sim_system_s", "sim_s", static_cast<double>(first.total_system_ns) * 1e-9},
                  {"sim_p50_ms", "sim_ms",
                   spec.serving ? first.AppMetric("lat_p50_ms") : makespan_ms},
                  {"sim_p99_ms", "sim_ms",
                   spec.serving ? first.AppMetric("lat_p99_ms") : makespan_ms},
              });
  return 0;
}

// The probed costs per call, as per-layer metrics.
std::vector<Metric> ProbeMetrics(const ProbeCosts& c) {
  return {
      {"threads.dispatch_ns", "ns", c.dispatch_ns},
      {"threads.dispatch_ns_64", "ns", c.dispatch_ns_64},
      {"threads.op_ns", "ns", c.op_ns},
      {"machine.hit_ns_local", "ns", c.hit_ns_local},
      {"machine.hit_ns_global", "ns", c.hit_ns_global},
      {"machine.hit_ns_alternating", "ns", c.hit_ns_alternating},
      {"machine.compute_ns", "ns", c.compute_ns},
      {"vm.fault_ns", "ns", c.fault_ns},
      {"numa.migration_ns", "ns", c.migration_ns},
      {"numa.replication_ns", "ns", c.replication_ns},
      {"sim.copy_ns", "ns", c.copy_ns},
      {"serving.build_ms", "ms", c.build_ms},
      {"serving.zipf_ns", "ns", c.zipf_ns},
      {"serving.hist_ns", "ns", c.hist_ns},
  };
}

// Probe rounds taken back to back, without any pass: a quick look at one layer.
int RunProbesOnly(const WorkloadSpec& spec, const Args& args) {
  SpanLog spans;
  ProbeCosts probe = RunProbes(spec, args.seed, args.serving_seed, &spans);
  for (int round = 1; round < 3; ++round) {
    probe = Fastest(probe, RunProbes(spec, args.seed, args.serving_seed, &spans));
  }
  for (const Metric& metric : ProbeMetrics(probe)) {
    std::printf("%-28s %14.3f %s\n", metric.name, metric.value, metric.unit);
  }
  return 0;
}

// One row of the host-side eq. 2: a layer's public count times its probed cost.
struct Row {
  const char* layer;
  const char* count_name;
  double count;
  double cost_ns;
  double Ns() const { return count * cost_ns; }
};

int RunTraced(const WorkloadSpec& spec, const Args& args) {
  const std::int64_t start = NowNs();
  SpanLog spans;
  // Three probe rounds, before, between and after the two kinds of passes.
  auto probe_round = [&] { return RunProbes(spec, args.seed, args.serving_seed, &spans); };
  ProbeCosts probe = probe_round();

  std::uint64_t attempted = 0, failed = 0;
  PassSet plain(spec, &attempted, &failed);
  PassSet observed(spec, &attempted, &failed);
  const ace::AppConfig config = AppConfigFor(spec, args.serving_seed);
  const auto span = static_cast<std::int64_t>(args.seconds * 1e9);
  PassUntil(start + span / 2, 1, [&] { plain.Run(config, false, nullptr, &spans); });
  probe = Fastest(probe, probe_round());
  PassUntil(start + span, 1, [&] { observed.Run(config, true, &plain.first(), &spans); });
  probe = Fastest(probe, probe_round());

  // Counts come from the first unobserved pass (the observer turns batching off, so
  // only the switch count is taken from an observed pass); they repeat exactly.
  const PassOutcome& p = plain.first();
  const ace::MachineStats& s = p.stats;
  const ace::ProcRefCounts refs = s.TotalRefs();
  const double total_refs = static_cast<double>(refs.Total());
  const double switches = static_cast<double>(observed.first_switches());
  const double wall_ns = plain.FastestWallS() * 1e9;
  const double requests = p.AppMetric("requests");
  const double hit_mix_ns =
      SafeDiv(static_cast<double>(refs.LocalTotal()) * probe.hit_ns_local +
                  static_cast<double>(refs.GlobalTotal() + refs.RemoteTotal()) *
                      probe.hit_ns_global,
              total_refs);
  const double other_faults = static_cast<double>(
      s.page_faults - std::min(s.page_faults, s.zero_fills + s.ownership_moves));
  const std::vector<Row> rows = {
      {"threads", "switches", switches, probe.dispatch_ns},
      // The Env op's own cost beyond the machine call it wraps, paid per reference.
      {"threads", "env_refs", total_refs, std::max(0.0, probe.op_ns - probe.compute_ns)},
      {"machine", "tlb_hits", static_cast<double>(p.tlb.hits), hit_mix_ns},
      // A hit that closes another page's run pays the run commit on top.
      {"machine", "run_flushes", static_cast<double>(p.tlb.run_flushes),
       std::max(0.0, probe.hit_ns_alternating - probe.hit_ns_local)},
      {"vm", "zero_fills", static_cast<double>(s.zero_fills), probe.fault_ns},
      // Faults split three ways so none is counted twice: first touches (vm),
      // ownership moves, and every other protocol resolution at the replication cost.
      {"numa", "moves", static_cast<double>(s.ownership_moves), probe.migration_ns},
      {"numa", "other_faults", other_faults, probe.replication_ns},
      {"serving", "builds", spec.serving ? 1.0 : 0.0, probe.build_ms * 1e6},
      {"serving", "hist_records", 2 * requests, probe.hist_ns},
  };
  auto share = [&](const char* layer) {
    double ns = 0;
    for (const Row& r : rows) {
      ns += std::strcmp(r.layer, layer) == 0 ? r.Ns() : 0;
    }
    return SafeDiv(ns, wall_ns);
  };

  std::printf("\nattribution (%s): timed wall %.4f s, fastest of %zu unobserved passes\n",
              spec.name, wall_ns * 1e-9, plain.passes().size());
  std::printf("%-8s %-13s %15s %12s %12s %8s %12s\n", "layer", "count", "value",
              "cost/call", "count*cost", "share", "residual");
  double residual_ns = wall_ns;
  for (const Row& r : rows) {
    residual_ns -= r.Ns();
    std::printf("%-8s %-13s %15.0f %9.1f ns %10.4f s %7.2f%% %10.4f s\n", r.layer,
                r.count_name, r.count, r.cost_ns, r.Ns() * 1e-9,
                100.0 * SafeDiv(r.Ns(), wall_ns), residual_ns * 1e-9);
  }
  const double residual_share = SafeDiv(residual_ns, wall_ns);
  const double trace_overhead = SafeDiv(observed.FastestWallS(), plain.FastestWallS()) - 1.0;
  std::printf("residual share %.4f (app code, dispatches without a switch, Env::Compute calls "
              "and other uncounted work); trace overhead %.4f\n",
              residual_share, trace_overhead);
  std::printf("\nspans (ms from start):\n");
  for (const SpanLog::Span& sp : spans.spans()) {
    std::printf("  %-22s %10.3f %10.3f\n", sp.name.c_str(), sp.start_ns * 1e-6,
                sp.dur_ns * 1e-6);
  }

  const double user = static_cast<double>(p.total_user_ns);
  const double system = static_cast<double>(p.total_system_ns);
  const double stores = static_cast<double>(refs.store_local + refs.store_global +
                                            refs.store_remote);
  std::vector<Metric> metrics = ProbeMetrics(probe);
  metrics.insert(metrics.end(), {
      {"threads.switches", "count", switches},
      {"threads.switches_per_ref", "ratio", SafeDiv(switches, total_refs)},
      {"threads.share", "frac", share("threads")},
      {"machine.tlb_hits", "count", static_cast<double>(p.tlb.hits)},
      {"machine.tlb_misses", "count", static_cast<double>(p.tlb.misses)},
      {"machine.tlb_hit_rate", "frac",
       SafeDiv(static_cast<double>(p.tlb.hits),
               static_cast<double>(p.tlb.hits + p.tlb.misses))},
      {"machine.shootdown_pages", "count",
       static_cast<double>(p.tlb.shootdown_pages)},
      {"machine.run_length", "refs",
       SafeDiv(static_cast<double>(p.tlb.batched_refs),
               static_cast<double>(p.tlb.run_flushes))},
      {"machine.share", "frac", share("machine")},
      {"vm.faults", "count", static_cast<double>(s.page_faults)},
      {"vm.zero_fills", "count", static_cast<double>(s.zero_fills)},
      {"vm.share", "frac", share("vm")},
      {"numa.copies", "count", static_cast<double>(s.page_copies)},
      {"numa.syncs", "count", static_cast<double>(s.page_syncs)},
      {"numa.flushes", "count", static_cast<double>(s.page_flushes)},
      {"numa.moves", "count", static_cast<double>(s.ownership_moves)},
      {"numa.pinned", "count", static_cast<double>(s.pages_pinned)},
      {"numa.local_fraction", "frac", s.MeasuredAlpha()},
      {"numa.share", "frac", share("numa")},
      {"sim.system_frac", "frac", SafeDiv(system, user + system)},
      {"apps.refs", "count", total_refs},
      {"apps.refs_local", "count", static_cast<double>(refs.LocalTotal())},
      {"apps.refs_global", "count", static_cast<double>(refs.GlobalTotal())},
      {"apps.refs_remote", "count", static_cast<double>(refs.RemoteTotal())},
      {"apps.store_frac", "frac", SafeDiv(stores, total_refs)},
      {"serving.requests", "count", requests},
      {"serving.puts", "count", p.AppMetric("puts")},
      {"serving.remote_gets", "count", p.AppMetric("remote_gets")},
      {"serving.share", "frac", share("serving")},
      {"attr.residual_share", "frac", residual_share},
      {"attr.trace_overhead", "frac", trace_overhead},
  });
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace layerbench

int main(int argc, char** argv) {
  using namespace layerbench;
  // Return every freed machine's memory to the kernel, so each pass's set-up pays
  // the page faults a fresh process pays instead of reusing the previous pass's heap.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: layerbench --workload imatmult|gfetch|serving --seconds S "
                 "--trace 0|1 [--seed N] [--serving-seed N] [--perturb-seed N] "
                 "[--probes 1]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "layerbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  // The environment (ACE_TLB, ACE_TLB_VERIFY) can override the machine options at
  // construction; one machine built here shows what every machine of this run gets.
  bool tlb_on = false, tlb_verify = false;
  {
    const ace::Machine machine(MachineOptionsFor(*spec));
    tlb_on = machine.tlb_enabled();
    tlb_verify = machine.tlb_verify_enabled();
  }
  std::printf("config: build_type=%s check_invariants=%d tlb=%d tlb_verify=%d workload=%s "
              "seed=%llu serving_seed=%llu seconds=%g trace=%d\n",
              LAYERBENCH_BUILD_TYPE, LAYERBENCH_CHECK_INVARIANTS, tlb_on ? 1 : 0,
              tlb_verify ? 1 : 0, spec->name, static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.serving_seed), args.seconds, args.trace);
  std::fflush(stdout);
  if (std::strcmp(LAYERBENCH_BUILD_TYPE, "Release") != 0 || LAYERBENCH_CHECK_INVARIANTS ||
      !tlb_on || tlb_verify) {
    std::fprintf(stderr, "layerbench: refusing to report timings outside the production "
                         "configuration (Release, ACE_CHECK_INVARIANTS=OFF, TLB on, TLB "
                         "poison cross-check off)\n");
    return 3;
  }
  if (args.probes_only) {
    return RunProbesOnly(*spec, args);
  }
  return args.trace == 1 ? RunTraced(*spec, args) : RunTimed(*spec, args);
}
