// ace_run — command-line driver for the simulated ACE.
//
// Runs any application from the suite under any policy/machine configuration and
// reports times, placement statistics, the analytic model, and (optionally) the
// trace-based sharing analysis and optimal-placement estimate.
//
// Examples:
//   ace_run --app IMatMult
//   ace_run --app Primes3 --threads 8 --policy remote-home --threshold 2
//   ace_run --app Primes2 --variant 1 --trace
//   ace_run --app FFT --experiment            # full Tnuma/Tglobal/Tlocal + model
//   ace_run --app PlyTrace --optimal          # compare against the oracle placement
//   ace_run --app IMatMult --report pmap      # Figures 1 and 2: machine, pmap traffic
//   ace_run --list

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/machine/chaos.h"
#include "src/machine/recovery.h"
#include "src/metrics/experiment.h"
#include "src/metrics/table.h"
#include "src/obs/export.h"
#include "src/obs/live_stream.h"
#include "src/obs/observability.h"
#include "src/obs/sampler.h"
#include "src/obs/snapshot.h"
#include "src/trace/ref_trace.h"

namespace {

void Usage() {
  std::printf(
      "usage: ace_run [options]\n"
      "  --list                 list available applications\n"
      "  --app NAME             application to run (default IMatMult)\n"
      "  --threads N            worker threads / processors (default 7)\n"
      "  --scale X              workload scale factor (default 1.0)\n"
      "  --variant N            application variant (default 0)\n"
      "  --policy P             move-limit | all-global | all-local | reconsider |\n"
      "                         remote-home (default move-limit)\n"
      "  --threshold N          pin/home threshold (default 4)\n"
      "  --page-size BYTES      page size, power of two (default 4096)\n"
      "  --scheduler S          affinity | migrating (default affinity)\n"
      "  --pager                enable pageout to backing store\n"
      "  --global-pages N       logical page pool size (default 4096)\n"
      "  --seed N               run seed (fault-plan probability streams; default 0)\n"
      "serving workload (--app Serving; ignored by the batch apps):\n"
      "  --tenants N            key namespaces sharing the store (default 4)\n"
      "  --skew X               Zipfian exponent of key popularity (default 0.9)\n"
      "  --churn N              scheduled hot-shard rotation phases (default 3)\n"
      "  --requests N           open-loop request budget / duration (0 = from --scale)\n"
      "  --plan STR             arm a fault-injection plan (src/inject grammar, e.g.\n"
      "                         'local-exhausted@every:3;copy-fail@nth:5'); chaos\n"
      "                         events such as 'drain-mem@1:30000000:90000000:250'\n"
      "                         also arm the serving SLO guard\n"
      "  --trace                print the sharing-class trace report\n"
      "  --no-tlb               disable the software-TLB fast path (same metrics,\n"
      "                         slower; ACE_TLB=0 in the environment does the same)\n"
      "  --tlb-stats            print the tlb counter group (hits, fills,\n"
      "                         shootdowns, and same-page hit runs: run-flushes runs\n"
      "                         covering batched-refs hits). Off by default so output\n"
      "                         stays byte-comparable across --no-tlb\n"
      "  --optimal              print the optimal-placement comparison\n"
      "  --experiment           run all three placements and print the model row\n"
      "observability (src/obs; all options also accept --opt=value):\n"
      "  --trace-out FILE       write a Chrome trace-event JSON (Perfetto-loadable)\n"
      "  --heat-csv FILE        write the per-page heat table as CSV\n"
      "  --report LIST          comma-separated: hot-pages,locality,decisions,pmap\n"
      "  --top N                rows in the hot-pages report (default 10)\n"
      "  --trace-buffer N       trace ring capacity per processor (default 65536)\n"
      "live telemetry (tail with ace_top --live / --follow):\n"
      "  --live-out FILE        stream an ace-live-v1 JSONL feed while running\n"
      "  --sample-interval NS   virtual-time sampling cadence in ns (default 10ms)\n");
}

// `--report pmap`: the machine of Figure 1 and the traffic across each interface of
// Figure 2's pmap layer (VM -> pmap manager -> NUMA policy / MMU), plus the NUMA
// manager's consistency actions, for the run just finished.
std::string RenderPmapReport(ace::Machine& m) {
  const ace::MachineConfig& c = m.config();
  const ace::LatencyModel& lat = c.latency;
  std::string out = "pmap layer (Figures 1 and 2)\n";
  char line[256];
  std::snprintf(line, sizeof(line),
                "machine: %d processor modules, %u KB local memory each; %u KB global "
                "memory;\n32-bit IPC bus at %.0f Mbyte/sec (designed for up to 16 "
                "processors).\n\n",
                m.num_processors(), c.local_pages_per_proc * c.page_size / 1024,
                c.global_pages * c.page_size / 1024,
                ace::kBusCapacityBytesPerSec / 1e6);
  out += line;
  ace::TextTable latencies({"32-bit reference", "charged (us)", "paper (us)"});
  latencies.AddRow({"local fetch", ace::Fmt("%.2f", lat.local_fetch_ns * 1e-3), "0.65"});
  latencies.AddRow({"local store", ace::Fmt("%.2f", lat.local_store_ns * 1e-3), "0.84"});
  latencies.AddRow({"global fetch", ace::Fmt("%.2f", lat.global_fetch_ns * 1e-3), "1.5"});
  latencies.AddRow({"global store", ace::Fmt("%.2f", lat.global_store_ns * 1e-3), "1.4"});
  out += latencies.ToString();
  std::snprintf(line, sizeof(line),
                "global/local ratio: %.2f on fetches (paper: 2.3), %.2f on stores\n"
                "(paper: 1.7), %.2f at 45%% stores (paper: ~2)\n\n",
                lat.FetchRatio(), static_cast<double>(lat.global_store_ns) / lat.local_store_ns,
                lat.MixRatio(0.45));
  out += line;
  out +=
      "  Mach machine-independent VM\n"
      "            | pmap interface\n"
      "            v\n"
      "      pmap manager  <->  NUMA manager  <->  NUMA policy\n"
      "            |\n"
      "            v\n"
      "      MMU interface (Rosetta)\n\n";

  const ace::PmapCallCounts& calls = m.pmap().call_counts();
  ace::TextTable table({"Interface", "Operation", "Calls"});
  table.AddRow({"pmap (VM -> pmap manager)", "pmap_enter", std::to_string(calls.enter)});
  table.AddRow({"", "pmap_remove", std::to_string(calls.remove)});
  table.AddRow({"", "pmap_protect", std::to_string(calls.protect)});
  table.AddRow({"", "pmap_remove_all", std::to_string(calls.remove_all)});
  table.AddRow({"", "pmap_free_page (lazy)", std::to_string(calls.free_page)});
  table.AddRow({"", "pmap_free_page_sync", std::to_string(calls.free_page_sync)});
  table.AddRow({"", "pmap_zero_page (lazy)", std::to_string(calls.zero_page)});
  table.AddRow({"pmap manager -> NUMA policy", "cache_policy",
                std::to_string(calls.policy_calls)});
  table.AddRow({"pmap manager -> MMU", "enter mapping", std::to_string(calls.mmu_enters)});
  table.AddRow({"", "remove mapping", std::to_string(calls.mmu_removes)});
  out += table.ToString();

  const ace::MachineStats& s = m.stats();
  ace::TextTable actions({"NUMA manager action", "Count"});
  actions.AddRow({"page copies (global->local replication)", std::to_string(s.page_copies)});
  actions.AddRow({"page syncs (local->global write-back)", std::to_string(s.page_syncs)});
  actions.AddRow({"page flushes (cached copy dropped)", std::to_string(s.page_flushes)});
  actions.AddRow({"unmap-all (global-writable pages)", std::to_string(s.page_unmaps)});
  actions.AddRow({"ownership moves", std::to_string(s.ownership_moves)});
  actions.AddRow({"pages pinned in global memory", std::to_string(s.pages_pinned)});
  actions.AddRow({"lazy zero-fills", std::to_string(s.zero_fills)});
  return out + "\n" + actions.ToString();
}

}  // namespace

int main(int argc, char** argv) {
  std::string app_name = "IMatMult";
  std::string policy_name = "move-limit";
  std::string scheduler = "affinity";
  int threads = 7;
  double scale = 1.0;
  int variant = 0;
  int threshold = 4;
  std::uint32_t page_size = 4096;
  std::uint32_t global_pages = 4096;
  bool pager = false;
  bool no_tlb = false;
  bool tlb_stats = false;
  bool trace = false;
  bool optimal = false;
  bool experiment = false;
  std::uint64_t seed = 0;
  ace::ServingOptions serving;
  bool serving_flags = false;
  std::string plan_text;
  std::string trace_out;
  std::string heat_csv;
  std::string report_list;
  int top_n = 10;
  std::size_t trace_buffer = ace::Tracer::kDefaultCapacityPerProc;
  std::string live_out;
  std::int64_t sample_interval = 10'000'000;

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
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--list") {
      for (const ace::AppFactory& f : ace::AllAppFactories()) {
        std::printf("%s\n", f()->name());
      }
      return 0;
    } else if (arg == "--app") {
      app_name = next();
    } else if (arg == "--threads") {
      threads = std::atoi(next());
    } else if (arg == "--scale") {
      scale = std::atof(next());
    } else if (arg == "--variant") {
      variant = std::atoi(next());
    } else if (arg == "--policy") {
      policy_name = next();
    } else if (arg == "--threshold") {
      threshold = std::atoi(next());
    } else if (arg == "--page-size") {
      page_size = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--global-pages") {
      global_pages = static_cast<std::uint32_t>(std::atoi(next()));
    } else if (arg == "--scheduler") {
      scheduler = next();
    } else if (arg == "--seed") {
      seed = std::strtoull(next(), nullptr, 0);
    } else if (arg == "--tenants") {
      serving.tenants = std::atoi(next());
      serving_flags = true;
    } else if (arg == "--skew") {
      serving.zipf_skew = std::atof(next());
      serving_flags = true;
    } else if (arg == "--churn") {
      serving.churn_phases = std::atoi(next());
      serving_flags = true;
    } else if (arg == "--requests") {
      serving.requests = std::strtoull(next(), nullptr, 0);
      serving_flags = true;
    } else if (arg == "--plan") {
      plan_text = next();
    } else if (arg == "--pager") {
      pager = true;
    } else if (arg == "--no-tlb") {
      no_tlb = true;
    } else if (arg == "--tlb-stats") {
      tlb_stats = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--trace-out") {
      trace_out = next();
    } else if (arg == "--heat-csv") {
      heat_csv = next();
    } else if (arg == "--report") {
      report_list = next();
    } else if (arg == "--top") {
      top_n = std::atoi(next());
    } else if (arg == "--trace-buffer") {
      trace_buffer = static_cast<std::size_t>(std::atol(next()));
    } else if (arg == "--live-out") {
      live_out = next();
    } else if (arg == "--sample-interval") {
      sample_interval = std::strtoll(next(), nullptr, 0);
    } else if (arg == "--optimal") {
      optimal = true;
    } else if (arg == "--experiment") {
      experiment = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage();
      return 2;
    }
  }

  std::unique_ptr<ace::App> app = ace::CreateAppByName(app_name);
  if (app == nullptr) {
    std::fprintf(stderr, "unknown application '%s' (try --list)\n", app_name.c_str());
    return 2;
  }

  // The serving-workload shape, echoed in the run header and the live-feed tag (like
  // --seed/--plan) so a serving run is replayable from its feed alone.
  const bool is_serving = app_name == "Serving" || app_name == "serving";
  std::string serving_desc;
  if (is_serving || serving_flags) {
    serving_desc = "ten" + std::to_string(serving.tenants) + "/z" +
                   ace::Fmt("%g", serving.zipf_skew) + "/ch" +
                   std::to_string(serving.churn_phases) + "/req" +
                   std::to_string(serving.requests) + "/seed" +
                   std::to_string(serving.seed);
  }

  std::optional<ace::PolicySpec> policy = ace::PolicySpec::FromName(policy_name, threshold);
  if (!policy) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
    return 2;
  }

  ace::ExperimentOptions options;
  options.num_threads = threads;
  options.scale = scale;
  options.variant = variant;
  options.policy = *policy;
  options.config.num_processors = threads;
  options.config.page_size = page_size;
  options.config.global_pages = global_pages;
  options.scheduler =
      scheduler == "migrating" ? ace::SchedulerKind::kMigrating : ace::SchedulerKind::kAffinity;
  options.serving = serving;

  options.enable_tlb = !no_tlb;

  if (experiment) {
    // With --live-out the three placement runs become three feed segments, all
    // through one writer (RunPlacement opens/closes each segment).
    ace::LiveStreamWriter live_writer;
    std::unique_ptr<ace::LiveSampler> sampler;
    if (!live_out.empty()) {
      if (!live_writer.Open(live_out, /*append=*/false)) {
        std::fprintf(stderr, "cannot open %s for live output\n", live_out.c_str());
        return 1;
      }
      ace::LiveSampler::Options so;
      so.interval_ns = sample_interval;
      so.hot_pages = static_cast<std::size_t>(top_n);
      so.tool = "ace_run";
      sampler = std::make_unique<ace::LiveSampler>(so, &live_writer);
      options.sampler = sampler.get();
    }
    ace::ExperimentResult r = ace::RunExperiment(app_name, options);
    ace::TextTable table({"Application", "Tglobal", "Tnuma", "Tlocal", "alpha", "beta",
                          "gamma", "alpha(ref)", "verified"});
    table.AddRow({app_name, ace::Fmt("%.3f", r.global.user_sec),
                  ace::Fmt("%.3f", r.numa.user_sec), ace::Fmt("%.3f", r.local.user_sec),
                  r.model.alpha_defined ? ace::Fmt("%.2f", r.model.alpha) : "na",
                  ace::Fmt("%.2f", r.model.beta), ace::Fmt("%.2f", r.model.gamma),
                  ace::Fmt("%.2f", r.numa.measured_alpha), r.AllOk() ? "ok" : "FAILED"});
    table.Print();
    if (sampler != nullptr) {
      live_writer.Close();
      if (!live_writer.ok()) {
        std::fprintf(stderr, "error writing live feed %s\n", live_out.c_str());
        return 1;
      }
      std::printf("live feed:      %s (3 segments)\n", live_out.c_str());
    }
    return r.AllOk() ? 0 : 1;
  }

  ace::Machine::Options mo;
  mo.config = options.config;
  mo.policy = *policy;
  mo.enable_pager = pager;
  mo.enable_tlb = !no_tlb;
  mo.fault_seed = seed;
  if (!plan_text.empty()) {
    std::string error;
    if (!ace::FaultPlan::Parse(plan_text, &mo.fault_plan, &error)) {
      std::fprintf(stderr, "bad --plan: %s\n", error.c_str());
      return 2;
    }
  }
  ace::Machine machine(mo);

  const bool want_obs = !trace_out.empty() || !heat_csv.empty() || !report_list.empty();
  if (want_obs) {
    ace::Observability& obs = machine.observability();
    obs.EnableHeat();
    if (!trace_out.empty()) {
      obs.EnableTracing(trace_buffer);
    }
  }

  std::unique_ptr<ace::RefTracer> tracer;
  if (trace || optimal) {
    tracer = std::make_unique<ace::RefTracer>(&machine);
    if (optimal) {
      tracer->EnableEpochTracking();
    }
  }

  // Live telemetry: stream an ace-live-v1 segment while the app runs. Heat profiling
  // feeds the hot-page and decision columns; counters and results stay byte-identical
  // to an unsampled run (tests/live_sampler_test.cc).
  ace::LiveStreamWriter live_writer;
  std::unique_ptr<ace::LiveSampler> sampler;
  if (!live_out.empty()) {
    if (!live_writer.Open(live_out, /*append=*/false)) {
      std::fprintf(stderr, "cannot open %s for live output\n", live_out.c_str());
      return 1;
    }
    ace::LiveSampler::Options so;
    so.interval_ns = sample_interval;
    so.hot_pages = static_cast<std::size_t>(top_n);
    so.tool = "ace_run";
    sampler = std::make_unique<ace::LiveSampler>(so, &live_writer);
    machine.observability().EnableHeat();
    sampler->SetSource(&ace::Machine::LiveCaptureThunk, &machine);
    ace::LiveRunMeta meta;
    meta.app = app_name;
    meta.policy = policy_name;
    meta.procs = threads;
    meta.threads = threads;
    meta.pages = global_pages;
    meta.page_size = page_size;
    meta.seed = seed;
    meta.fault_plan = plan_text;
    meta.tlb = machine.tlb_enabled();
    meta.tag = serving_desc;
    sampler->BeginRun(std::move(meta));
  }

  ace::AppConfig cfg;
  cfg.num_threads = threads;
  cfg.scale = scale;
  cfg.variant = variant;
  cfg.serving = serving;
  cfg.runtime.scheduler = options.scheduler;
  cfg.runtime.sampler = sampler.get();
  ace::AppResult result = app->Run(machine, cfg);

  if (sampler != nullptr) {
    sampler->EndRun(result.ok ? "ok" : "failed");
  }

  std::printf("app:            %s (%s)\n", app_name.c_str(), result.detail.c_str());
  std::printf("policy:         %s (threshold %d)\n", policy_name.c_str(), threshold);
  std::printf("machine:        %d processors, %u-byte pages, %u global pages%s\n", threads,
              page_size, global_pages, pager ? ", pager on" : "");
  std::printf("seed:           %llu%s%s\n", (unsigned long long)seed,
              plan_text.empty() ? "" : "   fault plan: ",
              plan_text.empty() ? "" : plan_text.c_str());
  if (!serving_desc.empty()) {
    std::printf("serving:        %s\n", serving_desc.c_str());
  }
  std::printf("user time:      %.4f s   system time: %.4f s\n",
              machine.clocks().TotalUser() * 1e-9, machine.clocks().TotalSystem() * 1e-9);
  const ace::MachineStats& s = machine.stats();
  std::printf("local fraction: %.3f\n", s.MeasuredAlpha());
  std::printf("faults:         %llu   copies: %llu   syncs: %llu   moves: %llu   pinned: %llu\n",
              (unsigned long long)s.page_faults, (unsigned long long)s.page_copies,
              (unsigned long long)s.page_syncs, (unsigned long long)s.ownership_moves,
              (unsigned long long)s.pages_pinned);
  std::printf("bus traffic:    %.2f MB (utilization %.1f%%)\n",
              machine.bus().total_bytes() / 1e6, 100.0 * machine.bus().Utilization());
  if (machine.pager() != nullptr) {
    std::printf("pager:          %llu pageouts, %llu pageins\n",
                (unsigned long long)machine.pager()->stats().pageouts,
                (unsigned long long)machine.pager()->stats().pageins);
  }
  if (machine.fault_injector() != nullptr) {
    std::printf("degradation:    %llu fired faults, %llu global fallbacks, "
                "%llu copy failures, %llu pool retries, %llu oom faults\n",
                (unsigned long long)machine.fault_injector()->total_fires(),
                (unsigned long long)s.degraded_global_fallbacks,
                (unsigned long long)s.degraded_copy_failures,
                (unsigned long long)s.degraded_pool_retries,
                (unsigned long long)s.degraded_oom_faults);
  }
  if (machine.chaos() != nullptr) {
    std::printf("chaos:          %zu planned events, %llu transitions applied, "
                "%llu pages evacuated\n",
                machine.chaos()->num_events(), (unsigned long long)s.chaos_events,
                (unsigned long long)s.evacuated_pages);
  }
  if (machine.recovery() != nullptr) {
    // Permanent chaos: split the outcome — evacuated pages (above) moved intact
    // ahead of a drain; recovered pages were reconstructed from a mirror, journal
    // or replica after the loss; lost pages had no mirror and degraded to GLOBAL
    // over stale content.
    std::printf("recovery:       %llu pages journaled (%llu B mirrored), "
                "%llu recovered, %llu lost, %llu checksum failures, "
                "dead nodes 0x%x\n",
                (unsigned long long)s.replicated_pages,
                (unsigned long long)s.journal_bytes,
                (unsigned long long)s.recovered_pages,
                (unsigned long long)s.lost_pages,
                (unsigned long long)s.checksum_failures,
                machine.recovery()->dead_nodes());
  }
  if (tlb_stats) {
    const ace::TlbStats t = machine.tlb_stats();
    std::printf("tlb:            %s%s\n",
                ace::FormatTlbCounters(t.hits, t.misses, t.fills, t.conflict_evictions,
                                       t.shootdown_pages, t.shootdown_hits,
                                       t.run_flushes, t.batched_refs)
                    .c_str(),
                machine.tlb_enabled() ? "" : " (tlb disabled)");
  }
  if (sampler != nullptr) {
    live_writer.Close();
    if (!live_writer.ok()) {
      std::fprintf(stderr, "error writing live feed %s\n", live_out.c_str());
      return 1;
    }
    std::printf("live feed:      %s (%llu samples, every %lld ns)\n", live_out.c_str(),
                (unsigned long long)sampler->samples(), (long long)sample_interval);
  }

  if (want_obs) {
    ace::Observability& obs = machine.observability();
    const ace::HeatProfile& heat = obs.heat();

    // Cross-check: the heat profile records references at the same point as
    // MachineStats, so the two locality fractions must agree to double precision.
    double heat_alpha = heat.AggregateAlpha();
    double stats_alpha = s.MeasuredAlpha();
    std::printf("heat alpha:     %.9f (stats %.9f)\n", heat_alpha, stats_alpha);
    if (std::fabs(heat_alpha - stats_alpha) > 1e-9) {
      std::fprintf(stderr, "ERROR: heat-profile alpha diverges from MeasuredAlpha\n");
      return 1;
    }

    // Ring pressure: a nonzero drop count means the per-processor rings wrapped and
    // any report built from them is missing that many oldest events.
    if (obs.tracer().configured()) {
      std::printf("trace rings:    %s\n",
                  ace::FormatTraceRingCounters(obs.tracer().total_emitted(),
                                               obs.tracer().dropped())
                      .c_str());
    }

    ace::ExportContext ctx;
    ctx.tracer = obs.tracing() || obs.tracer().total_emitted() > 0 ? &obs.tracer() : nullptr;
    ctx.policy = policy_name.c_str();
    ctx.app = app_name.c_str();

    auto write_file = [&](const std::string& path, const char* what, auto writer) {
      std::ofstream out(path);
      if (!out) {
        std::fprintf(stderr, "cannot open %s for %s output\n", path.c_str(), what);
        std::exit(1);
      }
      writer(out);
      std::printf("%-9s       %s\n", what, path.c_str());
    };
    if (!trace_out.empty()) {
      write_file(trace_out, "trace", [&](std::ostream& o) { ace::WriteChromeTrace(ctx, o); });
    }
    if (!heat_csv.empty()) {
      write_file(heat_csv, "heat-csv", [&](std::ostream& o) { ace::WriteHeatCsv(heat, o); });
    }

    // --report hot-pages,locality,decisions,pmap
    std::string rest = report_list;
    while (!rest.empty()) {
      auto comma = rest.find(',');
      std::string name = rest.substr(0, comma);
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
      if (name == "hot-pages") {
        std::printf("\n%s", ace::RenderHotPages(heat, static_cast<std::size_t>(top_n)).c_str());
      } else if (name == "locality") {
        std::printf("\n%s", ace::RenderLocality(s, threads).c_str());
      } else if (name == "decisions") {
        std::printf("\n%s", ace::RenderDecisions(heat).c_str());
      } else if (name == "pmap") {
        std::printf("\n%s", RenderPmapReport(machine).c_str());
      } else if (!name.empty()) {
        std::fprintf(stderr, "unknown report '%s' (hot-pages, locality, decisions, pmap)\n",
                     name.c_str());
        return 2;
      }
    }
  }

  if (trace) {
    std::printf("\n--- trace report ---\n%s", tracer->Report().c_str());
  }
  if (optimal) {
    ace::OptimalEstimate est = tracer->EstimateOptimal();
    std::printf("\n--- optimal placement estimate ---\n");
    std::printf("referenced pages:        %llu (optimal plan all-global for %llu)\n",
                (unsigned long long)est.pages, (unsigned long long)est.pages_best_global);
    std::printf("oracle memory+move time: %.4f s\n", est.total_sec);
  }
  return result.ok ? 0 : 1;
}
