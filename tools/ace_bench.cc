// ace_bench — the experiment-sweep driver and perf-regression gate.
//
// Runs a named suite of the paper's evaluation matrix on the parallel sweep
// engine (src/metrics/sweep), emits the results as BENCH_<suite>.json, and optionally
// compares them against a committed baseline, exiting nonzero when any metric
// breaches its tolerance. This is the one front end for the reproduced tables:
// --render prints the paper-table views (Tables 3 and 4, the threshold and G/L
// sweeps, serving, the section 3.1/4 ablations) of whatever the suite ran, and CI
// gates every change on `ace_bench --suite smoke --baseline ...`.
//
// Examples:
//   ace_bench --suite smoke
//   ace_bench --suite smoke --workers 8 --out BENCH_smoke.json
//   ace_bench --suite smoke --baseline bench/baselines/BENCH_smoke.json
//   ace_bench --suite full --render
//   ace_bench --suite table4 --threads 4 --scale 0.25 --render
//   ace_bench --suite ablations --render
//   ace_bench --list
//
// Resilient long runs (DESIGN.md section 9): --checkpoint journals every completed
// cell as an atomic self-validating fragment, --resume skips them on the next
// invocation and produces a merged result whose cell bytes are identical to an
// uninterrupted run; --deadline/--move-budget arm the hung-run watchdog; a cell
// that dies runs once and is quarantined into --failures FILE instead of aborting
// the sweep (its death is deterministic, so a re-run would only repeat it).
//
//   ace_bench --suite full --checkpoint ckpt/ --out BENCH_full.json
//   ace_bench --suite full --checkpoint ckpt/ --resume --out BENCH_full.json
//   ace_bench --suite smoke --deadline 30000000000 --move-budget 2000000
//   ace_bench --suite smoke --move-budget 20000 --failures failures.json
//
// Exit codes: 0 success; 1 baseline regression; 2 usage error; 3 an application's
// self-verification failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "src/inject/fault_plan.h"
#include "src/obs/live_stream.h"
#include "src/obs/sampler.h"
#include "src/metrics/sweep/baseline.h"
#include "src/metrics/sweep/checkpoint.h"
#include "src/metrics/sweep/matrix.h"
#include "src/metrics/sweep/render.h"
#include "src/metrics/sweep/report.h"
#include "src/metrics/sweep/runner.h"
#include "src/metrics/table.h"

namespace {

void Usage() {
  std::printf(
      "usage: ace_bench --suite NAME [options]\n"
      "  --list                 list available suites and their cell counts\n"
      "  --suite NAME           suite to run: smoke | full | table3 | table4 |\n"
      "                         threshold | gl | serving | serving-full |\n"
      "                         serving-chaos | serving-killnode | ablations\n"
      "  --workers N            host worker threads (default: hardware concurrency)\n"
      "  --out FILE             write results as BENCH JSON (self-validated)\n"
      "  --baseline FILE        compare against a baseline BENCH JSON; exit 1 on any\n"
      "                         tolerance breach\n"
      "  --render               print the paper-table views of the results\n"
      "  --threads N            override every cell's thread count\n"
      "  --scale X              override every cell's workload scale\n"
      "  --quiet                suppress per-cell progress lines\n"
      "resilience (DESIGN.md section 9):\n"
      "  --checkpoint DIR       journal each completed cell into DIR (atomic\n"
      "                         one-cell fragments; survives SIGKILL)\n"
      "  --resume               with --checkpoint: load DIR, skip completed cells\n"
      "  --deadline NS          watchdog: virtual-time budget for a scale-1 cell\n"
      "                         (scaled by each cell's scale); kills wedged cells\n"
      "  --move-budget N        watchdog: kill when ownership moves + syncs pass N\n"
      "                         (catches page ping-pong livelock)\n"
      "  --isolate              fork each cell so aborts/signals kill only it\n"
      "  --failures FILE        write cells that died as ace-failures-v1 JSON\n"
      "  --plan PLAN            fault-injection plan appended to every cell's own\n"
      "                         plan (e.g. 'drain-mem@1:30000000:90000000:250')\n"
      "  --fault-seed N         with --plan: seed for probabilistic plan schedules\n"
      "  --only SUBSTR          run only cells whose key contains SUBSTR (replay)\n"
      "  --no-host              omit host stats from --out (byte-comparable)\n"
      "live telemetry (view with ace_top --live FILE):\n"
      "  --live-out FILE        stream every placement run as an ace-live-v1 segment\n"
      "                         tagged with its cell key (forces --workers 1;\n"
      "                         incompatible with --isolate)\n"
      "  --sample-interval NS   virtual-time sampling cadence (default: 10000000)\n"
      "all options also accept the --opt=value spelling.\n");
}

struct Args {
  std::string suite;
  int workers = 0;
  std::string out;
  std::string baseline;
  bool render = false;
  bool list = false;
  bool quiet = false;
  int threads = 0;
  double scale = 0.0;
  std::string checkpoint;
  bool resume = false;
  long long deadline_ns = 0;
  unsigned long long move_budget = 0;
  bool isolate = false;
  std::string failures;
  std::string plan;
  unsigned long long fault_seed = 0;
  std::string only;
  bool no_host = false;
  std::string live_out;
  long long sample_interval_ns = 10'000'000;
};

// Returns the option value for `name` ("--name value" or "--name=value"), advancing
// `i` as needed, or nullptr if argv[i] is not this option.
const char* OptValue(int argc, char** argv, int* i, const char* name) {
  const char* arg = argv[*i];
  std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0) {
    return nullptr;
  }
  if (arg[len] == '=') {
    return arg + len + 1;
  }
  if (arg[len] == '\0') {
    if (*i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", name);
      std::exit(2);
    }
    *i += 1;
    return argv[*i];
  }
  return nullptr;
}

bool OptFlag(const char* arg, const char* name) { return std::strcmp(arg, name) == 0; }

struct ProgressCtx {
  ace::SweepCheckpoint* checkpoint = nullptr;  // non-null: journal completed cells
  bool quiet = false;
};

void Progress(void* ctx, const ace::CellResult& result, std::size_t done,
              std::size_t total) {
  auto* pc = static_cast<ProgressCtx*>(ctx);
  if (!pc->quiet) {
    const char* verdict = result.ok ? "ok" : "FAILED";
    if (result.from_checkpoint) {
      verdict = "resumed";
    } else if (result.died()) {
      verdict = result.failure_kind.c_str();
    }
    std::fprintf(stderr, "[%3zu/%3zu] %-40s %s\n", done, total,
                 result.cell.Key().c_str(), verdict);
  }
  // Journal executed cells (resumed ones are already on disk, byte-identically).
  if (pc->checkpoint != nullptr && !result.from_checkpoint) {
    std::string error;
    if (!pc->checkpoint->RecordCell(result, &error)) {
      std::fprintf(stderr, "WARNING: checkpoint write failed: %s\n", error.c_str());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const char* v = nullptr;
    if ((v = OptValue(argc, argv, &i, "--suite")) != nullptr) {
      args.suite = v;
    } else if ((v = OptValue(argc, argv, &i, "--workers")) != nullptr) {
      args.workers = std::atoi(v);
    } else if ((v = OptValue(argc, argv, &i, "--out")) != nullptr) {
      args.out = v;
    } else if ((v = OptValue(argc, argv, &i, "--baseline")) != nullptr) {
      args.baseline = v;
    } else if ((v = OptValue(argc, argv, &i, "--threads")) != nullptr) {
      args.threads = std::atoi(v);
    } else if ((v = OptValue(argc, argv, &i, "--scale")) != nullptr) {
      args.scale = std::atof(v);
    } else if ((v = OptValue(argc, argv, &i, "--checkpoint")) != nullptr) {
      args.checkpoint = v;
    } else if ((v = OptValue(argc, argv, &i, "--deadline")) != nullptr) {
      args.deadline_ns = std::atoll(v);
    } else if ((v = OptValue(argc, argv, &i, "--move-budget")) != nullptr) {
      args.move_budget = std::strtoull(v, nullptr, 10);
    } else if ((v = OptValue(argc, argv, &i, "--failures")) != nullptr) {
      args.failures = v;
    } else if ((v = OptValue(argc, argv, &i, "--plan")) != nullptr) {
      args.plan = v;
    } else if ((v = OptValue(argc, argv, &i, "--fault-seed")) != nullptr) {
      args.fault_seed = std::strtoull(v, nullptr, 10);
    } else if ((v = OptValue(argc, argv, &i, "--only")) != nullptr) {
      args.only = v;
    } else if ((v = OptValue(argc, argv, &i, "--live-out")) != nullptr) {
      args.live_out = v;
    } else if ((v = OptValue(argc, argv, &i, "--sample-interval")) != nullptr) {
      args.sample_interval_ns = std::atoll(v);
    } else if (OptFlag(argv[i], "--resume")) {
      args.resume = true;
    } else if (OptFlag(argv[i], "--isolate")) {
      args.isolate = true;
    } else if (OptFlag(argv[i], "--no-host")) {
      args.no_host = true;
    } else if (OptFlag(argv[i], "--render")) {
      args.render = true;
    } else if (OptFlag(argv[i], "--list")) {
      args.list = true;
    } else if (OptFlag(argv[i], "--quiet")) {
      args.quiet = true;
    } else if (OptFlag(argv[i], "--help") || OptFlag(argv[i], "-h")) {
      Usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
      Usage();
      return 2;
    }
  }

  if (args.list) {
    ace::TextTable table({"suite", "cells", "description"});
    for (const std::string& name : ace::SuiteNames()) {
      ace::Suite suite = ace::MakeSuite(name);
      table.AddRow({name, std::to_string(suite.cells.size()), suite.description});
    }
    table.Print();
    return 0;
  }

  if (args.suite.empty() || !ace::IsKnownSuite(args.suite)) {
    std::fprintf(stderr, args.suite.empty() ? "--suite is required\n"
                                            : "unknown suite '%s'\n",
                 args.suite.c_str());
    Usage();
    return 2;
  }

  if (args.resume && args.checkpoint.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint DIR\n");
    return 2;
  }

  if (!args.live_out.empty() && args.isolate) {
    // A forked cell would write its segments through a duplicated FILE*, tearing the
    // parent's stream mid-record. Telemetry for isolated runs belongs to ace_soak,
    // which gives each forked child its own append-mode segment.
    std::fprintf(stderr, "--live-out is incompatible with --isolate\n");
    return 2;
  }
  if (!args.live_out.empty() && args.sample_interval_ns <= 0) {
    std::fprintf(stderr, "--sample-interval must be > 0\n");
    return 2;
  }

  ace::Suite suite = ace::MakeSuite(args.suite, args.threads, args.scale);
  if (!args.plan.empty()) {
    ace::FaultPlan parsed;
    std::string error;
    if (!ace::FaultPlan::Parse(args.plan, &parsed, &error)) {
      std::fprintf(stderr, "invalid --plan: %s\n", error.c_str());
      return 2;
    }
    // The plan appends to whatever plan a cell already carries (the chaos suites'
    // own events), keeping one plan string per cell for keys and replay lines.
    for (ace::SweepCell& cell : suite.cells) {
      cell.fault_plan = cell.fault_plan.empty() ? args.plan
                                                : cell.fault_plan + ";" + args.plan;
      if (args.fault_seed != 0) {
        cell.fault_seed = args.fault_seed;
      }
    }
  }
  if (!args.only.empty()) {
    std::vector<ace::SweepCell> kept;
    for (const ace::SweepCell& cell : suite.cells) {
      if (cell.Key().find(args.only) != std::string::npos) {
        kept.push_back(cell);
      }
    }
    if (kept.empty()) {
      std::fprintf(stderr, "--only '%s' matches no cell of suite %s\n",
                   args.only.c_str(), suite.name.c_str());
      return 2;
    }
    suite.cells = std::move(kept);
  }

  ace::SweepOptions options;
  options.workers = args.workers;
  ace::LiveStreamWriter live_writer;
  std::unique_ptr<ace::LiveSampler> sampler;
  if (!args.live_out.empty()) {
    if (args.workers > 1) {
      std::fprintf(stderr,
                   "note: --live-out streams one cell at a time; running on 1 worker\n");
    }
    if (!live_writer.Open(args.live_out, /*append=*/false)) {
      std::fprintf(stderr, "ERROR: cannot open %s for writing\n", args.live_out.c_str());
      return 2;
    }
    ace::LiveSampler::Options so;
    so.interval_ns = args.sample_interval_ns;
    so.tool = "ace_bench";
    sampler = std::make_unique<ace::LiveSampler>(so, &live_writer);
    options.sampler = sampler.get();
  }
  options.resilience.watchdog.deadline_ns = args.deadline_ns;
  options.resilience.watchdog.move_budget = args.move_budget;
  options.resilience.isolate = args.isolate;

  ace::SweepCheckpoint checkpoint;
  std::map<std::string, ace::CellResult> resumed;
  if (!args.checkpoint.empty()) {
    std::string error;
    if (!checkpoint.Open(args.checkpoint, suite.name, options.base_config, &error)) {
      std::fprintf(stderr, "ERROR: %s\n", error.c_str());
      return 2;
    }
    if (args.resume) {
      // Fail closed: a corrupt fragment is a hard error, not a silent re-run.
      if (!checkpoint.LoadCompleted(&resumed, &error)) {
        std::fprintf(stderr, "ERROR: resume failed: %s\n", error.c_str());
        return 2;
      }
      std::fprintf(stderr, "resume: %zu completed cell(s) loaded from %s\n",
                   resumed.size(), args.checkpoint.c_str());
      options.resumed = &resumed;
    }
  }

  ProgressCtx progress_ctx;
  progress_ctx.quiet = args.quiet;
  if (!args.checkpoint.empty()) {
    progress_ctx.checkpoint = &checkpoint;
  }
  if (!args.quiet || progress_ctx.checkpoint != nullptr) {
    options.progress = Progress;
    options.progress_ctx = &progress_ctx;
  }

  std::fprintf(stderr, "suite %s: %zu cells on %s workers\n", suite.name.c_str(),
               suite.cells.size(),
               args.workers > 0 ? std::to_string(args.workers).c_str() : "auto");
  ace::SweepResult result = ace::RunSweep(suite.name, suite.cells, options);

  std::printf("suite %s: %zu cells, %d workers, %.2fs wall (%.2f runs/sec, %.1fs simulated)\n",
              result.suite.c_str(), result.cells.size(), result.host.workers,
              result.host.wall_seconds, result.host.runs_per_second,
              result.host.simulated_seconds);

  if (sampler != nullptr) {
    live_writer.Close();
    if (!live_writer.ok()) {
      std::fprintf(stderr, "ERROR: live feed %s hit a write error\n",
                   args.live_out.c_str());
      return 2;
    }
    std::printf("live feed: %s (%llu segments, %llu samples, every %lld ns)\n",
                args.live_out.c_str(), (unsigned long long)sampler->segments(),
                (unsigned long long)sampler->total_samples(),
                (long long)args.sample_interval_ns);
  }

  if (args.render) {
    std::fputs(ace::RenderViews(result).c_str(), stdout);
  }

  if (!args.out.empty()) {
    std::string error;
    if (!ace::WriteSweepJsonFile(result, args.out, &error, !args.no_host)) {
      std::fprintf(stderr, "ERROR writing %s: %s\n", args.out.c_str(), error.c_str());
      return 2;
    }
    std::printf("wrote %s\n", args.out.c_str());
  }

  if (!args.failures.empty()) {
    // Fill the replay column: the invocation re-running exactly that one cell.
    for (ace::CellFailure& failure : result.failures) {
      std::string replay = "ace_bench --suite " + args.suite;
      if (args.threads > 0) {
        replay += " --threads " + std::to_string(args.threads);
      }
      if (args.scale > 0.0) {
        replay += " --scale " + std::to_string(args.scale);
      }
      if (!args.plan.empty()) {
        replay += " --plan '" + args.plan + "'";
        if (args.fault_seed != 0) {
          replay += " --fault-seed " + std::to_string(args.fault_seed);
        }
      }
      if (args.deadline_ns > 0) {
        replay += " --deadline " + std::to_string(args.deadline_ns);
      }
      if (args.move_budget > 0) {
        replay += " --move-budget " + std::to_string(args.move_budget);
      }
      if (args.isolate) {
        replay += " --isolate";
      }
      replay += " --only '" + failure.key + "'";
      failure.replay = std::move(replay);
    }
    std::string error;
    if (!ace::WriteFailuresJson(args.suite, result.failures, args.failures, &error)) {
      std::fprintf(stderr, "ERROR writing %s: %s\n", args.failures.c_str(), error.c_str());
      return 2;
    }
    std::printf("wrote %s (%zu quarantined)\n", args.failures.c_str(),
                result.failures.size());
  }

  if (!result.failures.empty()) {
    std::fprintf(stderr, "\n%zu cell(s) quarantined:\n", result.failures.size());
    for (const ace::CellFailure& failure : result.failures) {
      std::fprintf(stderr, "  %s: %s\n", failure.key.c_str(), failure.kind.c_str());
    }
  }

  int exit_code = 0;
  if (!args.baseline.empty()) {
    ace::BaselineComparison cmp = ace::CompareAgainstBaselineFile(result, args.baseline);
    std::printf("\nbaseline %s:\n%s", args.baseline.c_str(),
                ace::RenderComparison(cmp).c_str());
    if (cmp.HasRegression()) {
      std::printf("RESULT: REGRESSION\n");
      exit_code = 1;
    } else {
      std::printf("RESULT: ok\n");
    }
  }

  // Verification failures (a run that completed but computed the wrong answer) are
  // always fatal; quarantined deaths are not — that is the whole point of quarantine
  // (and the baseline comparison above already flags the coverage loss as missing
  // cells).
  bool verify_failed = false;
  for (const ace::CellResult& cell : result.cells) {
    if (!cell.ok && !cell.died()) {
      std::fprintf(stderr, "verification FAILED: %s: %s\n", cell.cell.Key().c_str(),
                   cell.detail.c_str());
      verify_failed = true;
    }
  }
  if (verify_failed) {
    return 3;
  }
  return exit_code;
}
