#include "layerbench/passes.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <type_traits>

namespace layerbench {
namespace {

// The outcome comparison covers every counter field by comparing the structs' bytes,
// so a counter added later is compared without touching this file. That is only
// sound while the structs hold plain integers and no padding.
static_assert(std::has_unique_object_representations_v<ace::MachineStats>);
static_assert(std::has_unique_object_representations_v<ace::TlbStats>);

constexpr WorkloadSpec kWorkloads[] = {
    // Dispatch and the TLB-hit path: 6.0M references, 99.6% local, run length 1.
    // n = 144 rather than 288: the reference mix is the same, and a 0.4 s pass gives
    // the fastest-pass estimate dozens of samples per run instead of five.
    {"imatmult", "IMatMult", 2.0, 4, false},
    // All-shared read stream over pinned global pages: long same-page runs, the
    // heaviest fault/copy/move load, and a working set that overflows the TLB.
    {"gfetch", "Gfetch", 64.0, 4, false},
    // Open-loop multi-tenant KV store, threshold 1 as in the `serving` suite.
    {"serving", "Serving", 4.0, 1, true},
};

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

ace::Machine::Options MachineOptionsFor(const WorkloadSpec& spec) {
  ace::Machine::Options options;
  options.config.num_processors = 7;
  options.config.page_size = 4096;
  options.config.global_pages = 4096;
  options.policy = ace::PolicySpec::MoveLimit(spec.move_threshold);
  options.enable_tlb = true;
  options.tlb_verify = 0;
  return options;
}

ace::AppConfig AppConfigFor(const WorkloadSpec& spec, std::uint64_t serving_seed) {
  ace::AppConfig config;
  config.num_threads = 7;
  config.scale = spec.scale;
  config.serving.seed = serving_seed;
  return config;
}

double PassOutcome::AppMetric(const std::string& key) const {
  for (const auto& [name, value] : result.metrics) {
    if (name == key) {
      return value;
    }
  }
  return 0;
}

ace::TimeNs PassOutcome::MakespanNs() const {
  return proc_now.empty() ? 0 : *std::max_element(proc_now.begin(), proc_now.end());
}

PassOutcome RunPass(const WorkloadSpec& spec, const ace::AppConfig& config,
                    SwitchCounter* counter, SpanLog* spans) {
  PassOutcome out;
  const std::int64_t t0 = NowNs();
  auto machine = std::make_unique<ace::Machine>(MachineOptionsFor(spec));
  std::unique_ptr<ace::App> app = ace::CreateAppByName(spec.app);
  const std::int64_t t1 = NowNs();
  ACE_CHECK(app != nullptr);
  if (counter != nullptr) {
    machine->SetRefObserver(&SwitchCounter::Observe, counter);
  }

  const std::int64_t t2 = NowNs();
  out.result = app->Run(*machine, config);
  const std::int64_t t3 = NowNs();

  out.setup_s = static_cast<double>(t1 - t0) * 1e-9;
  out.wall_s = static_cast<double>(t3 - t2) * 1e-9;
  out.stats = machine->stats();
  out.tlb = machine->tlb_stats();
  const ace::ProcClocks& clocks = machine->clocks();
  for (int p = 0; p < clocks.num_processors(); ++p) {
    out.proc_now.push_back(clocks.now(static_cast<ace::ProcId>(p)));
  }
  out.total_user_ns = clocks.TotalUser();
  out.total_system_ns = clocks.TotalSystem();
  if (spans != nullptr) {
    spans->Add("setup", t0, t1);
    spans->Add(counter != nullptr ? "pass.observed" : "pass", t2, t3);
  }
  return out;
}

std::string SimulationDiff(const PassOutcome& a, const PassOutcome& b, bool with_tlb) {
  if (!b.result.ok) {
    return "the app's self-verification failed: " + b.result.detail;
  }
  if (a.result.ok != b.result.ok || a.result.work_units != b.result.work_units ||
      a.result.detail != b.result.detail) {
    return "AppResult differs: '" + a.result.detail + "' vs '" + b.result.detail + "'";
  }
  if (a.result.metrics != b.result.metrics) {
    return "AppResult metrics differ";
  }
  if (std::memcmp(&a.stats, &b.stats, sizeof(a.stats)) != 0) {
    return "MachineStats differ";
  }
  if (with_tlb && std::memcmp(&a.tlb, &b.tlb, sizeof(a.tlb)) != 0) {
    return "tlb_stats() differ";
  }
  if (a.proc_now != b.proc_now || a.total_user_ns != b.total_user_ns ||
      a.total_system_ns != b.total_system_ns) {
    return "virtual clocks differ";
  }
  return "";
}

}  // namespace layerbench
