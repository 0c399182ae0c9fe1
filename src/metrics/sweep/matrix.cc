#include "src/metrics/sweep/matrix.h"

#include <cstdio>
#include <set>

#include "src/common/check.h"
#include "src/metrics/sweep/render.h"
#include "src/metrics/table.h"

namespace ace {

namespace {

// The paper's row orders (Table 3; Table 4 is its 5-app subset with system times).
const std::vector<std::string> kAllApps = {"ParMult", "Gfetch",  "IMatMult", "Primes1",
                                           "Primes2", "Primes3", "FFT",      "PlyTrace"};
const std::vector<std::string> kTable4Apps = {"IMatMult", "Primes1", "Primes2", "Primes3",
                                              "FFT"};
const std::vector<std::string> kThresholdApps = {"IMatMult", "Primes3", "FFT", "PlyTrace"};
const std::vector<std::string> kGlApps = {"IMatMult", "Primes2", "Primes3", "Gfetch"};

const std::vector<int> kThresholds = {0, 1, 2, 4, 8, 16, kInfMoveThreshold};
const std::vector<double> kGlRatios = {1.2, 1.5, 2.0, 3.0, 4.0};

// Cells that differed only in threads or scale fold into one under an override.
std::vector<SweepCell> Override(std::vector<SweepCell> cells, int threads_override,
                                double scale_override) {
  for (SweepCell& cell : cells) {
    if (threads_override > 0) {
      cell.threads = threads_override;
    }
    if (scale_override > 0.0) {
      cell.scale = scale_override;
    }
  }
  std::vector<SweepCell> unique;
  AppendUnique(unique, cells);
  return unique;
}

}  // namespace

std::string SweepCell::Key() const {
  std::string key = app;
  key += "/t" + std::to_string(threads);
  key += "/s" + Fmt("%g", scale);
  key += "/mt" + (policy.move_threshold == kInfMoveThreshold
                      ? std::string("inf")
                      : std::to_string(policy.move_threshold));
  key += "/gl" + Fmt("%g", gl_ratio);
  if (policy.kind == PolicySpec::Kind::kReconsider) {
    key += "/reconsider" + Fmt("%g", static_cast<double>(policy.reconsider_after_ns) * 1e-6) +
           "ms";
  } else if (policy.kind != PolicySpec::Kind::kMoveLimit) {
    key += std::string("/") + policy.Name();
  }
  if (variant != 0) {
    key += "/v" + std::to_string(variant);
  }
  if (page_size != 4096) {
    key += "/ps" + std::to_string(page_size);
  }
  if (scheduler == SchedulerKind::kMigrating) {
    key += "/migrating";
  }
  if (mode == CellMode::kNumaOnly) {
    key += "/numa-only";
  } else if (mode == CellMode::kServing) {
    key += "/serving/ten" + std::to_string(tenants);
    key += "/z" + Fmt("%g", zipf_skew);
    key += "/ch" + std::to_string(churn);
  } else if (mode == CellMode::kOptimal) {
    key += "/optimal";
  }
  if (!fault_plan.empty()) {
    key += "/plan=" + fault_plan;
    if (fault_seed != 0) {
      key += "/fs" + std::to_string(fault_seed);
    }
  }
  return key;
}

std::vector<SweepCell> SweepMatrix::Enumerate() const {
  std::vector<SweepCell> cells;
  cells.reserve(apps.size() * threads.size() * scales.size() * move_thresholds.size() *
                gl_ratios.size());
  for (const std::string& app : apps) {
    for (int t : threads) {
      for (double s : scales) {
        for (int mt : move_thresholds) {
          for (double gl : gl_ratios) {
            SweepCell cell;
            cell.app = app;
            cell.threads = t;
            cell.scale = s;
            cell.policy.move_threshold = mt;
            cell.gl_ratio = gl;
            cell.mode = mode;
            cells.push_back(std::move(cell));
          }
        }
      }
    }
  }
  return cells;
}

void AppendUnique(std::vector<SweepCell>& cells, const std::vector<SweepCell>& extra) {
  std::set<std::string> seen;
  for (const SweepCell& cell : cells) {
    seen.insert(cell.Key());
  }
  for (const SweepCell& cell : extra) {
    if (seen.insert(cell.Key()).second) {
      cells.push_back(cell);
    }
  }
}

const std::vector<std::string>& SuiteNames() {
  static const std::vector<std::string> kNames = {"smoke",     "full", "table3",
                                                  "table4",    "threshold", "gl",
                                                  "serving",   "serving-full",
                                                  "serving-chaos", "serving-killnode",
                                                  "ablations"};
  return kNames;
}

namespace {

// Serving cells are built by explicit loops (SweepMatrix has no serving axes): one
// cell per (tenants, skew, churn, move-threshold) point, each scoring the serving
// app under the cell's move-limit policy and the all-global baseline.
SweepCell ServingCell(int threads, double scale, int move_threshold, int tenants,
                      double skew, int churn) {
  SweepCell cell;
  cell.app = "Serving";
  cell.threads = threads;
  cell.scale = scale;
  cell.policy.move_threshold = move_threshold;
  cell.mode = CellMode::kServing;
  cell.tenants = tenants;
  cell.zipf_skew = skew;
  cell.churn = churn;
  return cell;
}

}  // namespace

bool IsKnownSuite(const std::string& name) {
  for (const std::string& known : SuiteNames()) {
    if (known == name) {
      return true;
    }
  }
  return false;
}

Suite MakeSuite(const std::string& name, int threads_override, double scale_override) {
  Suite suite;
  suite.name = name;
  if (name == "table3") {
    suite.description = "Table 3: user times and model parameters, all 8 applications";
    SweepMatrix m;
    m.apps = kAllApps;
    suite.cells = m.Enumerate();
  } else if (name == "table4") {
    suite.description = "Table 4: system-time overhead, 5 applications on 7 processors";
    SweepMatrix m;
    m.apps = kTable4Apps;
    suite.cells = m.Enumerate();
  } else if (name == "threshold") {
    suite.description = "Section 2.3.2: move-limit threshold sweep (numa placement only)";
    SweepMatrix m;
    m.apps = kThresholdApps;
    m.move_thresholds = kThresholds;
    m.mode = CellMode::kNumaOnly;
    suite.cells = m.Enumerate();
  } else if (name == "gl") {
    suite.description = "Section 4.4: G/L latency-ratio sensitivity sweep";
    SweepMatrix m;
    m.apps = kGlApps;
    m.gl_ratios = kGlRatios;
    suite.cells = m.Enumerate();
  } else if (name == "smoke") {
    suite.description =
        "CI-sized sample: all apps at reduced scale plus mini threshold/G-L sweeps";
    SweepMatrix base;
    base.apps = kAllApps;
    base.threads = {4};
    base.scales = {0.25};
    suite.cells = base.Enumerate();
    SweepMatrix threshold;
    threshold.apps = {"IMatMult", "Primes3"};
    threshold.threads = {4};
    threshold.scales = {0.25};
    threshold.move_thresholds = {0, 4, kInfMoveThreshold};
    threshold.mode = CellMode::kNumaOnly;
    AppendUnique(suite.cells, threshold.Enumerate());
    SweepMatrix gl;
    gl.apps = {"Primes3"};
    gl.threads = {4};
    gl.scales = {0.25};
    gl.gl_ratios = {3.0};
    AppendUnique(suite.cells, gl.Enumerate());
  } else if (name == "serving") {
    suite.description =
        "CI-sized serving matrix: tenants x skew under move-limit vs all-global";
    // Move threshold 1 keeps tails tight under churn; the mt4 cell keeps the
    // ping-pong meltdown visible (and gated) at smoke scale.
    for (int tenants : {2, 4}) {
      for (double skew : {0.6, 1.1}) {
        suite.cells.push_back(ServingCell(4, 0.25, 1, tenants, skew, 3));
      }
    }
    suite.cells.push_back(ServingCell(4, 0.25, 4, 4, 1.1, 3));
  } else if (name == "serving-chaos") {
    suite.description =
        "Chaos resilience: serving SLO outcomes under node drain, stall, and slow link";
    // The canonical drain: node 2 hot-removes its local pool mid-run (permille 0)
    // while node 1 stalls for 20 ms. The SLO guard must absorb it with zero
    // timeouts left after retry/shed, and the post-window tail (recovery_p99_ms)
    // must return to the healthy band. The second cell dilates node 1's off-node
    // reference costs 3x, exercising the TLB hit path's off-node cost dilation.
    {
      SweepCell drain = ServingCell(4, 0.25, 1, 4, 0.9, 3);
      drain.fault_plan = "drain-mem@2:30000000:60000000;stall-proc@1:36000000:56000000";
      suite.cells.push_back(drain);
      SweepCell slow = ServingCell(4, 0.25, 1, 4, 0.9, 3);
      slow.fault_plan = "slow-link@1:20000000:80000000:3000";
      suite.cells.push_back(slow);
    }
  } else if (name == "serving-killnode") {
    suite.description =
        "Permanent failure: serving survives a node kill and a silent-corruption scrub";
    // The canonical permanent-failure plan (DESIGN.md section 14): a corruption
    // burst flips bits in every resident frame of node 1 at 2 ms — the checksum
    // scrub must detect and repair each one — then node 2 dies for good at 5 ms,
    // while pages are still locally owned, and everything it held must be
    // reconstructed from its off-node mirror or dirty-page journal. (The move-limit
    // policy pins the hot set global within ~20 ms at this scale, so permanent
    // events land early, where there is actually resident state to lose.) The gate
    // is exact on the recovery counters (lost_pages at 0 is the no-undetected-loss
    // guarantee) and 2% on the virtual-time latency percentiles. The second cell
    // scrubs two surviving nodes back-to-back with no kill, pinning detection and
    // repair accounting independently of the evacuation path.
    {
      SweepCell kill = ServingCell(4, 0.25, 1, 4, 0.9, 3);
      kill.fault_plan = "corrupt-page@1:2000000:4000000:1000;kill-node@2:5000000";
      suite.cells.push_back(kill);
      SweepCell scrub = ServingCell(4, 0.25, 1, 4, 0.9, 3);
      scrub.fault_plan =
          "corrupt-page@0:2000000:4000000:1000;corrupt-page@3:5000000:7000000:1000";
      suite.cells.push_back(scrub);
    }
  } else if (name == "serving-full") {
    suite.description =
        "Nightly serving matrix: tenants x skew x churn x move threshold at full scale";
    for (int tenants : {2, 4, 8}) {
      for (double skew : {0.6, 0.9, 1.2}) {
        for (int churn : {2, 4}) {
          for (int mt : {1, 4}) {
            suite.cells.push_back(ServingCell(7, 1.0, mt, tenants, skew, churn));
          }
        }
      }
    }
  } else if (name == "ablations") {
    suite.description =
        "Sections 3.1 and 4: false sharing, scheduling, reconsider, remote references, "
        "Unix master, load balancing, page size, Toptimal, pragmas, layout advisor";
    // The cells are those the ablation views render (render.h), one source for both.
    suite.cells = AblationCells();
  } else if (name == "full") {
    suite.description = "The full paper matrix: table3 + threshold + gl, deduplicated";
    suite.cells = MakeSuite("table3").cells;
    AppendUnique(suite.cells, MakeSuite("threshold").cells);
    AppendUnique(suite.cells, MakeSuite("gl").cells);
  } else {
    ACE_CHECK_MSG(false, "unknown suite name");
  }
  suite.cells = Override(std::move(suite.cells), threads_override, scale_override);
  return suite;
}

}  // namespace ace
