// The paper's section 3.1 and 4 claims, asserted on the `ablations` suite's cells (the
// same cells `ace_bench --suite ablations --render` shows and
// bench/baselines/BENCH_ablations.json gates exactly). The baseline pins every number;
// these tests pin what the numbers mean, with bounds taken from the measured values
// (quoted in each test) and never chosen to make a failing cell pass. Each test runs
// only the suite cells its claim reads, so the tests can run in parallel.

#include <cmath>
#include <functional>
#include <map>
#include <string>

#include <gtest/gtest.h>

#include "src/metrics/sweep/matrix.h"
#include "src/metrics/sweep/runner.h"

namespace ace {
namespace {

class Cells {
 public:
  // Runs the ablations suite's cells that `wanted` selects.
  explicit Cells(const std::function<bool(const SweepCell&)>& wanted) {
    std::vector<SweepCell> cells;
    for (const SweepCell& cell : MakeSuite("ablations").cells) {
      if (wanted(cell)) {
        cells.push_back(cell);
      }
    }
    SweepOptions options;
    options.workers = 2;
    for (CellResult& result : RunSweep("ablations", cells, options).cells) {
      EXPECT_TRUE(result.ok) << result.cell.Key() << ": " << result.detail;
      std::string key = result.cell.Key();
      results_.emplace(std::move(key), std::move(result));
    }
  }

  double operator()(const std::string& key, const char* metric) const {
    auto it = results_.find(key);
    if (it == results_.end()) {
      ADD_FAILURE() << "no ablations cell " << key;
      return std::nan("");
    }
    double value = it->second.MetricOr(metric, std::nan(""));
    EXPECT_FALSE(std::isnan(value)) << key << " has no metric " << metric;
    return value;
  }

 private:
  std::map<std::string, CellResult> results_;
};

bool IsApp(const SweepCell& cell, std::initializer_list<const char*> apps) {
  for (const char* app : apps) {
    if (cell.app == app) {
      return true;
    }
  }
  return false;
}

const char* const kSuiteApps[] = {"IMatMult", "Primes2", "Primes3", "FFT", "PlyTrace"};

std::string NumaKey(const std::string& app, const std::string& axes = "") {
  return app + "/t7/s1/mt4/gl0" + axes + "/numa-only";
}

// Section 4.2: Primes2's alpha(ref) .64 -> .97 with private divisor copies, and
// page-padded PlyTrace tiles pin 2 pages instead of 17.
TEST(Ablations, FalseSharingFixesRaiseLocality) {
  Cells c([](const SweepCell& cell) {
    return cell.mode == CellMode::kFullExperiment && cell.scale == 1.0 &&
           IsApp(cell, {"Primes2", "PlyTrace"});
  });
  EXPECT_LT(c("Primes2/t7/s1/mt4/gl0/v1", "measured_alpha"), 0.70);
  EXPECT_GT(c("Primes2/t7/s1/mt4/gl0", "measured_alpha"), 0.95);
  EXPECT_GE(c("PlyTrace/t7/s1/mt4/gl0", "pages_pinned"), 10);
  EXPECT_LE(c("PlyTrace/t7/s1/mt4/gl0/v1", "pages_pinned"), 3);
}

// Section 4.7: without affinity every app is slower (1.06-1.41x) and its locality
// collapses (alpha(ref) .00-.05, against .94-1.00 with affinity).
TEST(Ablations, MigratingSchedulerCollapsesLocality) {
  Cells c([](const SweepCell& cell) {
    return cell.mode == CellMode::kNumaOnly &&
           cell.policy.kind == PolicySpec::Kind::kMoveLimit &&
           IsApp(cell, {"Primes1", "Primes2", "IMatMult", "PlyTrace"});
  });
  for (const char* app : {"Primes1", "Primes2", "IMatMult", "PlyTrace"}) {
    SCOPED_TRACE(app);
    EXPECT_GE(c(NumaKey(app, "/migrating"), "t_numa") / c(NumaKey(app), "t_numa"), 1.05);
    EXPECT_LE(c(NumaKey(app, "/migrating"), "measured_alpha"), 0.05);
    EXPECT_GE(c(NumaKey(app), "measured_alpha"), 0.94);
  }
}

// Section 4.3: reconsidering pins wins 1.44x on the phase-change workload, unpinning
// each of its 14 setup pages, and changes the suite's Tnuma by at most 0.03%.
TEST(Ablations, ReconsiderPaysOnlyForPhaseChange) {
  Cells c([](const SweepCell& cell) {
    return cell.mode == CellMode::kNumaOnly && cell.scheduler == SchedulerKind::kAffinity &&
           (cell.policy.kind == PolicySpec::Kind::kMoveLimit ||
            cell.policy.kind == PolicySpec::Kind::kReconsider) &&
           IsApp(cell, {"PhaseChange", "IMatMult", "Primes2", "Primes3", "FFT", "PlyTrace"});
  });
  const std::string reconsider = "/reconsider20ms";
  EXPECT_GE(c(NumaKey("PhaseChange"), "t_numa") /
                c(NumaKey("PhaseChange", reconsider), "t_numa"),
            1.3);
  EXPECT_GE(c(NumaKey("PhaseChange", reconsider), "unpin_events"), 14);
  for (const char* app : kSuiteApps) {
    SCOPED_TRACE(app);
    double ratio = c(NumaKey(app), "t_numa") / c(NumaKey(app, reconsider), "t_numa");
    EXPECT_NEAR(ratio, 1.0, 0.005);
  }
}

// Section 4.4: homing the page remotely loses while at most 40% of its references
// come from the home and wins from 60% up; on the suite it is never faster
// (1.00-1.12x the move-limit Tnuma).
TEST(Ablations, RemoteHomingPaysOnlyForLopsidedPages) {
  Cells c([](const SweepCell& cell) {
    return cell.mode == CellMode::kNumaOnly && cell.scheduler == SchedulerKind::kAffinity &&
           cell.policy.kind != PolicySpec::Kind::kReconsider &&
           IsApp(cell, {"RemoteMix", "IMatMult", "Primes2", "Primes3", "FFT", "PlyTrace"});
  });
  for (int heavy : {10, 25, 40, 50, 60, 70, 80, 90, 99}) {
    SCOPED_TRACE(heavy);
    std::string v = "/v" + std::to_string(heavy);
    double pin = c("RemoteMix/t2/s1/mt4/gl0" + v + "/numa-only", "t_numa");
    double home = c("RemoteMix/t2/s1/mt4/gl0/remote-home" + v + "/numa-only", "t_numa");
    if (heavy <= 40) {
      EXPECT_GT(home, pin);
    } else if (heavy >= 60) {
      EXPECT_LT(home, pin);
    }
  }
  for (const char* app : kSuiteApps) {
    SCOPED_TRACE(app);
    double ratio = c(NumaKey(app, "/remote-home"), "t_numa") / c(NumaKey(app), "t_numa");
    EXPECT_GE(ratio, 1.0);
    EXPECT_LE(ratio, 1.15);
  }
}

// Section 4.6: with the master touching user memory, alpha is .147 at 2, 5 and 10%
// system calls (6 private pages pinned: every worker's but the master's own); the
// ad hoc fix restores 1.000 with no pins.
TEST(Ablations, UnixMasterReferencesPinPrivatePages) {
  Cells c([](const SweepCell& cell) { return cell.app == "UnixMaster"; });
  for (const char* variant : {"/v2", "/v5", "/v10"}) {
    SCOPED_TRACE(variant);
    EXPECT_NEAR(c(NumaKey("UnixMaster", variant), "measured_alpha"), 0.147, 0.005);
    EXPECT_EQ(c(NumaKey("UnixMaster", variant), "pages_pinned"), 6);
  }
  for (const char* variant : {"", "/v110"}) {
    SCOPED_TRACE(variant);
    EXPECT_GE(c(NumaKey("UnixMaster", variant), "measured_alpha"), 0.9995);
    EXPECT_EQ(c(NumaKey("UnixMaster", variant), "pages_pinned"), 0);
  }
}

// Section 4.7: bouncing the job without its pages pins all 24 of them; moving the
// pages with it keeps every reference local and pins nothing.
TEST(Ablations, LoadBalancingMustMovePages) {
  Cells c([](const SweepCell& cell) { return cell.app == "LoadBalance"; });
  const std::string base = "LoadBalance/t2/s1/mt4/gl0";
  EXPECT_EQ(c(base + "/v1/numa-only", "pages_pinned"), 24);
  EXPECT_LT(c(base + "/v1/numa-only", "measured_alpha"), 0.5);
  for (const char* variant : {"", "/v2"}) {
    SCOPED_TRACE(variant);
    EXPECT_GE(c(base + variant + "/numa-only", "measured_alpha"), 0.9995);
    EXPECT_EQ(c(base + variant + "/numa-only", "pages_pinned"), 0);
  }
}

// Page size: PlyTrace's gamma never decreases with the page (1.003 at 512 bytes to
// 1.075 at 16 KB), while Primes1, with no false sharing, stays at 1.000.
TEST(Ablations, FalseSharingGrowsWithPageSize) {
  Cells c([](const SweepCell& cell) { return cell.scale == 0.5; });
  double previous = 0.0;
  for (const char* ps : {"/ps512", "/ps1024", "/ps2048", "", "/ps8192", "/ps16384"}) {
    SCOPED_TRACE(ps);
    double gamma = c(std::string("PlyTrace/t7/s0.5/mt4/gl0") + ps, "gamma");
    EXPECT_GE(gamma, previous);
    previous = gamma;
    EXPECT_NEAR(c(std::string("Primes1/t7/s0.5/mt4/gl0") + ps, "gamma"), 1.0, 0.0005);
  }
  EXPECT_LE(c("PlyTrace/t7/s0.5/mt4/gl0/ps512", "gamma"), 1.01);
  EXPECT_GE(c("PlyTrace/t7/s0.5/mt4/gl0/ps16384", "gamma"), 1.05);
}

// Section 3.1: by user time alone, the paper's measure, the simple policy is within
// the estimate's precision of Toptimal (printed 0.99-1.00) on the six real apps.
TEST(Ablations, UserTimeMatchesToptimal) {
  Cells c([](const SweepCell& cell) { return cell.mode == CellMode::kOptimal; });
  for (const char* app : {"IMatMult", "Primes1", "Primes2", "Primes3", "FFT", "PlyTrace"}) {
    SCOPED_TRACE(app);
    EXPECT_LT(c(std::string(app) + "/t7/s1/mt4/gl0/optimal", "opt_user_ratio"), 1.005);
  }
}

}  // namespace
}  // namespace ace
