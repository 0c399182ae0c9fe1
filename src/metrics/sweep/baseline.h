// Baseline comparison: the perf-regression gate.
//
// A baseline file is a BENCH_<suite>.json (report.h schema) with two extra members:
//
//   "default_tolerance": <rel>            -- used for metrics not listed below
//   "tolerances": { "<metric>": <rel> }   -- per-metric relative tolerance; 0 = exact
//   "tolerance_notes": { ... }            -- free-form justification strings, carried
//                                            as data since JSON has no comments
//
// The comparator walks the *baseline's* cells and metrics: a cell or metric that
// disappeared from the new results is a regression (coverage must not silently
// shrink); new cells/metrics in the results are reported but pass (adding coverage is
// fine). A metric passes when |new - base| <= tol * max(|base|, 1e-9), or when both
// sides are null/NaN (matching undefinedness, e.g. alpha for an app with no data
// references). A NaN on one side only is a regression.
//
// Every gated metric is a simulated quantity — a virtual time or a counter, the
// host's dispatches included — so it is deterministic for a given source tree;
// nonzero tolerances exist to absorb deliberate small calibration drift and
// cross-compiler floating-point differences (FMA contraction), not host noise. Host
// time is not gated here: layerbench (BENCHMARK.json) measures it.

#ifndef SRC_METRICS_SWEEP_BASELINE_H_
#define SRC_METRICS_SWEEP_BASELINE_H_

#include <string>
#include <vector>

#include "src/metrics/sweep/runner.h"

namespace ace {

struct BaselineIssue {
  std::string cell;    // cell key
  std::string metric;  // empty for cell-level issues
  std::string detail;
  bool is_regression = false;
};

struct BaselineComparison {
  bool loaded = false;       // baseline parsed and schema-valid
  std::string load_error;
  std::vector<BaselineIssue> issues;
  int cells_compared = 0;
  int metrics_compared = 0;
  int new_cells = 0;         // in the results but not the baseline (informational)

  bool HasRegression() const {
    for (const BaselineIssue& issue : issues) {
      if (issue.is_regression) {
        return true;
      }
    }
    return !loaded;
  }
};

// Compare `result` against the baseline JSON text (not a path, so tests can compare
// in-memory documents). Returns loaded=false with load_error set when the baseline
// does not parse or violates the schema.
BaselineComparison CompareAgainstBaseline(const SweepResult& result,
                                          std::string_view baseline_json);

// Convenience: read `path` and compare. Missing/unreadable file => loaded=false.
BaselineComparison CompareAgainstBaselineFile(const SweepResult& result,
                                              const std::string& path);

// Render the comparison as a human-readable report (one line per issue + summary).
std::string RenderComparison(const BaselineComparison& comparison);

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_BASELINE_H_
