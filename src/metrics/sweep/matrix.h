// Matrix enumeration and the named suites.
//
// A SweepMatrix is the cross product of its axes; Enumerate() flattens it in a fixed
// nested-loop order (app outermost, G/L ratio innermost) so every run of the same
// matrix lists cells identically — the ordering the determinism guarantee and the
// baseline files rely on. The named suites reproduce the paper's tables:
//
//   table3     8 apps, 7 threads, full experiment                     (Table 3)
//   table4     the 5 Table 4 apps — a subset of table3's cells        (Table 4)
//   threshold  4 apps x move thresholds {0,1,2,4,8,16,inf}, numa-only (sec. 2.3.2)
//   gl         4 apps x G/L ratios {1.2,1.5,2,3,4}                    (sec. 4.4)
//   smoke      reduced-scale sample of all of the above, CI-sized
//   full       union of table3 + threshold + gl, deduplicated by key
//   ablations  the cells of the section 3.1 and 4 ablation views (render.h)

#ifndef SRC_METRICS_SWEEP_MATRIX_H_
#define SRC_METRICS_SWEEP_MATRIX_H_

#include <string>
#include <vector>

#include "src/metrics/sweep/cell.h"

namespace ace {

struct SweepMatrix {
  std::vector<std::string> apps;
  std::vector<int> threads = {7};
  std::vector<double> scales = {1.0};
  std::vector<int> move_thresholds = {4};
  std::vector<double> gl_ratios = {0.0};
  CellMode mode = CellMode::kFullExperiment;

  std::vector<SweepCell> Enumerate() const;
};

struct Suite {
  std::string name;
  std::string description;
  std::vector<SweepCell> cells;
};

// Build a named suite. `threads_override`/`scale_override` (when nonzero) replace the
// suite's default thread count / workload scale on every cell (ace_bench --threads /
// --scale).
Suite MakeSuite(const std::string& name, int threads_override = 0,
                double scale_override = 0.0);

bool IsKnownSuite(const std::string& name);
const std::vector<std::string>& SuiteNames();

// Append `extra` to `cells`, skipping cells whose Key() is already present.
void AppendUnique(std::vector<SweepCell>& cells, const std::vector<SweepCell>& extra);

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_MATRIX_H_
