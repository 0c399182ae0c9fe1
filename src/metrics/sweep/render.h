// Render the paper's tables from sweep results.
//
// `ace_bench --render` draws every human-readable table from the same SweepResult
// its JSON is emitted from, so a table and its BENCH_*.json can never disagree.
// Paper reference values (Tables 3 and 4, verbatim) live here with the renderers.
//
// Each renderer selects the cells it knows how to display (by mode/threshold/ratio)
// and ignores the rest, so they compose over the "full" suite as well as over their
// dedicated suites. A renderer given zero matching cells returns an empty string.

#ifndef SRC_METRICS_SWEEP_RENDER_H_
#define SRC_METRICS_SWEEP_RENDER_H_

#include <string>
#include <vector>

#include "src/metrics/sweep/runner.h"

namespace ace {

// Table 3: Tglobal/Tnuma/Tlocal + alpha/beta/gamma per app, against paper values.
std::string RenderTable3(const SweepResult& result);

// Table 4: system-time overhead (Snuma, Sglobal, dS/Tnuma) against paper values.
std::string RenderTable4(const SweepResult& result);

// Section 2.3.2: Tnuma (pages pinned) per app x move threshold.
std::string RenderThresholdTable(const SweepResult& result);

// Section 4.4: gamma per app x G/L ratio.
std::string RenderGlTable(const SweepResult& result);

// Serving cells: per-cell request latency percentiles under the cell's move-limit
// policy and the all-global baseline, one row per (tenants, skew, churn, threshold).
std::string RenderServingTable(const SweepResult& result);

// Every view above that has cells in `result`, each under a heading and followed by
// the paper claim it reproduces (Table 3 also names the simulated machine), then
// every section 3.1/4 ablation view whose cells are all in `result`; views without
// cells are skipped. Cells an ablation view shows stay out of the views above.
std::string RenderViews(const SweepResult& result);

// The cells of the ablation views (sections 3.1 and 4, one view per section): the
// `ablations` suite (matrix.h). The views and the suite share this one definition.
std::vector<SweepCell> AblationCells();

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_RENDER_H_
