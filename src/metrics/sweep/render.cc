#include "src/metrics/sweep/render.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "src/metrics/sweep/cell.h"
#include "src/metrics/table.h"

namespace ace {

namespace {

struct PaperRow3 {
  const char* alpha;
  const char* beta;
  const char* gamma;
};

// Table 3 of the paper, verbatim (model-parameter columns).
const std::map<std::string, PaperRow3> kPaperTable3 = {
    {"ParMult", {"na", ".00", "1.00"}}, {"Gfetch", {"0", "1.0", "2.27"}},
    {"IMatMult", {".94", ".26", "1.01"}}, {"Primes1", {"1.0", ".06", "1.00"}},
    {"Primes2", {".99", ".16", "1.00"}},  {"Primes3", {".17", ".36", "1.30"}},
    {"FFT", {".96", ".56", "1.02"}},      {"PlyTrace", {".96", ".50", "1.02"}},
};

// Table 4 of the paper, verbatim (dS/Tnuma column, 7-processor runs).
const std::map<std::string, const char*> kPaperTable4Ratio = {
    {"IMatMult", "4.0%"}, {"Primes1", "0%"},   {"Primes2", "0.4%"},
    {"Primes3", "24.9%"}, {"FFT", "2.5%"},
};

const std::vector<std::string> kTable4Apps = {"IMatMult", "Primes1", "Primes2", "Primes3",
                                              "FFT"};

std::string ThresholdLabel(int threshold) {
  return threshold == kInfMoveThreshold ? std::string("inf") : std::to_string(threshold);
}

// Full-experiment cells at the machine-default G/L ratio and default threshold, one
// per app, in first-seen order — the Table 3/4 view of a result set.
std::vector<const CellResult*> DefaultExperimentCells(const SweepResult& result) {
  std::vector<const CellResult*> cells;
  std::set<std::string> seen;
  for (const CellResult& cell : result.cells) {
    if (cell.cell.mode != CellMode::kFullExperiment || cell.cell.gl_ratio != 0.0 ||
        cell.cell.move_threshold != 4) {
      continue;
    }
    if (seen.insert(cell.cell.app).second) {
      cells.push_back(&cell);
    }
  }
  return cells;
}

std::string FmtMetric(const CellResult& cell, const char* name, const char* fmt) {
  double v = cell.MetricOr(name, std::nan(""));
  return std::isfinite(v) ? Fmt(fmt, v) : std::string("na");
}

}  // namespace

std::string RenderTable3(const SweepResult& result) {
  std::vector<const CellResult*> cells = DefaultExperimentCells(result);
  if (cells.empty()) {
    return "";
  }
  TextTable table({"Application", "Tglobal", "Tnuma", "Tlocal", "alpha", "beta", "gamma",
                   "alpha(ref)", "| paper:", "alpha", "beta", "gamma", "verified"});
  for (const CellResult* cell : cells) {
    auto paper = kPaperTable3.find(cell->cell.app);
    table.AddRow({
        cell->cell.app,
        FmtMetric(*cell, "t_global", "%.3f"),
        FmtMetric(*cell, "t_numa", "%.3f"),
        FmtMetric(*cell, "t_local", "%.3f"),
        FmtMetric(*cell, "alpha", "%.2f"),
        FmtMetric(*cell, "beta", "%.2f"),
        FmtMetric(*cell, "gamma", "%.2f"),
        FmtMetric(*cell, "measured_alpha", "%.2f"),
        "|",
        paper != kPaperTable3.end() ? paper->second.alpha : "-",
        paper != kPaperTable3.end() ? paper->second.beta : "-",
        paper != kPaperTable3.end() ? paper->second.gamma : "-",
        cell->ok ? "ok" : "FAILED",
    });
  }
  return table.ToString();
}

std::string RenderTable4(const SweepResult& result) {
  std::map<std::string, const CellResult*> by_app;
  for (const CellResult* cell : DefaultExperimentCells(result)) {
    by_app[cell->cell.app] = cell;
  }
  TextTable table({"Application", "Snuma", "Sglobal", "dS", "Tnuma", "dS/Tnuma",
                   "| paper dS/Tnuma", "verified"});
  int rows = 0;
  for (const std::string& app : kTable4Apps) {
    auto it = by_app.find(app);
    if (it == by_app.end()) {
      continue;
    }
    const CellResult& cell = *it->second;
    double s_numa = cell.MetricOr("s_numa", 0.0);
    double s_global = cell.MetricOr("s_global", 0.0);
    double t_numa = cell.MetricOr("t_numa", 0.0);
    double delta_s = s_numa - s_global;
    double ratio = (delta_s > 0 && t_numa > 0) ? delta_s / t_numa : 0.0;
    table.AddRow({
        app,
        Fmt("%.3f", s_numa),
        Fmt("%.3f", s_global),
        Fmt("%.3f", delta_s),
        Fmt("%.3f", t_numa),
        Fmt("%.1f%%", 100.0 * ratio),
        kPaperTable4Ratio.at(app),
        cell.ok ? "ok" : "FAILED",
    });
    rows++;
  }
  if (rows == 0) {
    return "";
  }
  return table.ToString();
}

std::string RenderThresholdTable(const SweepResult& result) {
  // (threshold -> app -> cell), preserving first-seen orders for rows and columns.
  std::vector<int> thresholds;
  std::vector<std::string> apps;
  std::map<int, std::map<std::string, const CellResult*>> grid;
  for (const CellResult& cell : result.cells) {
    if (cell.cell.mode != CellMode::kNumaOnly) {
      continue;
    }
    int mt = cell.cell.move_threshold;
    if (grid.find(mt) == grid.end()) {
      thresholds.push_back(mt);
    }
    if (grid[mt].emplace(cell.cell.app, &cell).second) {
      bool known = false;
      for (const std::string& app : apps) {
        known = known || app == cell.cell.app;
      }
      if (!known) {
        apps.push_back(cell.cell.app);
      }
    }
  }
  if (thresholds.empty()) {
    return "";
  }

  std::vector<std::string> headers = {"threshold"};
  headers.insert(headers.end(), apps.begin(), apps.end());
  TextTable table(headers);
  for (int mt : thresholds) {
    std::vector<std::string> row = {ThresholdLabel(mt)};
    for (const std::string& app : apps) {
      auto it = grid[mt].find(app);
      if (it == grid[mt].end()) {
        row.push_back("-");
        continue;
      }
      const CellResult& cell = *it->second;
      row.push_back(FmtMetric(cell, "t_numa", "%.3f") + " (" +
                    Fmt("%.0f", cell.MetricOr("pages_pinned", 0.0)) + ")" +
                    (cell.ok ? "" : " FAILED"));
    }
    table.AddRow(row);
  }
  return table.ToString();
}

std::string RenderGlTable(const SweepResult& result) {
  std::vector<double> ratios;
  std::vector<std::string> apps;
  std::map<double, std::map<std::string, const CellResult*>> grid;
  for (const CellResult& cell : result.cells) {
    if (cell.cell.mode != CellMode::kFullExperiment || cell.cell.gl_ratio <= 0.0) {
      continue;
    }
    double ratio = cell.cell.gl_ratio;
    if (grid.find(ratio) == grid.end()) {
      ratios.push_back(ratio);
    }
    if (grid[ratio].emplace(cell.cell.app, &cell).second) {
      bool known = false;
      for (const std::string& app : apps) {
        known = known || app == cell.cell.app;
      }
      if (!known) {
        apps.push_back(cell.cell.app);
      }
    }
  }
  if (ratios.empty()) {
    return "";
  }

  std::vector<std::string> headers = {"G/L ratio"};
  headers.insert(headers.end(), apps.begin(), apps.end());
  TextTable table(headers);
  for (double ratio : ratios) {
    std::vector<std::string> row = {Fmt("%.1f", ratio)};
    for (const std::string& app : apps) {
      auto it = grid[ratio].find(app);
      if (it == grid[ratio].end()) {
        row.push_back("-");
        continue;
      }
      const CellResult& cell = *it->second;
      row.push_back(FmtMetric(cell, "gamma", "%.2f") + (cell.ok ? "" : " FAILED"));
    }
    table.AddRow(row);
  }
  return table.ToString();
}

std::string RenderServingTable(const SweepResult& result) {
  TextTable table({"tenants", "skew", "churn", "mt", "requests", "p50(ms)", "p95(ms)",
                   "p99(ms)", "| all-global:", "p50(ms)", "p99(ms)", "verified"});
  int rows = 0;
  for (const CellResult& cell : result.cells) {
    if (cell.cell.mode != CellMode::kServing) {
      continue;
    }
    table.AddRow({
        std::to_string(cell.cell.tenants),
        Fmt("%.1f", cell.cell.zipf_skew),
        std::to_string(cell.cell.churn),
        ThresholdLabel(cell.cell.move_threshold),
        FmtMetric(cell, "requests", "%.0f"),
        FmtMetric(cell, "lat_p50_ms", "%.3f"),
        FmtMetric(cell, "lat_p95_ms", "%.3f"),
        FmtMetric(cell, "lat_p99_ms", "%.3f"),
        "|",
        FmtMetric(cell, "g_lat_p50_ms", "%.3f"),
        FmtMetric(cell, "g_lat_p99_ms", "%.3f"),
        cell.ok ? "ok" : "FAILED",
    });
    rows++;
  }
  if (rows == 0) {
    return "";
  }
  return table.ToString();
}

std::string RenderViews(const SweepResult& result) {
  std::string out;
  auto add = [&out](const char* heading, const std::string& preamble,
                    const std::string& table, const char* caption) {
    if (table.empty()) {
      return;
    }
    out += std::string("\n-- ") + heading + " --\n" + preamble + table + "\n" + caption;
  };

  std::string table3 = RenderTable3(result);
  std::string machine;
  if (!table3.empty()) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "machine: %d processors, page size %u, G/L fetch ratio %.2f, "
                  "pin threshold 4\n",
                  DefaultExperimentCells(result).front()->cell.threads,
                  result.base_config.page_size, result.base_config.latency.FetchRatio());
    machine = line;
  }
  add("Table 3 view: measured user times and model parameters", machine, table3,
      "alpha/beta/gamma: derived from times via eqs. 4/5/1; alpha(ref) is the directly\n"
      "counted local fraction of data references under the NUMA policy (validation).\n");
  add("Table 4 view: system-time overhead", "", RenderTable4(result),
      "The reproduced claim: page-movement overhead is a few percent or less for every\n"
      "application except Primes3, whose rapidly-allocated, soon-pinned sieve pays the\n"
      "highest relative system-time cost (paper: 24.9%).\n");
  add("threshold view: Tnuma seconds (pages pinned) per move threshold", "",
      RenderThresholdTable(result),
      "threshold 0 = all data global (the Tglobal baseline); inf = never pin (pure\n"
      "migration/replication, thrashes on writably-shared pages). The paper's default\n"
      "of 4 sits at or near the minimum user time for the full mix.\n");
  add("G/L view: gamma = Tnuma/Tlocal per G/L latency ratio", "", RenderGlTable(result),
      "well-placed applications (IMatMult, Primes2) keep gamma ~ 1 at every ratio;\n"
      "sharing-bound ones (Primes3, Gfetch by construction) degrade with the ratio —\n"
      "the penalty automatic placement cannot remove grows with NUMA-ness.\n");
  add("serving view: request latency, move-limit policy vs. all-global", "",
      RenderServingTable(result),
      "Each row runs the same request stream twice: under the cell's move threshold\n"
      "(mt) and with every page global.\n");
  return out.empty() ? "\n(no cells in this result match a paper-table view)\n" : out;
}

}  // namespace ace
