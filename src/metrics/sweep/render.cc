#include "src/metrics/sweep/render.h"

#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "src/metrics/sweep/cell.h"
#include "src/metrics/sweep/matrix.h"
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

// The paper-table views read cells at the default ablation axes only.
bool DefaultAxes(const SweepCell& cell) {
  return cell.policy.kind == PolicySpec::Kind::kMoveLimit && cell.variant == 0 &&
         cell.page_size == 4096 && cell.scheduler == SchedulerKind::kAffinity;
}

// Full-experiment cells at the machine-default G/L ratio and default threshold, one
// per app, in first-seen order — the Table 3/4 view of a result set.
std::vector<const CellResult*> DefaultExperimentCells(const SweepResult& result) {
  std::vector<const CellResult*> cells;
  std::set<std::string> seen;
  for (const CellResult& cell : result.cells) {
    if (cell.cell.mode != CellMode::kFullExperiment || cell.cell.gl_ratio != 0.0 ||
        cell.cell.policy.move_threshold != 4 || !DefaultAxes(cell.cell)) {
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
    if (cell.cell.mode != CellMode::kNumaOnly || !DefaultAxes(cell.cell)) {
      continue;
    }
    int mt = cell.cell.policy.move_threshold;
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
    if (cell.cell.mode != CellMode::kFullExperiment || cell.cell.gl_ratio <= 0.0 ||
        !DefaultAxes(cell.cell)) {
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
        ThresholdLabel(cell.cell.policy.move_threshold),
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

namespace {

// --- the section 3.1 and 4 ablation views --------------------------------------------
//
// Each view is data: tables of rows, where a row names its cells (legs) and each
// column formats one value read from them. The same table defines the `ablations`
// suite's cells (AblationCells), so a view can never ask for a cell the suite lacks.

using Legs = std::vector<const CellResult*>;

struct ViewColumn {
  std::string header;
  std::function<std::string(const Legs&)> text;
};

struct ViewRow {
  std::vector<std::string> labels;
  std::vector<SweepCell> legs;
};

struct ViewTable {
  std::string title;  // printed above the table when non-empty
  std::vector<std::string> label_headers;
  std::vector<ViewRow> rows;
  std::vector<ViewColumn> columns;
};

struct AblationView {
  std::string heading;
  std::string preamble;
  std::vector<ViewTable> tables;
  std::string claim;
};

ViewColumn Metric(std::string header, std::size_t leg, const char* name, const char* fmt) {
  return {std::move(header), [=](const Legs& legs) { return FmtMetric(*legs[leg], name, fmt); }};
}

// metric(leg) / metric(over), as "1.23x".
ViewColumn Ratio(std::string header, std::size_t leg, std::size_t over, const char* name) {
  return {std::move(header), [=](const Legs& legs) {
            return Fmt("%.2fx", legs[leg]->MetricOr(name, std::nan("")) /
                                    legs[over]->MetricOr(name, std::nan("")));
          }};
}

ViewColumn Verified() {
  return {"verified", [](const Legs& legs) {
            for (const CellResult* leg : legs) {
              if (!leg->ok) {
                return std::string("FAILED");
              }
            }
            return std::string("ok");
          }};
}

SweepCell Cell(const char* app, CellMode mode, int variant = 0,
               PolicySpec policy = PolicySpec::MoveLimit(4)) {
  SweepCell cell;
  cell.app = app;
  cell.mode = mode;
  cell.variant = variant;
  cell.policy = policy;
  return cell;
}

std::vector<AblationView> AblationViews(const MachineConfig& machine) {
  const PolicySpec reconsider = PolicySpec::Reconsider(4, 20'000'000);
  const PolicySpec remote_home = PolicySpec::RemoteHome(4);
  const CellMode numa = CellMode::kNumaOnly;
  const std::vector<const char*> suite_apps = {"IMatMult", "Primes2", "Primes3", "FFT",
                                               "PlyTrace"};
  std::vector<AblationView> views;

  {
    ViewTable t;
    t.label_headers = {"Application", "Variant"};
    const CellMode full = CellMode::kFullExperiment;
    t.rows = {{{"Primes2", "shared divisor vector (initial)"}, {Cell("Primes2", full, 1)}},
              {{"Primes2", "private divisor copies (fixed)"}, {Cell("Primes2", full, 0)}},
              {{"PlyTrace", "packed tiles (false sharing)"}, {Cell("PlyTrace", full, 0)}},
              {{"PlyTrace", "page-padded tiles (fixed)"}, {Cell("PlyTrace", full, 1)}}};
    t.columns = {Metric("Tnuma", 0, "t_numa", "%.3f"),
                 Metric("Tlocal", 0, "t_local", "%.3f"),
                 Metric("alpha", 0, "alpha", "%.2f"),
                 Metric("alpha(ref)", 0, "measured_alpha", "%.2f"),
                 Metric("gamma", 0, "gamma", "%.2f"),
                 Metric("pinned", 0, "pages_pinned", "%.0f"),
                 Verified()};
    views.push_back({"section 4.2 view: reducing false sharing", "", {t},
                     "The primes2 divisor fix raises alpha toward 1.00 (paper: 0.66 -> 1.00),\n"
                     "and padding falsely-shared tiles out to page boundaries keeps their pages\n"
                     "local instead of pinned.\n"});
  }
  {
    ViewTable t;
    t.label_headers = {"Application"};
    for (const char* app : {"Primes1", "Primes2", "IMatMult", "PlyTrace"}) {
      SweepCell migrating = Cell(app, numa);
      migrating.scheduler = SchedulerKind::kMigrating;
      t.rows.push_back({{app}, {Cell(app, numa), migrating}});
    }
    t.columns = {Metric("Tnuma affinity", 0, "t_numa", "%.3f"),
                 Metric("Tnuma migrating", 1, "t_numa", "%.3f"),
                 Ratio("slowdown", 1, 0, "t_numa"),
                 Metric("alpha(ref) aff", 0, "measured_alpha", "%.2f"),
                 Metric("alpha(ref) mig", 1, "measured_alpha", "%.2f"),
                 Verified()};
    views.push_back({"section 4.7 view: affinity scheduling vs. a migrating scheduler", "",
                     {t},
                     "Without affinity, private pages acquire many writers as their thread moves,\n"
                     "so they are pinned in global memory and locality collapses: the reason the\n"
                     "paper binds each process to a processor.\n"});
  }
  {
    ViewTable phase;
    phase.title = "phase-change workload (writably shared setup, then per-thread steady state):";
    phase.label_headers = {"Workload"};
    phase.rows = {{{"PhaseChange"},
                   {Cell("PhaseChange", numa), Cell("PhaseChange", numa, 0, reconsider)}}};
    phase.columns = {Metric("move-limit (s)", 0, "t_numa", "%.4f"),
                     Metric("reconsider 20 ms (s)", 1, "t_numa", "%.4f"),
                     Ratio("speedup", 0, 1, "t_numa"),
                     Metric("unpin events", 1, "unpin_events", "%.0f"), Verified()};
    ViewTable suite;
    suite.title = "the application suite under both policies:";
    suite.label_headers = {"Application"};
    for (const char* app : suite_apps) {
      suite.rows.push_back({{app}, {Cell(app, numa), Cell(app, numa, 0, reconsider)}});
    }
    suite.columns = {Metric("Tnuma move-limit", 0, "t_numa", "%.3f"),
                     Metric("Tnuma reconsider", 1, "t_numa", "%.3f"),
                     Ratio("ratio", 0, 1, "t_numa"),
                     Metric("unpin events", 1, "unpin_events", "%.0f"), Verified()};
    views.push_back({"section 4.3 view: reconsidering pinning decisions", "", {phase, suite},
                     "Letting pins expire pays when sharing is a phase (the setup pages return to\n"
                     "local memory) and changes nothing on the paper's applications, which\n"
                     "\"showed no cases in which reconsideration would have led to a significant\n"
                     "improvement\".\n"});
  }
  {
    ViewTable crossover;
    crossover.title = "crossover on one writably-shared page (2 processors):";
    crossover.label_headers = {"refs by home proc"};
    for (int heavy : {10, 25, 40, 50, 60, 70, 80, 90, 99}) {
      SweepCell pin = Cell("RemoteMix", numa, heavy);
      pin.threads = 2;
      SweepCell home = pin;
      home.policy = remote_home;
      crossover.rows.push_back({{std::to_string(heavy) + "%"}, {pin, home}});
    }
    crossover.columns = {Metric("pin global (s)", 0, "t_numa", "%.4f"),
                         Metric("home remote (s)", 1, "t_numa", "%.4f"),
                         {"winner",
                          [](const Legs& legs) {
                            return legs[1]->MetricOr("t_numa", 0.0) <
                                           legs[0]->MetricOr("t_numa", 0.0)
                                       ? std::string("remote home")
                                       : std::string("global");
                          }},
                         Verified()};
    ViewTable suite;
    suite.title = "the application suite (Tnuma under each policy):";
    suite.label_headers = {"Application"};
    for (const char* app : suite_apps) {
      suite.rows.push_back({{app}, {Cell(app, numa), Cell(app, numa, 0, remote_home)}});
    }
    suite.columns = {Metric("move-limit (pin global)", 0, "t_numa", "%.3f"),
                     Metric("remote-home", 1, "t_numa", "%.3f"),
                     Ratio("ratio", 1, 0, "t_numa"), Verified()};
    char preamble[128];
    std::snprintf(preamble, sizeof(preamble),
                  "remote fetch %.2f us vs global fetch %.2f us on this machine model\n",
                  machine.latency.remote_fetch_ns * 1e-3, machine.latency.global_fetch_ns * 1e-3);
    views.push_back({"section 4.4 view: remote references vs. global memory", preamble,
                     {crossover, suite},
                     "The page is homed at processor 0, so remote homing pays only when most\n"
                     "references come from there; the paper's applications are balanced\n"
                     "enough that global placement wins: \"considering only a single class of\n"
                     "physical shared memory is both a reasonable approach and a major\n"
                     "simplification\".\n"});
  }
  {
    ViewTable t;
    t.label_headers = {"Configuration"};
    t.rows.push_back({{"no system calls"}, {Cell("UnixMaster", numa, 0)}});
    for (int percent : {2, 5, 10}) {
      t.rows.push_back({{std::to_string(percent) + "% syscalls, master touches user memory"},
                        {Cell("UnixMaster", numa, percent)}});
    }
    t.rows.push_back(
        {{"10% syscalls, ad hoc fix (no master refs)"}, {Cell("UnixMaster", numa, 110)}});
    t.columns = {Metric("user s", 0, "t_numa", "%.4f"),
                 Metric("local fraction", 0, "measured_alpha", "%.3f"),
                 Metric("private pages pinned", 0, "pages_pinned", "%.0f"), Verified()};
    views.push_back({"section 4.6 view: Unix-master references to user memory", "", {t},
                     "A few percent of master-serviced system calls make every thread's\n"
                     "private buffer writably shared with processor 0; the pages are pinned in\n"
                     "global memory until the paper's fix removes the master's user-memory\n"
                     "references.\n"});
  }
  {
    ViewTable t;
    t.label_headers = {"Strategy"};
    const char* labels[] = {"stay (no migration)", "move thread only (pages trickle by fault)",
                            "move thread and its pages (the paper's proposal)"};
    for (int strategy = 0; strategy < 3; ++strategy) {
      SweepCell cell = Cell("LoadBalance", numa, strategy);
      cell.threads = 2;
      t.rows.push_back({{labels[strategy]}, {cell}});
    }
    t.columns = {Metric("user s", 0, "t_numa", "%.4f"), Metric("system s", 0, "s_numa", "%.4f"),
                 Metric("local fraction", 0, "measured_alpha", "%.3f"),
                 Metric("pinned", 0, "pages_pinned", "%.0f"), Verified()};
    views.push_back(
        {"section 4.7 view: load-balancing migration with and without page movement",
         "one compute-bound thread, 24-page working set, rebalanced 6 times between 2 "
         "processors\n",
         {t},
         "Moving the pages with the process keeps every reference local; leaving them to\n"
         "trickle over by fault looks like thrashing to the move-limit policy, which pins\n"
         "them: why the paper makes page movement a prerequisite of load balancing.\n"});
  }
  {
    ViewTable t;
    t.label_headers = {"page size"};
    for (std::uint32_t page_size : {512u, 1024u, 2048u, 4096u, 8192u, 16384u}) {
      std::vector<SweepCell> legs = {Cell("Primes2", CellMode::kFullExperiment, 1),
                                     Cell("PlyTrace", CellMode::kFullExperiment),
                                     Cell("Primes1", CellMode::kFullExperiment)};
      for (SweepCell& leg : legs) {
        leg.scale = 0.5;
        leg.page_size = page_size;
      }
      t.rows.push_back({{std::to_string(page_size)}, legs});
    }
    t.columns = {Metric("Primes2 (shared divisors)", 0, "gamma", "%.3f"),
                 Metric("PlyTrace (packed tiles)", 1, "gamma", "%.3f"),
                 Metric("Primes1 (no false sharing)", 2, "gamma", "%.3f"), Verified()};
    views.push_back(
        {"page-size view: gamma = Tnuma/Tlocal per page size (total memory constant)", "", {t},
         "False sharing grows with the page (Holliday [11]): larger pages colocate more\n"
         "unrelated objects and penalize programs that did not segregate their data, while\n"
         "private-data programs are immune. Smaller pages approach the cache-line\n"
         "granularity of hardware coherence (section 4.5).\n"});
  }
  {
    ViewTable t;
    t.label_headers = {"Application"};
    for (const char* app :
         {"Gfetch", "IMatMult", "Primes1", "Primes2", "Primes3", "FFT", "PlyTrace"}) {
      t.rows.push_back({{app}, {Cell(app, CellMode::kOptimal)}});
    }
    t.columns = {Metric("Tlocal", 0, "t_local", "%.3f"),
                 Metric("Topt(est)", 0, "opt_total", "%.3f"),
                 Metric("Tnuma+dS", 0, "opt_numa_total", "%.3f"),
                 Metric("Tnuma/Topt", 0, "opt_ratio", "%.2f"),
                 Metric("user-only", 0, "opt_user_ratio", "%.2f"),
                 Metric("pages", 0, "opt_pages", "%.0f"),
                 Metric("best=global", 0, "opt_pages_global", "%.0f"), Verified()};
    views.push_back(
        {"section 3.1 view: Tnuma vs. Toptimal",
         "Toptimal is estimated per page by a perfect-knowledge placement optimizer over\n"
         "the numa run's recorded reference trace (slightly optimistic)\n",
         {t},
         "\"user-only\" compares user times alone, the paper's measurement: ratios near 1\n"
         "confirm that the simple policy places pages \"about as well as any operating\n"
         "system level strategy could have\". best=global counts pages whose optimal plan\n"
         "is global memory. The larger Tnuma/Topt gaps (Gfetch by design, PlyTrace) are\n"
         "thrash-before-pin movement, large only because these scaled runs are short.\n"});
  }
  return views;
}

// Finds a view's cells in a result: by key, or — when ace_bench --threads/--scale
// overrode the suite — by key with threads and scale ignored.
class CellIndex {
 public:
  explicit CellIndex(const SweepResult& result) {
    for (const CellResult& cell : result.cells) {
      exact_.emplace(cell.cell.Key(), &cell);
      loose_.emplace(LooseKey(cell.cell), &cell);
    }
  }

  const CellResult* Find(const SweepCell& cell) const {
    auto it = exact_.find(cell.Key());
    if (it != exact_.end()) {
      return it->second;
    }
    it = loose_.find(LooseKey(cell));
    return it != loose_.end() ? it->second : nullptr;
  }

 private:
  static std::string LooseKey(SweepCell cell) {
    cell.threads = 0;
    cell.scale = 0.0;
    return cell.Key();
  }

  std::map<std::string, const CellResult*> exact_;
  std::map<std::string, const CellResult*> loose_;
};

// Renders every ablation view whose cells are all in `result`, adding the cells it
// shows to `shown`.
std::string RenderAblationViews(const SweepResult& result, std::set<const CellResult*>* shown) {
  CellIndex index(result);
  std::string out;
  for (const AblationView& view : AblationViews(result.base_config)) {
    std::string tables;
    std::vector<const CellResult*> used;
    bool complete = true;
    for (const ViewTable& t : view.tables) {
      std::vector<std::string> headers = t.label_headers;
      for (const ViewColumn& column : t.columns) {
        headers.push_back(column.header);
      }
      TextTable table(headers);
      for (const ViewRow& row : t.rows) {
        Legs legs;
        for (const SweepCell& leg : row.legs) {
          const CellResult* cell = index.Find(leg);
          complete = complete && cell != nullptr;
          legs.push_back(cell);
        }
        if (!complete) {
          break;
        }
        used.insert(used.end(), legs.begin(), legs.end());
        std::vector<std::string> cells = row.labels;
        for (const ViewColumn& column : t.columns) {
          cells.push_back(column.text(legs));
        }
        table.AddRow(cells);
      }
      if (!complete) {
        break;
      }
      tables += (t.title.empty() ? "" : t.title + "\n") + table.ToString();
    }
    if (!complete) {
      continue;
    }
    shown->insert(used.begin(), used.end());
    out += "\n-- " + view.heading + " --\n" + view.preamble + tables + "\n" + view.claim;
  }
  return out;
}

}  // namespace

std::vector<SweepCell> AblationCells() {
  std::vector<SweepCell> cells;
  for (const AblationView& view : AblationViews(MachineConfig{})) {
    for (const ViewTable& table : view.tables) {
      for (const ViewRow& row : table.rows) {
        AppendUnique(cells, row.legs);
      }
    }
  }
  return cells;
}

std::string RenderViews(const SweepResult& full_result) {
  std::set<const CellResult*> shown;
  std::string ablations = RenderAblationViews(full_result, &shown);
  SweepResult result = full_result;
  result.cells.clear();
  for (const CellResult& cell : full_result.cells) {
    if (shown.count(&cell) == 0) {
      result.cells.push_back(cell);
    }
  }

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
  out += ablations;
  return out.empty() ? "\n(no cells in this result match a paper-table view)\n" : out;
}

}  // namespace ace
