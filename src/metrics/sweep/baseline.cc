#include "src/metrics/sweep/baseline.h"

#include <cmath>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "src/metrics/sweep/report.h"
#include "src/metrics/table.h"
#include "src/obs/json_lite.h"

namespace ace {

namespace {

constexpr double kAbsFloor = 1e-9;
constexpr double kFallbackDefaultTolerance = 0.02;

struct ToleranceTable {
  double default_tolerance = kFallbackDefaultTolerance;
  std::map<std::string, double> per_metric;

  // A serving cell's all-global metric without an entry of its own takes its
  // unprefixed name's tolerance: g_requests is as exact as requests.
  double For(const std::string& metric) const {
    auto it = per_metric.find(metric);
    if (it == per_metric.end() && metric.starts_with(kGlobalLegPrefix)) {
      it = per_metric.find(metric.substr(sizeof(kGlobalLegPrefix) - 1));
    }
    return it != per_metric.end() ? it->second : default_tolerance;
  }
};

ToleranceTable ReadTolerances(const JsonValue& doc) {
  ToleranceTable table;
  table.default_tolerance = doc.NumberOr("default_tolerance", kFallbackDefaultTolerance);
  const JsonValue* obj = doc.Find("tolerances");
  if (obj != nullptr && obj->is_object()) {
    for (const auto& [name, value] : obj->members) {
      if (value.is_number()) {
        table.per_metric[name] = value.number;
      }
    }
  }
  return table;
}

void AddIssue(BaselineComparison& cmp, std::string cell, std::string metric,
              std::string detail, bool is_regression) {
  cmp.issues.push_back(BaselineIssue{std::move(cell), std::move(metric),
                                     std::move(detail), is_regression});
}

}  // namespace

BaselineComparison CompareAgainstBaseline(const SweepResult& result,
                                          std::string_view baseline_json) {
  BaselineComparison cmp;

  std::string error;
  if (!ValidateSweepJson(baseline_json, &error)) {
    cmp.load_error = "baseline invalid: " + error;
    return cmp;
  }
  JsonValue doc;
  ParseJson(baseline_json, &doc, &error);  // cannot fail: just validated
  cmp.loaded = true;

  ToleranceTable tolerances = ReadTolerances(doc);

  std::map<std::string, const CellResult*> result_cells;
  for (const CellResult& cell : result.cells) {
    result_cells[cell.cell.Key()] = &cell;
  }

  const JsonValue& baseline_cells = *doc.Find("cells");
  std::set<std::string> baseline_keys;
  for (const JsonValue& base_cell : baseline_cells.items) {
    std::string key = base_cell.StringOr("key", "");
    baseline_keys.insert(key);

    auto it = result_cells.find(key);
    if (it == result_cells.end()) {
      AddIssue(cmp, key, "", "cell present in baseline but missing from results", true);
      continue;
    }
    const CellResult& new_cell = *it->second;
    cmp.cells_compared++;

    if (new_cell.died()) {
      AddIssue(cmp, key, "",
               "run died: " + new_cell.failure_kind + ": " + new_cell.failure_detail, true);
    } else if (!new_cell.ok) {
      AddIssue(cmp, key, "", "application verification failed: " + new_cell.detail, true);
    }

    const JsonValue& base_metrics = *base_cell.Find("metrics");
    for (const auto& [name, base_value] : base_metrics.members) {
      cmp.metrics_compared++;
      bool base_is_nan = base_value.kind == JsonValue::Kind::kNull;
      double base = base_is_nan ? std::nan("") : base_value.number;

      bool found = false;
      double fresh = 0.0;
      for (const auto& [metric_name, metric_value] : new_cell.metrics) {
        if (metric_name == name) {
          found = true;
          fresh = metric_value;
          break;
        }
      }
      if (!found) {
        AddIssue(cmp, key, name, "metric present in baseline but missing from results", true);
        continue;
      }

      bool fresh_is_nan = !std::isfinite(fresh);
      if (base_is_nan && fresh_is_nan) {
        continue;  // matching undefinedness (e.g. alpha with no data references)
      }
      if (base_is_nan != fresh_is_nan) {
        AddIssue(cmp, key, name,
                 base_is_nan ? "baseline undefined (null) but result is " + Fmt("%g", fresh)
                             : "result is NaN but baseline is " + Fmt("%g", base),
                 true);
        continue;
      }

      double scale_base = std::max(std::fabs(base), kAbsFloor);
      double tol = tolerances.For(name);
      double diff = std::fabs(fresh - base);
      double limit = tol * scale_base;
      if (diff > limit) {
        double rel = diff / scale_base;
        AddIssue(cmp, key, name,
                 Fmt("%g", base) + " -> " + Fmt("%g", fresh) + " (rel " +
                     Fmt("%.4f", rel) + " > tol " + Fmt("%g", tol) + ")",
                 true);
      }
    }
  }

  for (const CellResult& cell : result.cells) {
    if (!baseline_keys.contains(cell.cell.Key())) {
      cmp.new_cells++;
      AddIssue(cmp, cell.cell.Key(), "",
               "new cell not in baseline (passes; add it on the next baseline refresh)",
               false);
    }
  }

  return cmp;
}

BaselineComparison CompareAgainstBaselineFile(const SweepResult& result,
                                              const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    BaselineComparison cmp;
    cmp.load_error = "cannot read baseline file " + path;
    return cmp;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return CompareAgainstBaseline(result, buffer.str());
}

std::string RenderComparison(const BaselineComparison& comparison) {
  std::string out;
  if (!comparison.loaded) {
    out += "baseline comparison FAILED to load: " + comparison.load_error + "\n";
    return out;
  }
  int regressions = 0;
  for (const BaselineIssue& issue : comparison.issues) {
    if (issue.is_regression) {
      regressions++;
    }
    out += issue.is_regression ? "REGRESSION " : "note       ";
    out += issue.cell;
    if (!issue.metric.empty()) {
      out += " [" + issue.metric + "]";
    }
    out += ": " + issue.detail + "\n";
  }
  out += "compared " + std::to_string(comparison.cells_compared) + " cells / " +
         std::to_string(comparison.metrics_compared) + " metrics; " +
         std::to_string(regressions) + " regression(s), " +
         std::to_string(comparison.new_cells) + " new cell(s)\n";
  return out;
}

}  // namespace ace
