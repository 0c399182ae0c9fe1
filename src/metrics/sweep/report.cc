#include "src/metrics/sweep/report.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/obs/json_lite.h"

namespace ace {

namespace {

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

void AppendField(std::string& out, const char* key, double v, bool* first) {
  if (!*first) {
    out += ",";
  }
  *first = false;
  AppendJsonString(&out, key);
  out += ":";
  AppendNumber(out, v);
}

void AppendStringField(std::string& out, const char* key, std::string_view v, bool* first) {
  if (!*first) {
    out += ",";
  }
  *first = false;
  AppendJsonString(&out, key);
  out += ":";
  AppendJsonString(&out, v);
}

void AppendCellObject(std::string& out, const CellResult& cell) {
  out += "{";
  bool cfirst = true;
  AppendStringField(out, "key", cell.cell.Key(), &cfirst);
  AppendStringField(out, "app", cell.cell.app, &cfirst);
  AppendField(out, "threads", cell.cell.threads, &cfirst);
  AppendField(out, "scale", cell.cell.scale, &cfirst);
  AppendField(out, "move_threshold", cell.cell.policy.move_threshold, &cfirst);
  AppendField(out, "gl_ratio", cell.cell.gl_ratio, &cfirst);
  const char* mode_name = "full";
  if (cell.cell.mode == CellMode::kNumaOnly) {
    mode_name = "numa-only";
  } else if (cell.cell.mode == CellMode::kServing) {
    mode_name = "serving";
  } else if (cell.cell.mode == CellMode::kOptimal) {
    mode_name = "optimal";
  }
  AppendStringField(out, "mode", mode_name, &cfirst);
  if (cell.cell.mode == CellMode::kServing) {
    AppendField(out, "tenants", cell.cell.tenants, &cfirst);
    AppendField(out, "zipf_skew", cell.cell.zipf_skew, &cfirst);
    AppendField(out, "churn", cell.cell.churn, &cfirst);
  }
  // The ablation axes, each only off its default (as in the key).
  const PolicySpec& policy = cell.cell.policy;
  if (policy.kind != PolicySpec::Kind::kMoveLimit) {
    AppendStringField(out, "policy", policy.Name(), &cfirst);
    if (policy.kind == PolicySpec::Kind::kReconsider) {
      AppendField(out, "reconsider_after_ns", static_cast<double>(policy.reconsider_after_ns),
                  &cfirst);
    }
  }
  if (cell.cell.variant != 0) {
    AppendField(out, "variant", cell.cell.variant, &cfirst);
  }
  if (cell.cell.page_size != 4096) {
    AppendField(out, "page_size", cell.cell.page_size, &cfirst);
  }
  if (cell.cell.scheduler == SchedulerKind::kMigrating) {
    AppendStringField(out, "scheduler", "migrating", &cfirst);
  }
  if (!cell.cell.fault_plan.empty()) {
    AppendStringField(out, "fault_plan", cell.cell.fault_plan, &cfirst);
    if (cell.cell.fault_seed != 0) {
      AppendField(out, "fault_seed", static_cast<double>(cell.cell.fault_seed), &cfirst);
    }
  }
  out += ",\"ok\":";
  out += cell.ok ? "true" : "false";
  out += ",\"metrics\":{";
  bool metric_first = true;
  for (const auto& [name, value] : cell.metrics) {
    AppendField(out, name.c_str(), value, &metric_first);
  }
  out += "}";
  if (cell.died()) {
    out += ",\"failure\":{";
    bool ffirst = true;
    AppendStringField(out, "kind", cell.failure_kind, &ffirst);
    AppendStringField(out, "detail", cell.failure_detail, &ffirst);
    out += "}";
  }
  out += "}";
}

}  // namespace

std::string SerializeCellObject(const CellResult& cell) {
  std::string out;
  AppendCellObject(out, cell);
  return out;
}

std::string SerializeSweep(const SweepResult& result, bool include_host) {
  std::string out;
  out.reserve(4096 + result.cells.size() * 512);
  out += "{";
  bool first = true;
  AppendStringField(out, "schema", kBenchSchemaName, &first);
  AppendStringField(out, "suite", result.suite, &first);

  out += ",\"machine\":{";
  bool mfirst = true;
  AppendField(out, "processors", result.base_config.num_processors, &mfirst);
  AppendField(out, "page_size", result.base_config.page_size, &mfirst);
  AppendField(out, "global_pages", result.base_config.global_pages, &mfirst);
  AppendField(out, "local_pages_per_proc", result.base_config.local_pages_per_proc, &mfirst);
  AppendField(out, "gl_fetch_ratio", result.base_config.latency.FetchRatio(), &mfirst);
  out += "}";

  if (include_host) {
    out += ",\"host\":{";
    bool hfirst = true;
    AppendField(out, "workers", result.host.workers, &hfirst);
    AppendField(out, "wall_seconds", result.host.wall_seconds, &hfirst);
    AppendField(out, "runs_per_second", result.host.runs_per_second, &hfirst);
    AppendField(out, "simulated_seconds", result.host.simulated_seconds, &hfirst);
    out += "}";
  }

  out += ",\"cells\":[";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    if (i > 0) {
      out += ",";
    }
    out += "\n";
    AppendCellObject(out, result.cells[i]);
  }
  out += "\n]}\n";
  return out;
}

bool ValidateSweepJson(std::string_view json, std::string* error) {
  JsonValue doc;
  if (!ParseJson(json, &doc, error)) {
    return false;
  }
  if (!doc.is_object()) {
    *error = "top level is not an object";
    return false;
  }
  if (doc.StringOr("schema", "") != kBenchSchemaName) {
    *error = "schema member missing or not '" + std::string(kBenchSchemaName) + "'";
    return false;
  }
  if (doc.StringOr("suite", "").empty()) {
    *error = "suite member missing";
    return false;
  }
  const JsonValue* machine = doc.Find("machine");
  if (machine == nullptr || !machine->is_object()) {
    *error = "machine member missing or not an object";
    return false;
  }
  const JsonValue* cells = doc.Find("cells");
  if (cells == nullptr || !cells->is_array()) {
    *error = "cells member missing or not an array";
    return false;
  }
  for (std::size_t i = 0; i < cells->items.size(); ++i) {
    const JsonValue& cell = cells->items[i];
    std::string where = "cells[" + std::to_string(i) + "]";
    if (!cell.is_object()) {
      *error = where + " is not an object";
      return false;
    }
    for (const char* key : {"key", "app", "mode"}) {
      const JsonValue* v = cell.Find(key);
      if (v == nullptr || !v->is_string() || v->str.empty()) {
        *error = where + "." + key + " missing or not a non-empty string";
        return false;
      }
    }
    for (const char* key : {"threads", "scale", "move_threshold", "gl_ratio"}) {
      const JsonValue* v = cell.Find(key);
      if (v == nullptr || !v->is_number()) {
        *error = where + "." + key + " missing or not a number";
        return false;
      }
    }
    const JsonValue* ok = cell.Find("ok");
    if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
      *error = where + ".ok missing or not a boolean";
      return false;
    }
    const JsonValue* metrics = cell.Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      *error = where + ".metrics missing or not an object";
      return false;
    }
    // A cell that died (quarantined by the resilience layer) carries a "failure"
    // object and no measurements; every other cell must report t_numa.
    const JsonValue* failure = cell.Find("failure");
    if (failure != nullptr &&
        (!failure->is_object() || failure->StringOr("kind", "").empty())) {
      *error = where + ".failure is not an object with a non-empty kind";
      return false;
    }
    if (failure == nullptr && metrics->Find("t_numa") == nullptr) {
      *error = where + ".metrics.t_numa missing";
      return false;
    }
    for (const auto& [name, value] : metrics->members) {
      if (value.kind != JsonValue::Kind::kNumber && value.kind != JsonValue::Kind::kNull) {
        *error = where + ".metrics." + name + " is neither number nor null";
        return false;
      }
    }
  }
  return true;
}

bool WriteFileAtomic(const std::string& path, std::string_view contents,
                     std::string* error) {
  std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      *error = "cannot open " + tmp + " for writing";
      return false;
    }
    out << contents;
    out.close();
    if (!out) {
      *error = "write to " + tmp + " failed";
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    *error = "rename " + tmp + " -> " + path + " failed";
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::string SerializeFailures(const std::string& suite,
                              const std::vector<CellFailure>& failures) {
  std::string out = "{\"schema\":";
  AppendJsonString(&out, kFailuresSchemaName);
  out += ",\"suite\":";
  AppendJsonString(&out, suite);
  out += ",\"failures\":[";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    const CellFailure& f = failures[i];
    if (i > 0) {
      out += ",";
    }
    out += "\n{\"key\":";
    AppendJsonString(&out, f.key);
    out += ",\"kind\":";
    AppendJsonString(&out, f.kind);
    out += ",\"detail\":";
    AppendJsonString(&out, f.detail);
    out += ",\"replay\":";
    AppendJsonString(&out, f.replay);
    out += "}";
  }
  out += failures.empty() ? "]}\n" : "\n]}\n";
  return out;
}

bool WriteFailuresJson(const std::string& suite, const std::vector<CellFailure>& failures,
                       const std::string& path, std::string* error) {
  std::string json = SerializeFailures(suite, failures);
  JsonValue doc;
  if (!ParseJson(json, &doc, error)) {
    *error = "failures.json self-validation failed: " + *error;
    return false;
  }
  return WriteFileAtomic(path, json, error);
}

bool WriteSweepJsonFile(const SweepResult& result, const std::string& path,
                        std::string* error, bool include_host) {
  std::string json = SerializeSweep(result, include_host);
  if (!ValidateSweepJson(json, error)) {
    *error = "self-validation failed: " + *error;
    return false;
  }
  return WriteFileAtomic(path, json, error);
}

}  // namespace ace
