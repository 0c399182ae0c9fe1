#include "src/metrics/sweep/checkpoint.h"

#include <dirent.h>
#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "src/common/splitmix64.h"
#include "src/metrics/sweep/report.h"
#include "src/obs/json_lite.h"

namespace ace {

namespace {

bool ReadWholeFile(const std::string& path, std::string* out, std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    *error = "read of " + path + " failed";
    return false;
  }
  *out = buffer.str();
  return true;
}

bool SameNumber(double a, double b) { return a == b || (std::isnan(a) && std::isnan(b)); }

}  // namespace

std::string SweepCheckpoint::FragmentFileName(const std::string& key) {
  std::string name = "cell-";
  for (char c : key) {
    bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '_';
    name += safe ? c : '_';
  }
  // The sanitization is lossy ('/' and '=' both map to '_'), so a hash of the exact
  // key keeps distinct cells in distinct files.
  char hash[24];
  std::snprintf(hash, sizeof hash, "-%016llx",
                static_cast<unsigned long long>(Fnv1a64(key)));
  name += hash;
  name += ".json";
  return name;
}

bool SweepCheckpoint::Open(const std::string& dir, const std::string& suite,
                           const MachineConfig& base_config, std::string* error) {
  if (mkdir(dir.c_str(), 0777) != 0 && errno != EEXIST) {
    *error = "cannot create checkpoint directory " + dir + ": " + std::strerror(errno);
    return false;
  }
  dir_ = dir;
  suite_ = suite;
  base_config_ = base_config;
  return true;
}

bool SweepCheckpoint::RecordCell(const CellResult& result, std::string* error) {
  // A fragment is a complete one-cell document, so it self-validates exactly like
  // the final artifact and LoadCompleted can hold it to the same schema.
  SweepResult fragment;
  fragment.suite = suite_;
  fragment.base_config = base_config_;
  fragment.cells.push_back(result);
  std::string json = SerializeSweep(fragment, /*include_host=*/false);
  if (!ValidateSweepJson(json, error)) {
    *error = "checkpoint fragment self-validation failed: " + *error;
    return false;
  }
  std::string path = dir_ + "/" + FragmentFileName(result.cell.Key());
  return WriteFileAtomic(path, json, error);
}

bool SweepCheckpoint::LoadCompleted(std::map<std::string, CellResult>* out,
                                    std::string* error) const {
  DIR* dir = opendir(dir_.c_str());
  if (dir == nullptr) {
    *error = "cannot open checkpoint directory " + dir_ + ": " + std::strerror(errno);
    return false;
  }
  bool ok = true;
  for (struct dirent* entry = readdir(dir); entry != nullptr; entry = readdir(dir)) {
    std::string name = entry->d_name;
    // Only whole fragments count; "*.tmp" is an interrupted write whose cell re-runs.
    if (name.size() < 10 || name.compare(0, 5, "cell-") != 0 ||
        name.compare(name.size() - 5, 5, ".json") != 0) {
      continue;
    }
    std::string path = dir_ + "/" + name;
    std::string json;
    if (!ReadWholeFile(path, &json, error)) {
      ok = false;
      break;
    }
    if (!ValidateSweepJson(json, error)) {
      *error = path + ": " + *error;
      ok = false;
      break;
    }
    JsonValue doc;
    if (!ParseJson(json, &doc, error)) {
      *error = path + ": " + *error;  // unreachable after validation; belt and braces
      ok = false;
      break;
    }
    if (doc.StringOr("suite", "") != suite_) {
      *error = path + ": fragment belongs to suite '" + doc.StringOr("suite", "") +
               "', resuming suite '" + suite_ + "'";
      ok = false;
      break;
    }
    const JsonValue* machine = doc.Find("machine");
    if (machine == nullptr ||
        !SameNumber(machine->NumberOr("processors", -1), base_config_.num_processors) ||
        !SameNumber(machine->NumberOr("page_size", -1), base_config_.page_size) ||
        !SameNumber(machine->NumberOr("global_pages", -1), base_config_.global_pages) ||
        !SameNumber(machine->NumberOr("local_pages_per_proc", -1),
                    base_config_.local_pages_per_proc) ||
        !SameNumber(machine->NumberOr("gl_fetch_ratio", -1),
                    base_config_.latency.FetchRatio())) {
      *error = path + ": fragment was produced on a different machine configuration";
      ok = false;
      break;
    }
    const JsonValue* cells = doc.Find("cells");
    if (cells->items.size() != 1) {
      *error = path + ": fragment holds " + std::to_string(cells->items.size()) +
               " cells, expected exactly 1";
      ok = false;
      break;
    }
    CellResult cell;
    if (!ParseCellObject(cells->items[0], &cell, error)) {
      *error = path + ": " + *error;
      ok = false;
      break;
    }
    (*out)[cell.cell.Key()] = std::move(cell);
  }
  closedir(dir);
  return ok;
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

}  // namespace ace
