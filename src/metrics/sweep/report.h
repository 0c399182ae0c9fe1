// Machine-readable sweep results: the BENCH_<suite>.json format.
//
// Schema ("ace-bench-v1"):
//   {
//     "schema": "ace-bench-v1",
//     "suite": "<name>",
//     "machine": { "processors", "page_size", "global_pages",
//                  "local_pages_per_proc", "gl_fetch_ratio" },
//     "host":    { "workers", "wall_seconds", "runs_per_second",
//                  "simulated_seconds" },           -- omitted when include_host=false
//     "cells": [ { "key", "app", "threads", "scale", "move_threshold", "gl_ratio",
//                  "mode", "ok", "metrics": { "<name>": <number|null>, ... } } ]
//   }
//
// Optional cell members extend the schema without disturbing happy-path bytes:
//   "policy", "reconsider_after_ns", "variant", "page_size", "scheduler"
//                           -- only off their defaults (move-limit, 0, 4096,
//                              affinity), like the cell key's segments;
//   "fault_plan": "<plan>"  -- only when the cell ran with an injection plan
//                              (plus "fault_seed" when seeded);
//   "failure": { "kind", "detail" }  -- only when the cell *died* (watchdog kill or
//                              escaped exception); dead cells have ok=false and
//                              an empty metrics object.
//
// Everything under "cells" is a pure function of the cell parameters (deterministic
// simulation); everything under "host" is wall-clock and varies run to run. The
// determinism test and the baseline comparator therefore operate on the cells alone.
// Doubles serialize with %.17g (exact round-trip); NaN serializes as null.
//
// Writers self-validate: WriteSweepJsonFile re-parses its own output with
// src/obs/json_lite and re-checks the schema before the file is considered written,
// and the bytes land via write-temp-then-rename so a crash mid-write can never leave
// a torn artifact under the final name. The one reader of cell objects is the
// baseline comparator (baseline.cc).
//
// failures.json ("ace-failures-v1") is the quarantine: every cell (or soak seed)
// whose run died, with the failure kind, the kill report / signal, and a replay
// command line.

#ifndef SRC_METRICS_SWEEP_REPORT_H_
#define SRC_METRICS_SWEEP_REPORT_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/metrics/sweep/runner.h"

namespace ace {

inline constexpr const char* kBenchSchemaName = "ace-bench-v1";
inline constexpr const char* kFailuresSchemaName = "ace-failures-v1";

// Serialize to the schema above. `include_host` false drops the host object (and
// nothing else), giving the wall-time-free form two runs of the same matrix must
// agree on byte for byte.
std::string SerializeSweep(const SweepResult& result, bool include_host);

// Serialize one cell result as the exact cell-object bytes SerializeSweep would
// embed, so tests can compare two runs of one cell byte for byte.
std::string SerializeCellObject(const CellResult& cell);

// Validate that `json` parses and conforms to the schema. Returns false and sets
// `error` on the first violation. Cells that died (ok=false with a "failure"
// member) are exempt from the t_numa requirement; every surviving cell must carry
// it.
bool ValidateSweepJson(std::string_view json, std::string* error);

// Write `contents` to `path` via a same-directory temp file + rename, so `path`
// either keeps its old bytes or atomically gains the new ones — never a torn
// prefix. Shared by the result writer and failures.json.
bool WriteFileAtomic(const std::string& path, std::string_view contents,
                     std::string* error);

// Serialize, self-validate, and write to `path` atomically (write-temp-then-rename;
// failures surface in `error`). `include_host` false omits the wall-clock host
// stats, producing the form two builds' runs can be compared with byte for byte.
bool WriteSweepJsonFile(const SweepResult& result, const std::string& path,
                        std::string* error, bool include_host = true);

// Serialize/write the quarantine ("ace-failures-v1"): { schema, suite, failures:
// [ { key, kind, detail, replay } ] }. Written atomically; an empty list
// still produces a valid document so CI artifact upload never sees a missing file.
std::string SerializeFailures(const std::string& suite,
                              const std::vector<CellFailure>& failures);
bool WriteFailuresJson(const std::string& suite, const std::vector<CellFailure>& failures,
                       const std::string& path, std::string* error);

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_REPORT_H_
