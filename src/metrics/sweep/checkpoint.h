// Checkpoint/resume for sweeps, and the quarantine file: the crash-tolerant half of
// the run-resilience layer.
//
// A checkpoint is a directory of one-cell `ace-bench-v1` fragments, one file per
// completed cell, named "cell-<sanitized key>-<fnv64>.json". Each fragment is a
// complete, self-validating document (schema + suite + machine + a single-element
// cells array) written via write-temp-then-rename, so a SIGKILL at any instant
// leaves either no file or a whole valid one — never a torn fragment under the
// final name. Because cells are deterministic and fragments reuse the exact cell
// serializer (SerializeCellObject), a resumed sweep re-emits byte-identical cell
// bytes, and the merged result equals an uninterrupted run's (modulo host stats).
//
// Resume fails closed: a fragment that parses but violates the schema, names a
// different suite, or describes a different machine is a hard error naming the file
// and the violation — silently skipping it would quietly re-run (or worse, merge
// mismatched) cells.
//
// failures.json ("ace-failures-v1") is the quarantine: every cell whose run died,
// with the failure kind, the kill report / signal, and a replay command line.

#ifndef SRC_METRICS_SWEEP_CHECKPOINT_H_
#define SRC_METRICS_SWEEP_CHECKPOINT_H_

#include <map>
#include <string>
#include <vector>

#include "src/metrics/sweep/runner.h"

namespace ace {

inline constexpr const char* kFailuresSchemaName = "ace-failures-v1";

class SweepCheckpoint {
 public:
  // Create (or reuse) `dir` as the journal for `suite` runs on `base_config`.
  // Returns false with a diagnostic when the directory cannot be created.
  bool Open(const std::string& dir, const std::string& suite,
            const MachineConfig& base_config, std::string* error);

  // Journal one completed cell (executed or quarantined — both are terminal states a
  // resume must not repeat). Thread-safe: distinct cells write distinct files.
  bool RecordCell(const CellResult& result, std::string* error);

  // Load every fragment in the directory, keyed by SweepCell::Key(). Fails closed on
  // the first invalid fragment ("<file>: <violation>"). Leftover "*.tmp" files from
  // an interrupted write are ignored (their cells simply re-run).
  bool LoadCompleted(std::map<std::string, CellResult>* out, std::string* error) const;

  // The fragment file name for a cell key (exposed for the preemption-recovery test).
  static std::string FragmentFileName(const std::string& key);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::string suite_;
  MachineConfig base_config_;
};

// Serialize/write the quarantine ("ace-failures-v1"): { schema, suite, failures:
// [ { key, kind, detail, replay } ] }. Written atomically; an empty list
// still produces a valid document so CI artifact upload never sees a missing file.
std::string SerializeFailures(const std::string& suite,
                              const std::vector<CellFailure>& failures);
bool WriteFailuresJson(const std::string& suite, const std::vector<CellFailure>& failures,
                       const std::string& path, std::string* error);

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_CHECKPOINT_H_
