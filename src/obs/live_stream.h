// The ace-live-v1 streaming telemetry format: schema constants and the durable
// JSONL sink the live sampler writes through.
//
// A feed is a sequence of *segments*, one per simulation run (ace_bench and
// ace_soak append one segment per placement run / seed). Each segment is:
//
//   {"type":"meta","format":"ace-live-v1","version":1,...}     run identity + flags
//   {"type":"sample","idx":0,"ts_ns":...,"dur_ns":...,...}     per-interval DELTAS
//   ...                                                        (0 or more samples)
//   {"type":"summary","samples":N,"outcome":"ok",...}          cumulative totals
//
// Sample records carry field-wise counter deltas over the interval; the summary
// carries the same counter keys as end-of-run cumulative totals, so a validator can
// check sum-of-deltas == summary exactly (tests/live_sampler_test.cc does). The
// counter vocabulary is ACE_LIVE_COUNTERS below, built from the counter registry —
// shared by the sampler (writer side) and tools/ace_top's feed reader
// (src/obs/live_feed.h).
//
// Durability follows the soak journal's discipline (tools/ace_soak.cc,
// DESIGN.md section 9): every record is fflushed as one line, the summary is
// fsynced, and a reader must tolerate one torn final line after a crash.

#ifndef SRC_OBS_LIVE_STREAM_H_
#define SRC_OBS_LIVE_STREAM_H_

#include <cstdint>
#include <cstdio>
#include <string>

#include "src/sim/stats.h"

namespace ace {

inline constexpr const char* kLiveFeedFormat = "ace-live-v1";
inline constexpr int kLiveFeedVersion = 1;

// The counter vocabulary of sample (delta) and summary (cumulative) records, in
// feed order. The machine rows are the registry's groups (src/sim/stats.h) under
// their live keys; each SAMPLE(key, expr) row is a counter MachineStats does not
// keep, read as `sample.expr` from a LiveSample (src/obs/sampler.h documents each).
// Every counter is monotone over a run, so sample fields are non-negative by
// construction — the validator enforces it. The key order is the wire format;
// tests/counter_registry_test.cc pins it, so a change to it is deliberate.
#define ACE_LIVE_COUNTERS(REF, STAT, SAMPLE) \
  ACE_REF_CLASSES(REF)                       \
  ACE_PROTOCOL_COUNTERS(STAT)                \
  ACE_DEGRADED_COUNTERS(STAT)                \
  SAMPLE(tlb_hits, TlbHits())                \
  SAMPLE(tlb_misses, TlbMisses())            \
  SAMPLE(dec_local, decisions[0])            \
  SAMPLE(dec_global, decisions[1])           \
  SAMPLE(dec_remote, decisions[2])           \
  SAMPLE(trace_emitted, trace_emitted)       \
  SAMPLE(trace_dropped, trace_dropped)       \
  SAMPLE(user_ns, user_ns)                   \
  SAMPLE(system_ns, system_ns)               \
  SAMPLE(requests, app_requests)             \
  SAMPLE(req_lat_ns, app_req_lat_ns)         \
  ACE_CHAOS_COUNTERS(STAT)                   \
  SAMPLE(timeouts, app_timeouts)             \
  SAMPLE(retries, app_retries)               \
  SAMPLE(shed, app_shed)                     \
  ACE_DURABILITY_COUNTERS(STAT)              \
  SAMPLE(dead_nodes, dead_nodes)             \
  ACE_HOST_COUNTERS(STAT)

// One enumerator per row: kLc_<field> for machine rows, kLc_<key> for sample rows.
#define ACE_LIVE_ENUM(name, ...) kLc_##name,
enum LiveCounter {
  ACE_LIVE_COUNTERS(ACE_LIVE_ENUM, ACE_LIVE_ENUM, ACE_LIVE_ENUM)
  kNumLiveCounters,
};
#undef ACE_LIVE_ENUM

#define ACE_LIVE_KEY(field, key) key,
#define ACE_LIVE_SAMPLE_KEY(key, expr) #key,
inline constexpr const char* kLiveCounterKeys[kNumLiveCounters] = {
    ACE_LIVE_COUNTERS(ACE_LIVE_KEY, ACE_LIVE_KEY, ACE_LIVE_SAMPLE_KEY)};
#undef ACE_LIVE_KEY
#undef ACE_LIVE_SAMPLE_KEY

// JSON key for each LiveCounter, stable across the format version.
const char* LiveCounterKey(int counter);

// Identity of one feed segment, echoed in its meta record. Strings are escaped by
// the writer; keep them free of control characters regardless.
struct LiveRunMeta {
  std::string tool;        // "ace_run" | "ace_bench" | "ace_soak" | test id
  std::string app;
  std::string policy;
  int procs = 0;
  int threads = 0;
  std::uint32_t pages = 0;
  std::uint32_t page_size = 0;
  std::uint64_t seed = 0;
  std::string fault_plan;
  bool tlb = false;
  std::int64_t sample_interval_ns = 0;
  std::string tag;         // free-form run label (bench cell id, soak seed, ...)
};

// Line-oriented durable writer. One writer may carry many segments (append mode);
// the sampler formats the records, this class owns the file and the flush/fsync
// discipline. All methods are no-ops after a write error; check ok() at close.
class LiveStreamWriter {
 public:
  LiveStreamWriter() = default;
  ~LiveStreamWriter() { Close(); }

  LiveStreamWriter(const LiveStreamWriter&) = delete;
  LiveStreamWriter& operator=(const LiveStreamWriter&) = delete;

  // Open (truncate or append) the feed file. Returns false on failure.
  bool Open(const std::string& path, bool append);
  bool is_open() const { return file_ != nullptr; }
  bool ok() const { return ok_; }
  const std::string& path() const { return path_; }

  // Write one record (`line` without trailing newline) and flush it, so a tailing
  // reader — the TUI, the watchdog's operator, a dashboard — sees it immediately
  // and a crash tears at most the line being written.
  void WriteLine(const std::string& line);

  // Push buffered bytes to the OS *and* the disk (fsync). Called by the sampler
  // after each summary record so a completed segment survives power loss.
  void SyncToDisk();

  void Close();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
  bool ok_ = true;
};

}  // namespace ace

#endif  // SRC_OBS_LIVE_STREAM_H_
