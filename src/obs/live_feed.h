// Reader side of the ace-live-v1 telemetry stream (src/obs/live_stream.h): an
// incremental line parser that tolerates a torn final line, a strict per-segment
// validator, the accumulated view a live display needs, and the text frames
// ace_top renders from it.
//
// The parser is built for tailing: feed it whatever bytes have appeared since the
// last read and it hands back every complete record, holding an unterminated tail
// until its newline arrives. The validator enforces what the writer guarantees —
// well-formed meta/sample/summary sequencing, monotone virtual timestamps,
// non-negative per-interval deltas, and sum-of-deltas exactly equal to the
// summary's cumulative totals — while tolerating a torn final line and a missing
// final summary, the two shapes a crash or a still-running writer legitimately
// leaves behind (the same truncation discipline as the soak journal).

#ifndef SRC_OBS_LIVE_FEED_H_
#define SRC_OBS_LIVE_FEED_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/obs/json_lite.h"
#include "src/obs/live_stream.h"

namespace ace {

// Incremental JSONL splitter/parser. Feed() may be called any number of times with
// arbitrary byte chunks; each complete line is parsed and appended to `out`. A
// trailing line without its newline stays buffered — if the writer died mid-line it
// is simply never completed, which is exactly the tolerance the format requires.
class LiveFeedParser {
 public:
  // Returns false (and sets error()) when a *complete* line fails to parse; the
  // torn-tail case never reaches parsing. Records already parsed from this chunk
  // are still appended before the failure is reported.
  bool Feed(std::string_view bytes, std::vector<JsonValue>* out);

  // Bytes currently held back as a potential torn tail (empty when the feed is
  // newline-terminated so far).
  const std::string& pending() const { return buf_; }
  const std::string& error() const { return error_; }

 private:
  std::string buf_;
  std::string error_;
};

// Everything a live display accumulates from one feed. Multi-segment feeds (one
// segment per bench placement run or soak seed) reset the per-segment state at each
// meta record; `segments_done` counts the summaries seen.
struct LiveFeedState {
  bool have_meta = false;
  LiveRunMeta meta;

  // Per-segment accumulation: cumulative counters (sum of sample deltas), the most
  // recent sample's deltas, and its interval bounds.
  std::array<std::uint64_t, kNumLiveCounters> totals{};
  std::array<std::uint64_t, kNumLiveCounters> last{};
  std::int64_t last_ts_ns = 0;
  std::int64_t last_dur_ns = 0;
  std::uint64_t samples = 0;
  std::uint64_t trace_dropped_total = 0;

  // Per-processor [fetch_l, fetch_g, fetch_r, store_l, store_g, store_r, tlb_hits,
  // tlb_misses]: cumulative and most-recent-interval.
  std::vector<std::array<std::uint64_t, 8>> proc_totals;
  std::vector<std::array<std::uint64_t, 8>> proc_last;

  // The most recent sample's hot-page rows (interval deltas, writer-ranked).
  struct HotRow {
    std::uint32_t lp = 0;
    std::uint64_t local = 0;
    std::uint64_t global = 0;
    std::uint64_t remote = 0;
    std::uint32_t state = 0;  // PageState index: 0=ro 1=lw 2=gw 3=rh
  };
  std::vector<HotRow> hot;

  // Segment completion: set by the summary record, cleared by the next meta.
  bool finished = false;
  std::string outcome;
  std::uint64_t segments_done = 0;

  // Why Apply last returned false.
  std::string error;

  // Fold one parsed record in. Returns false, with `error` set, when a meta record's
  // procs is outside [1, kMaxProcessors]: it sizes the per-processor tables, so the
  // feed cannot be displayed. Unknown record types are ignored (forward
  // compatibility); other malformed known types are folded best-effort — strictness
  // is the validator's job, not the display's.
  bool Apply(const JsonValue& rec);
};

// Live-display views, cycled by the TUI's number keys.
enum class LiveView {
  kHotPages = 0,
  kLocality = 1,
  kPerProc = 2,
  kDecisions = 3,
};

// One text frame of the given view: header (identity, sample index, virtual time,
// interval rates) plus the view's table. Plain text, no escape codes — the TUI adds
// cursor control around it; --follow prints it verbatim.
std::string RenderLiveFrame(const LiveFeedState& s, LiveView view, std::size_t top_n);

// --- validation --------------------------------------------------------------------

struct LiveValidateResult {
  bool ok = false;
  std::string error;          // first violation, with its line number
  std::size_t lines = 0;      // complete records examined
  std::size_t segments = 0;   // segments completed by a summary
  std::size_t samples = 0;    // sample records across all segments
  bool torn_tail = false;     // final line unterminated or unparseable (tolerated)
  bool open_segment = false;  // feed ends after a meta with no summary (tolerated)
};

// Validate a whole feed file's text against the ace-live-v1 contract:
//   - the first record of each segment is a meta with this format/version and a
//     procs count in [1, kMaxProcessors];
//   - sample records carry every counter key, indices count 0,1,2,... per segment,
//     ts_ns is monotone nondecreasing, dur_ns and every delta are non-negative;
//   - the summary's cumulative counters equal the field-wise sum of its segment's
//     sample deltas exactly, and its `samples` field matches the record count;
//   - only the final line may be torn or unparseable, and only the final segment
//     may lack its summary.
LiveValidateResult ValidateLiveFeed(const std::string& text);

}  // namespace ace

#endif  // SRC_OBS_LIVE_FEED_H_
