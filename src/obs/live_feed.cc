#include "src/obs/live_feed.h"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

#include "src/common/types.h"
#include "src/obs/snapshot.h"

namespace ace {

namespace {

const char* const kStateNames[4] = {"ro", "lw", "gw", "rh"};

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  *out += buf;
}

double Pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

std::uint64_t RefTotal(const std::array<std::uint64_t, kNumLiveCounters>& c) {
#define ACE_REF_LC(field, key) +c[kLc_##field]
  return 0 ACE_REF_CLASSES(ACE_REF_LC);
#undef ACE_REF_LC
}

std::uint64_t RefLocal(const std::array<std::uint64_t, kNumLiveCounters>& c) {
  return c[kLc_fetch_local] + c[kLc_store_local];
}

// A meta record's processor count. It sizes the per-processor tables, so it is
// range-checked as a double, before any cast: a value outside [1, kMaxProcessors]
// sets `error` and returns false.
bool ReadMetaProcs(const JsonValue& meta, int* procs, std::string* error) {
  const double n = meta.NumberOr("procs", 0);
  if (!(n >= 1 && n <= static_cast<double>(kMaxProcessors))) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "meta procs %g outside [1, %d]", n, kMaxProcessors);
    *error = buf;
    return false;
  }
  *procs = static_cast<int>(n);
  return true;
}

}  // namespace

// --- LiveFeedParser ----------------------------------------------------------------

bool LiveFeedParser::Feed(std::string_view bytes, std::vector<JsonValue>* out) {
  buf_.append(bytes.data(), bytes.size());
  std::size_t start = 0;
  bool ok = true;
  for (;;) {
    std::size_t nl = buf_.find('\n', start);
    if (nl == std::string::npos) {
      break;
    }
    std::string_view line(buf_.data() + start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (line.empty()) {
      continue;
    }
    JsonValue v;
    std::string error;
    if (!ParseJson(line, &v, &error)) {
      if (error_.empty()) {
        error_ = error;
      }
      ok = false;
      continue;
    }
    out->push_back(std::move(v));
  }
  buf_.erase(0, start);
  return ok;
}

// --- LiveFeedState -----------------------------------------------------------------

bool LiveFeedState::Apply(const JsonValue& rec) {
  const std::string type = rec.StringOr("type", "");
  if (type == "meta") {
    int procs = 0;
    if (!ReadMetaProcs(rec, &procs, &error)) {
      return false;
    }
    // New segment: keep segments_done, reset everything per-segment.
    have_meta = true;
    meta = LiveRunMeta{};
    meta.tool = rec.StringOr("tool", "?");
    meta.app = rec.StringOr("app", "?");
    meta.policy = rec.StringOr("policy", "?");
    meta.procs = procs;
    meta.threads = static_cast<int>(rec.NumberOr("threads", 0));
    meta.pages = static_cast<std::uint32_t>(rec.NumberOr("pages", 0));
    meta.page_size = static_cast<std::uint32_t>(rec.NumberOr("page_size", 0));
    meta.seed = static_cast<std::uint64_t>(rec.NumberOr("seed", 0));
    meta.fault_plan = rec.StringOr("fault_plan", "");
    meta.tlb = rec.NumberOr("tlb", 0) != 0;
    meta.sample_interval_ns = static_cast<std::int64_t>(rec.NumberOr("sample_interval_ns", 0));
    meta.tag = rec.StringOr("tag", "");
    totals.fill(0);
    last.fill(0);
    last_ts_ns = 0;
    last_dur_ns = 0;
    samples = 0;
    trace_dropped_total = 0;
    proc_totals.assign(static_cast<std::size_t>(procs), {});
    proc_last.assign(proc_totals.size(), {});
    hot.clear();
    finished = false;
    outcome.clear();
    return true;
  }
  if (type == "sample") {
    for (int i = 0; i < kNumLiveCounters; ++i) {
      const std::uint64_t d =
          static_cast<std::uint64_t>(rec.NumberOr(LiveCounterKey(i), 0));
      last[static_cast<std::size_t>(i)] = d;
      totals[static_cast<std::size_t>(i)] += d;
    }
    last_ts_ns = static_cast<std::int64_t>(rec.NumberOr("ts_ns", 0));
    last_dur_ns = static_cast<std::int64_t>(rec.NumberOr("dur_ns", 0));
    trace_dropped_total =
        static_cast<std::uint64_t>(rec.NumberOr("trace_dropped_total", 0));
    samples++;
    const JsonValue* procs = rec.Find("procs");
    if (procs != nullptr && procs->is_array()) {
      if (procs->items.size() > proc_totals.size()) {
        proc_totals.resize(procs->items.size());
        proc_last.resize(procs->items.size());
      }
      for (std::size_t p = 0; p < procs->items.size(); ++p) {
        const JsonValue& row = procs->items[p];
        if (!row.is_array()) {
          continue;
        }
        for (std::size_t k = 0; k < 8 && k < row.items.size(); ++k) {
          const std::uint64_t d = static_cast<std::uint64_t>(row.items[k].number);
          proc_last[p][k] = d;
          proc_totals[p][k] += d;
        }
      }
    }
    hot.clear();
    const JsonValue* hot_rows = rec.Find("hot");
    if (hot_rows != nullptr && hot_rows->is_array()) {
      for (const JsonValue& row : hot_rows->items) {
        if (!row.is_array() || row.items.size() < 5) {
          continue;
        }
        HotRow r;
        r.lp = static_cast<std::uint32_t>(row.items[0].number);
        r.local = static_cast<std::uint64_t>(row.items[1].number);
        r.global = static_cast<std::uint64_t>(row.items[2].number);
        r.remote = static_cast<std::uint64_t>(row.items[3].number);
        r.state = static_cast<std::uint32_t>(row.items[4].number);
        hot.push_back(r);
      }
    }
    return true;
  }
  if (type == "summary") {
    finished = true;
    outcome = rec.StringOr("outcome", "?");
    segments_done++;
    // The summary's cumulative counters are authoritative for the segment (quiet
    // trailing intervals emit no sample record but are inside these totals).
    for (int i = 0; i < kNumLiveCounters; ++i) {
      totals[static_cast<std::size_t>(i)] =
          static_cast<std::uint64_t>(rec.NumberOr(LiveCounterKey(i), 0));
    }
    last_ts_ns = static_cast<std::int64_t>(rec.NumberOr("ts_ns", last_ts_ns));
    trace_dropped_total =
        static_cast<std::uint64_t>(rec.NumberOr("trace_dropped_total", trace_dropped_total));
    return true;
  }
  // Unknown record types: ignore (a newer writer may add some).
  return true;
}

// --- rendering ---------------------------------------------------------------------

std::string RenderLiveFrame(const LiveFeedState& s, LiveView view, std::size_t top_n) {
  std::string out;
  if (!s.have_meta) {
    return "waiting for feed meta...\n";
  }

  Appendf(&out, "ace live — %s under %s (%d procs, %d threads, seed %llu)%s%s [%s]\n",
          s.meta.app.c_str(), s.meta.policy.c_str(), s.meta.procs, s.meta.threads,
          (unsigned long long)s.meta.seed, s.meta.tag.empty() ? "" : " ",
          s.meta.tag.c_str(), s.meta.tool.c_str());
  Appendf(&out, "segment %llu  sample %llu  t=%.3f ms  interval %.3f ms  %s%s\n",
          (unsigned long long)(s.segments_done + (s.finished ? 0 : 1)),
          (unsigned long long)s.samples, static_cast<double>(s.last_ts_ns) / 1e6,
          static_cast<double>(s.meta.sample_interval_ns) / 1e6,
          s.finished ? "done: " : "running", s.finished ? s.outcome.c_str() : "");

  const std::uint64_t int_refs = RefTotal(s.last);
  const std::uint64_t cum_refs = RefTotal(s.totals);
  const double int_ms = static_cast<double>(s.last_dur_ns) / 1e6;
  const std::uint64_t tlb_probes = s.totals[kLc_tlb_hits] + s.totals[kLc_tlb_misses];
  Appendf(&out,
          "refs %llu (%.1f%% local)  interval %llu (%.1f%% local, %.0f/ms)  "
          "tlb-hit %.1f%%  trace-drops %llu\n\n",
          (unsigned long long)cum_refs, Pct(RefLocal(s.totals), cum_refs),
          (unsigned long long)int_refs, Pct(RefLocal(s.last), int_refs),
          int_ms > 0 ? static_cast<double>(int_refs) / int_ms : 0.0,
          Pct(s.totals[kLc_tlb_hits], tlb_probes),
          (unsigned long long)s.trace_dropped_total);

  switch (view) {
    case LiveView::kHotPages: {
      out += "hot pages (interval deltas, ranked by off-node refs)\n";
      Appendf(&out, "%8s %10s %10s %10s %6s\n", "page", "local", "global", "remote",
              "state");
      if (s.hot.empty()) {
        out += "  (no page heat in the last interval — heat profiling off or idle)\n";
      }
      std::size_t rows = std::min(top_n, s.hot.size());
      for (std::size_t i = 0; i < rows; ++i) {
        const LiveFeedState::HotRow& r = s.hot[i];
        Appendf(&out, "%8u %10llu %10llu %10llu %6s\n", r.lp,
                (unsigned long long)r.local, (unsigned long long)r.global,
                (unsigned long long)r.remote,
                r.state < 4 ? kStateNames[r.state] : "?");
      }
      break;
    }
    case LiveView::kLocality: {
      out += "locality (references by class)\n";
      Appendf(&out, "%10s %14s %9s %14s %9s\n", "", "cumulative", "", "interval", "");
      struct Row {
        const char* name;
        LiveCounter c;
      };
      static const Row kRows[] = {
          {"fetch loc", kLc_fetch_local}, {"fetch glo", kLc_fetch_global},
          {"fetch rem", kLc_fetch_remote}, {"store loc", kLc_store_local},
          {"store glo", kLc_store_global}, {"store rem", kLc_store_remote},
      };
      for (const Row& r : kRows) {
        Appendf(&out, "%10s %14llu %8.1f%% %14llu %8.1f%%\n", r.name,
                (unsigned long long)s.totals[r.c], Pct(s.totals[r.c], cum_refs),
                (unsigned long long)s.last[r.c], Pct(s.last[r.c], int_refs));
      }
      Appendf(&out, "%10s %14llu %9s %14llu\n", "total", (unsigned long long)cum_refs,
              "", (unsigned long long)int_refs);
      break;
    }
    case LiveView::kPerProc: {
      out += "per-processor (cumulative refs; tlb rate over segment)\n";
      Appendf(&out, "%5s %12s %12s %12s %9s %9s\n", "proc", "local", "global", "remote",
              "int-refs", "tlb-hit");
      for (std::size_t p = 0; p < s.proc_totals.size(); ++p) {
        const std::array<std::uint64_t, 8>& t = s.proc_totals[p];
        const std::array<std::uint64_t, 8>& l = s.proc_last[p];
        const std::uint64_t local = t[0] + t[3];
        const std::uint64_t global = t[1] + t[4];
        const std::uint64_t remote = t[2] + t[5];
        const std::uint64_t int_p = l[0] + l[1] + l[2] + l[3] + l[4] + l[5];
        // dead_nodes accumulates the kill-node bitmask (bits only ever set, so the
        // per-interval deltas telescope to the current mask).
        const bool down = p < 64 && ((s.totals[kLc_dead_nodes] >> p) & 1u) != 0;
        Appendf(&out, "%5zu %12llu %12llu %12llu %9llu %8.1f%%%s\n", p,
                (unsigned long long)local, (unsigned long long)global,
                (unsigned long long)remote, (unsigned long long)int_p,
                Pct(t[6], t[6] + t[7]), down ? "  node DOWN" : "");
      }
      break;
    }
    case LiveView::kDecisions: {
      out += "policy decisions and protocol activity\n";
      Appendf(&out, "  decisions: local=%llu global=%llu remote-home=%llu  (interval "
              "%llu/%llu/%llu)\n",
              (unsigned long long)s.totals[kLc_dec_local],
              (unsigned long long)s.totals[kLc_dec_global],
              (unsigned long long)s.totals[kLc_dec_remote],
              (unsigned long long)s.last[kLc_dec_local],
              (unsigned long long)s.last[kLc_dec_global],
              (unsigned long long)s.last[kLc_dec_remote]);
#define ACE_PROTOCOL_LC(field, key) kLc_##field,
      static const LiveCounter kProtocol[] = {ACE_PROTOCOL_COUNTERS(ACE_PROTOCOL_LC)};
#undef ACE_PROTOCOL_LC
      Appendf(&out, "%12s %14s %14s\n", "", "cumulative", "interval");
      for (LiveCounter c : kProtocol) {
        Appendf(&out, "%12s %14llu %14llu\n", CounterLabel(LiveCounterKey(c)).c_str(),
                (unsigned long long)s.totals[c], (unsigned long long)s.last[c]);
      }
      // Chaos and SLO outcomes (DESIGN.md section 13). All-zero on chaos-free
      // runs, so print the block only once something moved — the common case
      // keeps its familiar frame.
      if (s.totals[kLc_chaos_events] != 0 || s.totals[kLc_evacuated_pages] != 0 ||
          s.totals[kLc_timeouts] != 0 || s.totals[kLc_retries] != 0 ||
          s.totals[kLc_shed] != 0) {
        Appendf(&out, "  chaos: events=%llu evacuated=%llu  slo: timeouts=%llu "
                "retries=%llu shed=%llu  (interval %llu/%llu/%llu/%llu/%llu)\n",
                (unsigned long long)s.totals[kLc_chaos_events],
                (unsigned long long)s.totals[kLc_evacuated_pages],
                (unsigned long long)s.totals[kLc_timeouts],
                (unsigned long long)s.totals[kLc_retries],
                (unsigned long long)s.totals[kLc_shed],
                (unsigned long long)s.last[kLc_chaos_events],
                (unsigned long long)s.last[kLc_evacuated_pages],
                (unsigned long long)s.last[kLc_timeouts],
                (unsigned long long)s.last[kLc_retries],
                (unsigned long long)s.last[kLc_shed]);
      }
      // Durability and recovery (DESIGN.md section 14). Non-zero only under a
      // permanent chaos event (kill-node / corrupt-page), so chaos-free frames —
      // and transient-chaos frames — are byte-identical to before.
      if (s.totals[kLc_replicated_pages] != 0 || s.totals[kLc_journal_bytes] != 0 ||
          s.totals[kLc_recovered_pages] != 0 || s.totals[kLc_lost_pages] != 0 ||
          s.totals[kLc_checksum_failures] != 0 || s.totals[kLc_dead_nodes] != 0) {
        Appendf(&out,
                "  recovery: replicated=%llu journal=%llu B recovered=%llu "
                "lost=%llu checksum-fails=%llu dead-nodes=0x%llx\n",
                (unsigned long long)s.totals[kLc_replicated_pages],
                (unsigned long long)s.totals[kLc_journal_bytes],
                (unsigned long long)s.totals[kLc_recovered_pages],
                (unsigned long long)s.totals[kLc_lost_pages],
                (unsigned long long)s.totals[kLc_checksum_failures],
                (unsigned long long)s.totals[kLc_dead_nodes]);
      }
      break;
    }
  }
  return out;
}

// --- validation --------------------------------------------------------------------

namespace {

// Validation's segment accumulator.
struct SegState {
  bool open = false;
  int procs = 0;
  std::uint64_t next_idx = 0;
  long long last_ts = -1;
  std::uint64_t dropped_total = 0;
  std::array<std::uint64_t, kNumLiveCounters> sums{};
};

bool Fail(LiveValidateResult* r, std::size_t lineno, const std::string& msg) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "line %zu: ", lineno);
  r->ok = false;
  r->error = buf + msg;
  return false;
}

}  // namespace

LiveValidateResult ValidateLiveFeed(const std::string& text) {
  LiveValidateResult res;
  res.ok = true;
  SegState seg;

  // Split keeping track of whether the final line was newline-terminated.
  std::vector<std::pair<std::size_t, std::string_view>> lines;  // (lineno, content)
  std::size_t start = 0;
  std::size_t lineno = 0;
  bool final_terminated = true;
  while (start < text.size()) {
    std::size_t nl = text.find('\n', start);
    std::size_t end = nl == std::string::npos ? text.size() : nl;
    ++lineno;
    std::string_view line(text.data() + start, end - start);
    if (!line.empty() && line.back() == '\r') {
      line.remove_suffix(1);
    }
    if (!line.empty()) {
      lines.emplace_back(lineno, line);
    }
    if (nl == std::string::npos) {
      final_terminated = false;
      break;
    }
    start = nl + 1;
  }

  for (std::size_t li = 0; li < lines.size(); ++li) {
    const bool is_final = li + 1 == lines.size();
    JsonValue v;
    std::string perr;
    if (!ParseJson(lines[li].second, &v, &perr)) {
      if (is_final) {
        // The one torn line a crash may leave: records are flushed one line at a time.
        res.torn_tail = true;
        break;
      }
      Fail(&res, lines[li].first, "unparseable record: " + perr);
      return res;
    }
    if (is_final && !final_terminated) {
      // Parses but never got its newline: the flush may still have been partial.
      // Treat as torn rather than trusting a possibly half-written record.
      res.torn_tail = true;
      break;
    }
    res.lines++;
    const std::string type = v.StringOr("type", "");
    if (type == "meta") {
      if (v.StringOr("format", "") != kLiveFeedFormat) {
        Fail(&res, lines[li].first, "meta record is not " + std::string(kLiveFeedFormat));
        return res;
      }
      if (static_cast<int>(v.NumberOr("version", 0)) != kLiveFeedVersion) {
        Fail(&res, lines[li].first, "unsupported feed version");
        return res;
      }
      if (seg.open) {
        // A crashed writer never reached its summary; the next appender (e.g. the
        // soak harness's next seed) legitimately starts a fresh segment.
        res.open_segment = true;
      }
      seg = SegState{};
      seg.open = true;
      std::string error;
      if (!ReadMetaProcs(v, &seg.procs, &error)) {
        Fail(&res, lines[li].first, error);
        return res;
      }
      continue;
    }
    if (type == "sample") {
      if (!seg.open) {
        Fail(&res, lines[li].first, "sample record outside any segment");
        return res;
      }
      const JsonValue* idxf = v.Find("idx");
      if (idxf == nullptr || !idxf->is_number() || idxf->number < 0 ||
          static_cast<std::uint64_t>(idxf->number) != seg.next_idx) {
        Fail(&res, lines[li].first, "sample index out of sequence");
        return res;
      }
      seg.next_idx++;
      const long long ts = static_cast<long long>(v.NumberOr("ts_ns", -1));
      const long long dur = static_cast<long long>(v.NumberOr("dur_ns", -1));
      if (ts < 0 || dur < 0) {
        Fail(&res, lines[li].first, "negative ts_ns/dur_ns");
        return res;
      }
      if (seg.last_ts >= 0 && ts < seg.last_ts) {
        Fail(&res, lines[li].first, "virtual timestamp regressed");
        return res;
      }
      seg.last_ts = ts;
      for (int i = 0; i < kNumLiveCounters; ++i) {
        const JsonValue* f = v.Find(LiveCounterKey(i));
        if (f == nullptr || !f->is_number()) {
          Fail(&res, lines[li].first,
               std::string("sample missing counter ") + LiveCounterKey(i));
          return res;
        }
        if (f->number < 0) {
          Fail(&res, lines[li].first,
               std::string("negative counter delta ") + LiveCounterKey(i));
          return res;
        }
        seg.sums[static_cast<std::size_t>(i)] += static_cast<std::uint64_t>(f->number);
      }
      const std::uint64_t dropped =
          static_cast<std::uint64_t>(v.NumberOr("trace_dropped_total", 0));
      if (dropped < seg.dropped_total) {
        Fail(&res, lines[li].first, "trace_dropped_total regressed");
        return res;
      }
      seg.dropped_total = dropped;
      const JsonValue* procs = v.Find("procs");
      if (procs == nullptr || !procs->is_array() ||
          procs->items.size() != static_cast<std::size_t>(seg.procs)) {
        Fail(&res, lines[li].first, "sample procs array missing or wrong length");
        return res;
      }
      for (const JsonValue& row : procs->items) {
        if (!row.is_array() || row.items.size() != 8) {
          Fail(&res, lines[li].first, "per-proc row is not 8 numbers");
          return res;
        }
        for (const JsonValue& n : row.items) {
          if (!n.is_number() || n.number < 0) {
            Fail(&res, lines[li].first, "negative per-proc delta");
            return res;
          }
        }
      }
      res.samples++;
      continue;
    }
    if (type == "summary") {
      if (!seg.open) {
        Fail(&res, lines[li].first, "summary record outside any segment");
        return res;
      }
      const JsonValue* nsamples = v.Find("samples");
      if (nsamples == nullptr || !nsamples->is_number() || nsamples->number < 0 ||
          static_cast<std::uint64_t>(nsamples->number) != seg.next_idx) {
        Fail(&res, lines[li].first, "summary sample count mismatch");
        return res;
      }
      const long long ts = static_cast<long long>(v.NumberOr("ts_ns", -1));
      if (ts < 0 || (seg.last_ts >= 0 && ts < seg.last_ts)) {
        Fail(&res, lines[li].first, "summary timestamp regressed");
        return res;
      }
      for (int i = 0; i < kNumLiveCounters; ++i) {
        const JsonValue* f = v.Find(LiveCounterKey(i));
        if (f == nullptr || !f->is_number()) {
          Fail(&res, lines[li].first,
               std::string("summary missing counter ") + LiveCounterKey(i));
          return res;
        }
        if (static_cast<std::uint64_t>(f->number) != seg.sums[static_cast<std::size_t>(i)]) {
          Fail(&res, lines[li].first,
               std::string("summary ") + LiveCounterKey(i) +
                   " does not equal the sum of its segment's sample deltas");
          return res;
        }
      }
      seg.open = false;
      res.segments++;
      continue;
    }
    Fail(&res, lines[li].first, "unknown record type '" + type + "'");
    return res;
  }

  if (seg.open) {
    res.open_segment = true;  // still being written (or writer died): tolerated
  }
  if (res.segments == 0 && !res.open_segment) {
    res.ok = false;
    res.error = "no ace-live-v1 segment found";
  }
  return res;
}

}  // namespace ace
