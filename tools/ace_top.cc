// ace_top — render numatop-style reports from an observability dump, validate
// trace and live-telemetry files, and watch a running simulation live.
//
// Input is either a JSONL dump (ace_run --jsonl-out) for the reports, a Chrome
// trace-event JSON (ace_run --trace-out) / JSONL for --validate, or an ace-live-v1
// streaming feed (ace_run --live-out) for --validate / --follow / --live.
// Validation parses the file with the in-tree JSON parser and checks the structural
// properties the writers guarantee: known event names, per-processor timestamps
// monotone nondecreasing, and — for live feeds — non-negative per-interval deltas
// whose sum equals each segment's summary exactly, tolerating one torn final line.
//
// --live tails the feed into an interactive full-screen display (keys: 1-4 switch
// the hot-pages / locality / per-processor / decisions views, +/- resize the
// hot-pages table, q quits); when stdout is not a terminal it degrades to --follow,
// which prints a discrete text frame per new sample — the CI-log mode.
//
// Examples:
//   ace_run --app IMatMult --jsonl-out run.jsonl
//   ace_top run.jsonl
//   ace_top --validate trace.json
//   ace_run --app IMatMult --live-out live.jsonl &  ace_top --live live.jsonl
//   ace_top --follow --timeout 30 live.jsonl

#include <poll.h>
#include <termios.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/heat.h"
#include "src/obs/json_lite.h"
#include "src/obs/live_feed.h"
#include "src/sim/stats.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ace_top [--top N] [--validate | --follow | --live] FILE\n"
               "  FILE            JSONL dump from ace_run --jsonl-out (reports), a\n"
               "                  Chrome trace JSON / JSONL for --validate, or an\n"
               "                  ace-live-v1 feed (ace_run --live-out)\n"
               "  --top N         rows in the hot-pages table (default 10)\n"
               "  --validate      parse FILE and check its format's invariants\n"
               "  --live          tail an ace-live-v1 feed interactively (TUI);\n"
               "                  falls back to --follow when stdout is not a tty\n"
               "  --follow        tail an ace-live-v1 feed as periodic text frames\n"
               "  --view V        initial view: hot|locality|procs|decisions\n"
               "  --timeout S     give up tailing after S seconds without a summary\n");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "ace_top: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Map an exported event name back to its TraceEventType; -1 for non-protocol names
// (metadata events in Chrome traces).
int EventTypeByName(const std::string& name) {
  for (int t = 0; t < ace::kNumTraceEventTypes; ++t) {
    if (name == ace::TraceEventTypeName(static_cast<ace::TraceEventType>(t))) {
      return t;
    }
  }
  return -1;
}

// --- validation ------------------------------------------------------------------------

bool ValidateChromeTrace(const std::string& text) {
  ace::JsonValue doc;
  std::string error;
  if (!ace::ParseJson(text, &doc, &error)) {
    std::fprintf(stderr, "ace_top: JSON parse error: %s\n", error.c_str());
    return false;
  }
  const ace::JsonValue* events = doc.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    std::fprintf(stderr, "ace_top: no traceEvents array\n");
    return false;
  }
  std::map<int, double> last_ts;  // per tid
  std::size_t instants = 0;
  for (const ace::JsonValue& e : events->items) {
    if (!e.is_object()) {
      std::fprintf(stderr, "ace_top: traceEvents entry is not an object\n");
      return false;
    }
    if (e.StringOr("ph", "") != "i") {
      continue;  // metadata
    }
    std::string name = e.StringOr("name", "");
    if (EventTypeByName(name) < 0) {
      std::fprintf(stderr, "ace_top: unknown event name '%s'\n", name.c_str());
      return false;
    }
    int tid = static_cast<int>(e.NumberOr("tid", -1));
    double ts = e.NumberOr("ts", -1.0);
    if (tid < 0 || ts < 0) {
      std::fprintf(stderr, "ace_top: instant event without tid/ts\n");
      return false;
    }
    auto it = last_ts.find(tid);
    if (it != last_ts.end() && ts < it->second) {
      std::fprintf(stderr, "ace_top: timestamps regress on tid %d (%.3f < %.3f)\n", tid,
                   ts, it->second);
      return false;
    }
    last_ts[tid] = ts;
    ++instants;
  }
  std::printf("valid Chrome trace: %zu events on %zu tracks, timestamps monotone\n",
              instants, last_ts.size());
  return true;
}

bool ValidateJsonl(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::map<int, long long> last_ts;  // per proc
  std::size_t lineno = 0;
  std::size_t events = 0;
  bool saw_meta = false;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    ace::JsonValue v;
    std::string error;
    if (!ace::ParseJson(line, &v, &error)) {
      std::fprintf(stderr, "ace_top: line %zu: %s\n", lineno, error.c_str());
      return false;
    }
    std::string type = v.StringOr("type", "");
    if (type == "meta") {
      if (v.StringOr("format", "") != "ace-obs") {
        std::fprintf(stderr, "ace_top: line %zu: not an ace-obs dump\n", lineno);
        return false;
      }
      saw_meta = true;
    } else if (type == "event") {
      if (EventTypeByName(v.StringOr("ev", "")) < 0) {
        std::fprintf(stderr, "ace_top: line %zu: unknown event type\n", lineno);
        return false;
      }
      int proc = static_cast<int>(v.NumberOr("proc", -1));
      long long ts = static_cast<long long>(v.NumberOr("ts_ns", -1));
      if (proc < 0 || ts < 0) {
        std::fprintf(stderr, "ace_top: line %zu: event without proc/ts_ns\n", lineno);
        return false;
      }
      auto it = last_ts.find(proc);
      if (it != last_ts.end() && ts < it->second) {
        std::fprintf(stderr, "ace_top: line %zu: timestamps regress on proc %d\n", lineno,
                     proc);
        return false;
      }
      last_ts[proc] = ts;
      ++events;
    }
  }
  if (!saw_meta) {
    std::fprintf(stderr, "ace_top: missing meta line\n");
    return false;
  }
  std::printf("valid ace-obs JSONL: %zu events on %zu processors, timestamps monotone\n",
              events, last_ts.size());
  return true;
}

// --- ace-live-v1 feeds -----------------------------------------------------------------

double MonotoneNow() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

void SleepMs(int ms) {
  timespec ts{ms / 1000, (ms % 1000) * 1'000'000L};
  nanosleep(&ts, nullptr);
}

bool ValidateLiveFile(const std::string& text) {
  ace::LiveValidateResult r = ace::ValidateLiveFeed(text);
  if (!r.ok) {
    std::fprintf(stderr, "ace_top: %s\n", r.error.c_str());
    return false;
  }
  std::printf(
      "valid ace-live-v1 feed: %zu segments, %zu samples — timestamps monotone, "
      "deltas non-negative, summaries equal their delta sums%s%s\n",
      r.segments, r.samples, r.torn_tail ? "; torn final line tolerated" : "",
      r.open_segment ? "; unterminated segment tolerated" : "");
  return true;
}

// Put the terminal into non-canonical, no-echo mode for the TUI's keys; restored on
// destruction. Degrades silently when stdin is not a terminal.
struct RawTty {
  termios orig{};
  bool active = false;
  RawTty() {
    if (tcgetattr(STDIN_FILENO, &orig) == 0) {
      termios raw = orig;
      raw.c_lflag &= ~static_cast<tcflag_t>(ICANON | ECHO);
      raw.c_cc[VMIN] = 0;
      raw.c_cc[VTIME] = 0;
      active = tcsetattr(STDIN_FILENO, TCSANOW, &raw) == 0;
    }
  }
  ~RawTty() {
    if (active) {
      tcsetattr(STDIN_FILENO, TCSANOW, &orig);
    }
  }
};

// Tail `path`, folding records into a LiveFeedState and rendering frames.
//
// TUI mode: full-screen, keyboard-driven, stays up across segments until q (or the
// timeout). Follow mode: one plain-text frame per batch of new samples; exits 0 at
// EOF once the feed's last complete record was a summary — so following a finished
// feed renders it once and returns, the CI shape. Returns 3 on timeout, 1 on a
// malformed (complete) feed line.
int TailLiveFeed(const std::string& path, bool tui, ace::LiveView view,
                 std::size_t top_n, long timeout_sec) {
  const double start = MonotoneNow();
  std::FILE* f = nullptr;
  while ((f = std::fopen(path.c_str(), "rb")) == nullptr) {
    if (timeout_sec > 0 && MonotoneNow() - start > static_cast<double>(timeout_sec)) {
      std::fprintf(stderr, "ace_top: timed out waiting for %s\n", path.c_str());
      return 3;
    }
    SleepMs(100);
  }

  ace::LiveFeedParser parser;
  ace::LiveFeedState state;
  RawTty* raw = nullptr;
  if (tui) {
    raw = new RawTty();
    std::printf("\x1b[?25l");  // hide cursor
  }
  auto render = [&] {
    std::string frame = ace::RenderLiveFrame(state, view, top_n);
    if (tui) {
      std::printf("\x1b[H\x1b[2J%s\nkeys: 1 hot-pages  2 locality  3 per-proc  "
                  "4 decisions  +/- rows  q quit\n",
                  frame.c_str());
    } else {
      std::printf("%s\n", frame.c_str());
    }
    std::fflush(stdout);
  };

  int ret = 0;
  bool dirty = true;  // render at least once, even on an empty feed
  std::vector<ace::JsonValue> records;
  for (;;) {
    char buf[1 << 16];
    std::size_t n = std::fread(buf, 1, sizeof buf, f);
    if (n > 0) {
      records.clear();
      if (!parser.Feed(std::string_view(buf, n), &records)) {
        // Only a *complete* malformed line lands here; a torn tail stays pending in
        // the parser and is retried when its newline arrives.
        for (const ace::JsonValue& r : records) {
          state.Apply(r);
        }
        std::fprintf(stderr, "ace_top: malformed feed line: %s\n",
                     parser.error().c_str());
        ret = 1;
        break;
      }
      for (const ace::JsonValue& r : records) {
        state.Apply(r);
      }
      if (!records.empty()) {
        dirty = true;
      }
      if (n == sizeof buf) {
        continue;  // drain what is already on disk before rendering
      }
    }

    if (dirty) {
      render();
      dirty = false;
    }
    // EOF for now. Follow mode is done once the feed's last complete record closed a
    // segment; the TUI stays up (a bench/soak writer may append another segment).
    if (!tui && state.finished) {
      break;
    }
    if (timeout_sec > 0 && MonotoneNow() - start > static_cast<double>(timeout_sec)) {
      if (!state.finished) {
        std::fprintf(stderr, "ace_top: timed out waiting for a summary record\n");
        ret = 3;
      }
      break;
    }
    if (tui) {
      pollfd pfd{STDIN_FILENO, POLLIN, 0};
      poll(&pfd, 1, 100);
      char key;
      bool quit = false;
      while (read(STDIN_FILENO, &key, 1) == 1) {
        switch (key) {
          case 'q':
          case 'Q':
            quit = true;
            break;
          case '1':
            view = ace::LiveView::kHotPages;
            break;
          case '2':
            view = ace::LiveView::kLocality;
            break;
          case '3':
            view = ace::LiveView::kPerProc;
            break;
          case '4':
            view = ace::LiveView::kDecisions;
            break;
          case '+':
            top_n++;
            break;
          case '-':
            if (top_n > 1) {
              top_n--;
            }
            break;
          default:
            continue;
        }
        dirty = true;
      }
      if (quit) {
        break;
      }
      if (dirty) {
        render();
        dirty = false;
      }
    } else {
      SleepMs(200);
    }
    std::clearerr(f);
  }
  std::fclose(f);
  if (tui) {
    std::printf("\x1b[?25h");  // show cursor
    std::fflush(stdout);
    delete raw;
  }
  return ret;
}

// --- report rendering ------------------------------------------------------------------

// The six reference-class counts of a "proc" or "heat" line, keyed by class name.
void ReadRefClasses(const ace::JsonValue& v, ace::ProcRefCounts* out) {
  for (const auto& r : ace::kRefClasses) {
    out->*r.member = static_cast<std::uint64_t>(v.NumberOr(r.key, 0));
  }
}

int RenderFromJsonl(const std::string& text, std::size_t top_n) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;

  double meta_procs = 0;
  std::uint32_t pages = 0;
  std::string app;
  std::string policy;
  ace::MachineStats stats;
  std::vector<ace::JsonValue> heat_lines;
  ace::JsonValue decisions_line;
  bool have_decisions = false;

  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) {
      continue;
    }
    ace::JsonValue v;
    std::string error;
    if (!ace::ParseJson(line, &v, &error)) {
      std::fprintf(stderr, "ace_top: line %zu: %s\n", lineno, error.c_str());
      return 1;
    }
    std::string type = v.StringOr("type", "");
    if (type == "meta") {
      if (v.StringOr("format", "") != "ace-obs") {
        std::fprintf(stderr, "ace_top: not an ace-obs JSONL dump (need --jsonl-out)\n");
        return 1;
      }
      meta_procs = v.NumberOr("procs", 0);
      pages = static_cast<std::uint32_t>(v.NumberOr("pages", 0));
      app = v.StringOr("app", "?");
      policy = v.StringOr("policy", "?");
    } else if (type == "proc") {
      int p = static_cast<int>(v.NumberOr("proc", -1));
      if (p >= 0 && p < static_cast<int>(ace::kMaxProcessors)) {
        ReadRefClasses(v, &stats.refs[static_cast<std::size_t>(p)]);
      }
    } else if (type == "decisions") {
      decisions_line = v;
      have_decisions = true;
    } else if (type == "heat") {
      heat_lines.push_back(std::move(v));
    }
  }
  if (meta_procs == 0 || pages == 0) {
    std::fprintf(stderr, "ace_top: missing or incomplete meta line\n");
    return 1;
  }
  // The per-processor tables below hold kMaxProcessors rows; a larger count would
  // read past them.
  if (!(meta_procs >= 1 && meta_procs <= static_cast<double>(ace::kMaxProcessors))) {
    std::fprintf(stderr, "ace_top: meta procs %g outside [1, %d]\n", meta_procs,
                 static_cast<int>(ace::kMaxProcessors));
    return 1;
  }
  const int procs = static_cast<int>(meta_procs);

  ace::HeatProfile heat(procs, pages);
  if (have_decisions) {
    heat.AddDecisions(ace::Placement::kLocal,
                      static_cast<std::uint64_t>(decisions_line.NumberOr("local", 0)));
    heat.AddDecisions(ace::Placement::kGlobal,
                      static_cast<std::uint64_t>(decisions_line.NumberOr("global", 0)));
    heat.AddDecisions(ace::Placement::kRemoteHome,
                      static_cast<std::uint64_t>(decisions_line.NumberOr("remote_home", 0)));
  }
  // Per-event-type JSONL keys, in TraceEventType order.
  static const char* const kEventKeys[ace::kNumTraceEventTypes] = {
      "faults",  "zero_fills", "replicates", "migrates",    "syncs",
      "flushes", "unmaps",     "pins",       "pageouts",    "pageins",
      "alloc_fails", "frees",  "bulk_migrates", "degrades", "recovers"};
  for (const ace::JsonValue& v : heat_lines) {
    std::uint32_t lp = static_cast<std::uint32_t>(v.NumberOr("lp", pages));
    if (lp >= pages) {
      continue;
    }
    ace::PageHeat& h = heat.MutablePage(lp);
    ReadRefClasses(v, &h);
    std::string state = v.StringOr("state", "ro");
    h.state = state == "lw"   ? ace::PageState::kLocalWritable
              : state == "gw" ? ace::PageState::kGlobalWritable
              : state == "rh" ? ace::PageState::kRemoteHomed
                              : ace::PageState::kReadOnly;
    for (int t = 0; t < ace::kNumTraceEventTypes; ++t) {
      std::uint32_t n = static_cast<std::uint32_t>(v.NumberOr(kEventKeys[t], 0));
      h.events[static_cast<std::size_t>(t)] = n;
      heat.AddMachineEvents(static_cast<ace::TraceEventType>(t), n);
    }
    h.time_in_state[0] = static_cast<ace::TimeNs>(v.NumberOr("t_ro_ns", 0));
    h.time_in_state[1] = static_cast<ace::TimeNs>(v.NumberOr("t_lw_ns", 0));
    h.time_in_state[2] = static_cast<ace::TimeNs>(v.NumberOr("t_gw_ns", 0));
    h.time_in_state[3] = static_cast<ace::TimeNs>(v.NumberOr("t_rh_ns", 0));
    const ace::JsonValue* by_proc = v.Find("by_proc");
    if (by_proc != nullptr && by_proc->is_array()) {
      for (std::size_t p = 0; p < by_proc->items.size() && p < ace::kMaxProcessors; ++p) {
        h.refs_by_proc[p] = static_cast<std::uint64_t>(by_proc->items[p].number);
      }
    }
  }

  std::printf("ace_top — %s under %s (%d processors, %u pages)\n\n", app.c_str(),
              policy.c_str(), procs, pages);
  std::printf("%s\n", ace::RenderHotPages(heat, top_n).c_str());
  std::printf("%s\n", ace::RenderLocality(stats, procs).c_str());
  std::printf("%s", ace::RenderDecisions(heat).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t top_n = 10;
  bool validate = false;
  bool follow = false;
  bool live = false;
  long timeout_sec = 0;
  ace::LiveView view = ace::LiveView::kHotPages;
  std::string file;

  auto parse_view = [&](const std::string& v) -> bool {
    if (v == "hot") {
      view = ace::LiveView::kHotPages;
    } else if (v == "locality") {
      view = ace::LiveView::kLocality;
    } else if (v == "procs") {
      view = ace::LiveView::kPerProc;
    } else if (v == "decisions") {
      view = ace::LiveView::kDecisions;
    } else {
      std::fprintf(stderr, "ace_top: unknown view '%s'\n", v.c_str());
      return false;
    }
    return true;
  };

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      Usage();
      return 0;
    } else if (arg == "--validate") {
      validate = true;
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg == "--live") {
      live = true;
    } else if (arg == "--top") {
      top_n = static_cast<std::size_t>(std::atol(next()));
    } else if (arg.rfind("--top=", 0) == 0) {
      top_n = static_cast<std::size_t>(std::atol(arg.c_str() + 6));
    } else if (arg == "--timeout") {
      timeout_sec = std::atol(next());
    } else if (arg.rfind("--timeout=", 0) == 0) {
      timeout_sec = std::atol(arg.c_str() + 10);
    } else if (arg == "--view") {
      if (!parse_view(next())) {
        return 2;
      }
    } else if (arg.rfind("--view=", 0) == 0) {
      if (!parse_view(arg.substr(7))) {
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "ace_top: unknown option '%s'\n", arg.c_str());
      Usage();
      return 2;
    } else {
      file = arg;
    }
  }
  if (file.empty()) {
    Usage();
    return 2;
  }

  if (live || follow) {
    // --live needs a terminal for the full-screen display; anything else (CI logs,
    // pipes) gets the discrete-frame follow mode.
    bool tui = live && isatty(STDOUT_FILENO) == 1;
    return TailLiveFeed(file, tui, view, top_n, timeout_sec);
  }

  std::string text = ReadFile(file);
  // A Chrome trace is one JSON object; the JSONL dumps start with a meta line (the
  // live feed's meta names its format). Sniff by content.
  auto pos = text.find_first_not_of(" \t\r\n");
  bool looks_live = text.find("\"format\":\"ace-live-v1\"") != std::string::npos;
  bool looks_jsonl = text.find("\"type\":\"meta\"") != std::string::npos &&
                     text.find("\"traceEvents\"") == std::string::npos;
  if (pos == std::string::npos) {
    std::fprintf(stderr, "ace_top: %s is empty\n", file.c_str());
    return 1;
  }

  if (validate) {
    bool ok = looks_live    ? ValidateLiveFile(text)
              : looks_jsonl ? ValidateJsonl(text)
                            : ValidateChromeTrace(text);
    return ok ? 0 : 1;
  }
  if (looks_live) {
    // Static render of a finished feed: fold the whole file and print one frame.
    ace::LiveFeedParser parser;
    ace::LiveFeedState state;
    std::vector<ace::JsonValue> records;
    parser.Feed(text, &records);
    for (const ace::JsonValue& r : records) {
      state.Apply(r);
    }
    std::printf("%s", ace::RenderLiveFrame(state, view, top_n).c_str());
    return 0;
  }
  if (!looks_jsonl) {
    std::fprintf(stderr,
                 "ace_top: reports need the JSONL dump (ace_run --jsonl-out); Chrome "
                 "traces only support --validate\n");
    return 2;
  }
  return RenderFromJsonl(text, top_n);
}
