// ace_top — validate trace and live-telemetry files, and render or watch an
// ace-live-v1 feed from a running or finished simulation.
//
// Input is a Chrome trace-event JSON (ace_run --trace-out) for --validate, or an
// ace-live-v1 streaming feed (ace_run --live-out) for --validate, a static frame,
// --follow or --live. Validation parses the file with the in-tree JSON parser and
// checks the structural properties the writers guarantee: known event names,
// per-track timestamps monotone nondecreasing, and — for live feeds — non-negative
// per-interval deltas whose sum equals each segment's summary exactly, tolerating
// one torn final line. Every mode rejects a feed whose meta procs count lies outside
// the machine model.
//
// --live tails the feed into an interactive full-screen display (keys: 1-4 switch
// the hot-pages / locality / per-processor / decisions views, +/- resize the
// hot-pages table, q quits); when stdout is not a terminal it degrades to --follow,
// which prints a discrete text frame per new sample — the CI-log mode.
//
// The end-of-run tables come from ace_run --report, the per-page data from
// ace_run --heat-csv.
//
// Examples:
//   ace_run --app IMatMult --live-out live.jsonl
//   ace_top --view procs live.jsonl
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

#include "src/obs/json_lite.h"
#include "src/obs/live_feed.h"
#include "src/obs/trace_event.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: ace_top [--top N] [--validate | --follow | --live] FILE\n"
               "  FILE            an ace-live-v1 feed (ace_run --live-out), or a\n"
               "                  Chrome trace JSON (ace_run --trace-out) for --validate\n"
               "  --top N         rows in the hot-pages view (default 10)\n"
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

// Fold `records` into `state`; false, after reporting why, on a record the display
// cannot take.
bool ApplyAll(const std::vector<ace::JsonValue>& records, ace::LiveFeedState* state) {
  for (const ace::JsonValue& r : records) {
    if (!state->Apply(r)) {
      std::fprintf(stderr, "ace_top: %s\n", state->error.c_str());
      return false;
    }
  }
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
      // Only a *complete* malformed line fails the parse; a torn tail stays pending in
      // the parser and is retried when its newline arrives.
      const bool parsed = parser.Feed(std::string_view(buf, n), &records);
      if (!ApplyAll(records, &state)) {
        ret = 1;
        break;
      }
      if (!parsed) {
        std::fprintf(stderr, "ace_top: malformed feed line: %s\n",
                     parser.error().c_str());
        ret = 1;
        break;
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
  if (text.find_first_not_of(" \t\r\n") == std::string::npos) {
    std::fprintf(stderr, "ace_top: %s is empty\n", file.c_str());
    return 1;
  }
  // A Chrome trace is one JSON object; a live feed's meta line names its format.
  const bool live_feed = text.find("\"format\":\"ace-live-v1\"") != std::string::npos;
  if (validate) {
    return (live_feed ? ValidateLiveFile(text) : ValidateChromeTrace(text)) ? 0 : 1;
  }
  if (!live_feed) {
    std::fprintf(stderr,
                 "ace_top: %s is not an ace-live-v1 feed (ace_run --live-out); Chrome "
                 "traces only support --validate\n",
                 file.c_str());
    return 2;
  }
  // Static render of a finished feed: fold the whole file and print one frame.
  ace::LiveFeedParser parser;
  ace::LiveFeedState state;
  std::vector<ace::JsonValue> records;
  parser.Feed(text, &records);
  if (!ApplyAll(records, &state)) {
    return 1;
  }
  std::printf("%s", ace::RenderLiveFrame(state, view, top_n).c_str());
  return 0;
}
