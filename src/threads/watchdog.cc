#include "src/threads/watchdog.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "src/machine/machine.h"
#include "src/obs/trace_event.h"
#include "src/obs/tracer.h"

namespace ace {

std::string BuildKillReport(const Machine& machine, const std::string& summary) {
  std::string out = summary;

  const MachineStats& stats = machine.stats();
  char line[192];
  std::snprintf(line, sizeof line,
                "\n  counters: ownership_moves=%llu page_syncs=%llu page_copies=%llu "
                "page_faults=%llu pages_pinned=%llu",
                static_cast<unsigned long long>(stats.ownership_moves),
                static_cast<unsigned long long>(stats.page_syncs),
                static_cast<unsigned long long>(stats.page_copies),
                static_cast<unsigned long long>(stats.page_faults),
                static_cast<unsigned long long>(stats.pages_pinned));
  out += line;

  const Observability* obs = machine.observability_if_attached();
  if (obs == nullptr || !obs->tracing()) {
    out += "\n  (enable event tracing for the ping-pong page and event history)";
    return out;
  }

  // Scan the retained per-processor rings (bounded history by construction): the
  // page with the most consistency traffic is the livelock suspect, and the tail of
  // the merged event stream shows what the machine was doing when it was killed.
  const Tracer& tracer = obs->tracer();
  std::map<LogicalPage, std::uint64_t> moves_per_page;
  std::vector<TraceEvent> events;
  for (ProcId p = 0; p < tracer.num_processors(); ++p) {
    tracer.ForEach(p, [&](const TraceEvent& e) {
      if (e.type == TraceEventType::kMigrate || e.type == TraceEventType::kSync) {
        moves_per_page[e.lp]++;
      }
      events.push_back(e);
    });
  }

  if (!moves_per_page.empty()) {
    auto hottest = std::max_element(
        moves_per_page.begin(), moves_per_page.end(),
        [](const auto& a, const auto& b) { return a.second < b.second; });
    std::snprintf(line, sizeof line,
                  "\n  ping-pong suspect: lp=%u with %llu migrate/sync events in the "
                  "retained history",
                  static_cast<unsigned>(hottest->first),
                  static_cast<unsigned long long>(hottest->second));
    out += line;
  }

  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& a, const TraceEvent& b) { return a.ts < b.ts; });
  std::size_t start =
      events.size() > kKillReportEvents ? events.size() - kKillReportEvents : 0;
  std::snprintf(line, sizeof line, "\n  last %zu trace event(s):", events.size() - start);
  out += line;
  for (std::size_t i = start; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::snprintf(line, sizeof line, "\n    t=%lld p%d %s lp=%u aux=%u",
                  static_cast<long long>(e.ts), static_cast<int>(e.proc),
                  TraceEventTypeName(e.type), static_cast<unsigned>(e.lp), e.aux);
    out += line;
  }
  return out;
}

}  // namespace ace
