// Exporters and report renderers for the observability layer.
//
// Two machine-readable formats plus the human-readable numatop-style reports:
//   * Chrome trace-event JSON (load in Perfetto / chrome://tracing): one instant
//     event per trace record, one track (tid) per processor; ace_top --validate
//     checks it;
//   * CSV heat table: one row per referenced page, for spreadsheets/pandas.
//
// The renderers (RenderHotPages / RenderLocality / RenderDecisions) produce the
// tables ace_run --report prints. The per-interval view of a run is the ace-live-v1
// feed (src/obs/live_stream.h), which ace_top renders.

#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <cstdint>
#include <iosfwd>
#include <string>

#include "src/obs/heat.h"
#include "src/obs/tracer.h"
#include "src/sim/stats.h"

namespace ace {

// What the Chrome trace exporter draws from; a null tracer writes only the metadata.
struct ExportContext {
  const Tracer* tracer = nullptr;
  const char* policy = "";
  const char* app = "";
};

// Chrome trace-event JSON ({"traceEvents":[...]}); requires ctx.tracer.
void WriteChromeTrace(const ExportContext& ctx, std::ostream& os);

// CSV heat table, one row per referenced page.
void WriteHeatCsv(const HeatProfile& heat, std::ostream& os);

// numatop-style "hot pages" table: top-N pages by remote+global traffic.
std::string RenderHotPages(const HeatProfile& heat, std::size_t top_n);

// Per-processor locality breakdown from the machine-wide reference counters.
std::string RenderLocality(const MachineStats& stats, int num_processors);

// Policy decision counts and machine-wide protocol event totals.
std::string RenderDecisions(const HeatProfile& heat);

}  // namespace ace

#endif  // SRC_OBS_EXPORT_H_
