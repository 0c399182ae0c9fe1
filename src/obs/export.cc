#include "src/obs/export.h"

#include <cstdarg>
#include <cstdio>
#include <ostream>

namespace ace {

namespace {

std::string Sprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  char buf[512];
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

// Short state tag for tables ("ro", "lw", "gw", "rh").
const char* StateTag(PageState s) {
  switch (s) {
    case PageState::kReadOnly:
      return "ro";
    case PageState::kLocalWritable:
      return "lw";
    case PageState::kGlobalWritable:
      return "gw";
    case PageState::kRemoteHomed:
      return "rh";
  }
  return "?";
}

}  // namespace

void WriteChromeTrace(const ExportContext& ctx, std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& obj) {
    if (!first) {
      os << ",";
    }
    os << "\n" << obj;
    first = false;
  };
  emit(Sprintf("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
               "\"args\":{\"name\":\"ace %s (%s)\"}}",
               ctx.app, ctx.policy));
  if (ctx.tracer != nullptr) {
    for (ProcId p = 0; p < ctx.tracer->num_processors(); ++p) {
      emit(Sprintf("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,"
                   "\"args\":{\"name\":\"cpu%d\"}}",
                   p, p));
    }
    for (ProcId p = 0; p < ctx.tracer->num_processors(); ++p) {
      ctx.tracer->ForEach(p, [&](const TraceEvent& e) {
        // Chrome trace timestamps are microseconds; %.3f keeps full ns resolution.
        emit(Sprintf("{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,"
                     "\"ts\":%.3f,\"args\":{\"lp\":%u,\"aux\":%u}}",
                     TraceEventTypeName(e.type), static_cast<int>(e.proc),
                     static_cast<double>(e.ts) / 1000.0, e.lp, e.aux));
      });
    }
  }
  os << "\n]}\n";
}

void WriteHeatCsv(const HeatProfile& heat, std::ostream& os) {
  os << "lp,state,total,local,global,remote,local_frac,faults,zero_fills,replicates,"
        "migrates,syncs,flushes,unmaps,pins,pageouts,pageins,alloc_fails,frees,"
        "bulk_migrates,degrades,recovers,t_ro_ns,t_lw_ns,t_gw_ns,t_rh_ns,"
        "procs_touching\n";
  for (LogicalPage lp = 0; lp < heat.num_pages(); ++lp) {
    const PageHeat& h = heat.page(lp);
    if (h.Total() == 0) {
      continue;
    }
    int procs_touching = 0;
    for (int p = 0; p < heat.num_processors(); ++p) {
      procs_touching += h.refs_by_proc[static_cast<std::size_t>(p)] != 0 ? 1 : 0;
    }
    os << Sprintf(
        "%u,%s,%llu,%llu,%llu,%llu,%.6f,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,%u,"
        "%lld,%lld,%lld,%lld,%d\n",
        lp, StateTag(h.state), (unsigned long long)h.Total(),
        (unsigned long long)h.LocalTotal(), (unsigned long long)h.GlobalTotal(),
        (unsigned long long)h.RemoteTotal(),
        h.LocalFraction(),
        h.Count(TraceEventType::kPageFault), h.Count(TraceEventType::kZeroFill),
        h.Count(TraceEventType::kReplicate), h.Count(TraceEventType::kMigrate),
        h.Count(TraceEventType::kSync), h.Count(TraceEventType::kFlush),
        h.Count(TraceEventType::kUnmap), h.Count(TraceEventType::kPin),
        h.Count(TraceEventType::kPageout), h.Count(TraceEventType::kPagein),
        h.Count(TraceEventType::kLocalAllocFail), h.Count(TraceEventType::kFree),
        h.Count(TraceEventType::kBulkMigrate), h.Count(TraceEventType::kDegrade),
        h.Count(TraceEventType::kRecover),
        (long long)h.time_in_state[0], (long long)h.time_in_state[1],
        (long long)h.time_in_state[2], (long long)h.time_in_state[3], procs_touching);
  }
}

std::string RenderHotPages(const HeatProfile& heat, std::size_t top_n) {
  std::vector<LogicalPage> top = heat.TopPages(top_n);
  std::size_t referenced = 0;
  for (LogicalPage lp = 0; lp < heat.num_pages(); ++lp) {
    referenced += heat.page(lp).Total() != 0 ? 1 : 0;
  }
  std::string out = Sprintf(
      "hot pages by off-node (global+remote) traffic — top %zu of %zu referenced\n"
      "%6s %5s %10s %7s %10s %9s %6s %6s %6s %6s %5s %6s\n",
      top.size(), referenced, "lp", "state", "total", "local%", "global", "remote",
      "moves", "repl", "syncs", "flush", "pins", "procs");
  for (LogicalPage lp : top) {
    const PageHeat& h = heat.page(lp);
    int procs_touching = 0;
    for (int p = 0; p < heat.num_processors(); ++p) {
      procs_touching += h.refs_by_proc[static_cast<std::size_t>(p)] != 0 ? 1 : 0;
    }
    out += Sprintf("%6u %5s %10llu %6.1f%% %10llu %9llu %6u %6u %6u %6u %5u %6d\n", lp,
                   StateTag(h.state), (unsigned long long)h.Total(),
                   100.0 * h.LocalFraction(),
                   (unsigned long long)h.GlobalTotal(), (unsigned long long)h.RemoteTotal(),
                   h.Count(TraceEventType::kMigrate), h.Count(TraceEventType::kReplicate),
                   h.Count(TraceEventType::kSync), h.Count(TraceEventType::kFlush),
                   h.Count(TraceEventType::kPin), procs_touching);
  }
  return out;
}

std::string RenderLocality(const MachineStats& stats, int num_processors) {
  std::string out = Sprintf("per-processor locality breakdown\n%6s %12s %12s %7s %12s %12s\n",
                            "proc", "total", "local", "local%", "global", "remote");
  auto row = [&](const char* label, const ProcRefCounts& c) {
    out += Sprintf("%6s %12llu %12llu %6.1f%% %12llu %12llu\n", label,
                   (unsigned long long)c.Total(), (unsigned long long)c.LocalTotal(),
                   100.0 * c.LocalFraction(), (unsigned long long)c.GlobalTotal(),
                   (unsigned long long)c.RemoteTotal());
  };
  for (ProcId p = 0; p < num_processors; ++p) {
    row(Sprintf("cpu%d", p).c_str(), stats.refs[static_cast<std::size_t>(p)]);
  }
  row("all", stats.TotalRefs());
  return out;
}

std::string RenderDecisions(const HeatProfile& heat) {
  std::uint64_t total = heat.total_decisions();
  auto pct = [&](Placement p) {
    return total == 0 ? 0.0 : 100.0 * static_cast<double>(heat.decisions(p)) / total;
  };
  std::string out = Sprintf(
      "policy decisions: LOCAL %llu (%.1f%%)  GLOBAL %llu (%.1f%%)  REMOTE %llu (%.1f%%)\n",
      (unsigned long long)heat.decisions(Placement::kLocal), pct(Placement::kLocal),
      (unsigned long long)heat.decisions(Placement::kGlobal), pct(Placement::kGlobal),
      (unsigned long long)heat.decisions(Placement::kRemoteHome), pct(Placement::kRemoteHome));
  out += "protocol events: ";
  for (int t = 0; t < kNumTraceEventTypes; ++t) {
    TraceEventType type = static_cast<TraceEventType>(t);
    out += Sprintf("%s%s=%llu", t == 0 ? "" : " ", TraceEventTypeName(type),
                   (unsigned long long)heat.machine_events(type));
  }
  out += "\n";
  return out;
}

}  // namespace ace
