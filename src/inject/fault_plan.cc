#include "src/inject/fault_plan.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "src/common/check.h"

namespace ace {

namespace {

struct SiteName {
  FaultSite site;
  const char* name;
};

constexpr SiteName kSiteNames[kNumFaultSites] = {
    {FaultSite::kLocalExhausted, "local-exhausted"},
    {FaultSite::kGlobalPoolExhausted, "pool-exhausted"},
    {FaultSite::kPageoutVictimContention, "victim-contention"},
    {FaultSite::kFrameAllocTransient, "frame-alloc"},
    {FaultSite::kReplicationCopyFail, "copy-fail"},
    {FaultSite::kSkipSync, "skip-sync"},
    {FaultSite::kSkipMoveCount, "skip-move-count"},
};

struct ChaosName {
  ChaosKind kind;
  const char* name;
};

constexpr ChaosName kChaosNames[kNumChaosKinds] = {
    {ChaosKind::kDrainMem, "drain-mem"},
    {ChaosKind::kStallProc, "stall-proc"},
    {ChaosKind::kSlowLink, "slow-link"},
    {ChaosKind::kKillNode, "kill-node"},
    {ChaosKind::kCorruptPage, "corrupt-page"},
};

// How many ':'-separated trigger fields each chaos kind accepts: a trailing field
// the kind does not define is a parse error, not silently ignored junk.
int MaxChaosFields(ChaosKind kind) {
  switch (kind) {
    case ChaosKind::kDrainMem:
    case ChaosKind::kCorruptPage:
      return 4;  // NODE:T0:T1[:PERMILLE]
    case ChaosKind::kStallProc:
      return 3;  // NODE:T0:T1
    case ChaosKind::kSlowLink:
      return 4;  // NODE:T0:T1:MULT (required)
    case ChaosKind::kKillNode:
      return 2;  // NODE:T0
  }
  return 0;
}

// Plan names canonically use dashes; accept underscores as aliases so plans pasted
// from prose ("drain_mem") parse without a round of trial and error.
std::string NormalizeName(std::string_view name) {
  std::string out(name);
  std::replace(out.begin(), out.end(), '_', '-');
  return out;
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  *out = value;
  return true;
}

bool ParseProbability(std::string_view text, double* out) {
  if (text.empty()) {
    return false;
  }
  std::string buf(text);
  char* end = nullptr;
  double value = std::strtod(buf.c_str(), &end);
  if (end == nullptr || *end != '\0' || value < 0.0 || value > 1.0) {
    return false;
  }
  *out = value;
  return true;
}

std::string FormatProbability(double p) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p);
  return buf;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  for (const SiteName& s : kSiteNames) {
    if (s.site == site) {
      return s.name;
    }
  }
  return "?";
}

bool ParseFaultSite(std::string_view name, FaultSite* out) {
  std::string normalized = NormalizeName(name);
  for (const SiteName& s : kSiteNames) {
    if (normalized == s.name) {
      *out = s.site;
      return true;
    }
  }
  return false;
}

const char* ChaosKindName(ChaosKind kind) {
  for (const ChaosName& c : kChaosNames) {
    if (c.kind == kind) {
      return c.name;
    }
  }
  return "?";
}

bool ParseChaosKind(std::string_view name, ChaosKind* out) {
  std::string normalized = NormalizeName(name);
  for (const ChaosName& c : kChaosNames) {
    if (normalized == c.name) {
      *out = c.kind;
      return true;
    }
  }
  return false;
}

std::string ValidPlanNames() {
  std::string out;
  for (const SiteName& s : kSiteNames) {
    if (!out.empty()) {
      out += ", ";
    }
    out += s.name;
  }
  for (const ChaosName& c : kChaosNames) {
    out += ", ";
    out += c.name;
  }
  return out;
}

std::string ChaosEvent::Format() const {
  std::ostringstream out;
  out << ChaosKindName(kind) << '@' << node << ':' << t_begin;
  if (kind == ChaosKind::kKillNode) {
    return out.str();  // permanent: one timestamp, no window end
  }
  out << ':' << t_end;
  if (kind != ChaosKind::kStallProc) {
    out << ':' << permille;
  }
  return out.str();
}

std::string FaultSchedule::Format() const {
  std::ostringstream out;
  out << FaultSiteName(site) << '@';
  switch (kind) {
    case Kind::kNth:
      out << "nth:" << n;
      break;
    case Kind::kEveryK:
      out << "every:" << n;
      break;
    case Kind::kProbability:
      out << "p:" << FormatProbability(probability);
      if (seed != 0) {
        out << ':' << seed;
      }
      break;
    case Kind::kWindow:
      out << "window:" << t_begin << ':' << t_end;
      break;
    case Kind::kAlways:
      out << "always";
      break;
  }
  return out.str();
}

std::string FaultPlan::Format() const {
  std::string out;
  for (const FaultSchedule& s : schedules) {
    if (!out.empty()) {
      out += ';';
    }
    out += s.Format();
  }
  for (const ChaosEvent& e : chaos) {
    if (!out.empty()) {
      out += ';';
    }
    out += e.Format();
  }
  return out;
}

bool FaultPlan::Parse(std::string_view text, FaultPlan* out, std::string* error) {
  FaultPlan plan;
  // Every rejection names the offending schedule substring and its byte offset in
  // the plan text, so a bad entry buried in "a;b;c;d" is findable without bisecting.
  std::string_view item;
  std::size_t item_start = 0;
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + " in schedule '" + std::string(item) + "' at offset " +
               std::to_string(item_start);
    }
    return false;
  };

  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t sep = text.find(';', pos);
    item_start = pos;
    item = text.substr(pos, sep == std::string_view::npos ? sep : sep - pos);
    pos = sep == std::string_view::npos ? text.size() : sep + 1;
    if (item.empty()) {
      continue;  // tolerate stray separators ("a;;b", trailing ';')
    }

    std::size_t at = item.find('@');
    if (at == std::string_view::npos) {
      return fail("missing '@trigger'");
    }
    std::string_view trigger = item.substr(at + 1);

    auto field = [&trigger](std::size_t idx) -> std::string_view {
      // trigger fields are ':'-separated: kind[:a[:b]]
      std::size_t start = 0;
      for (std::size_t i = 0; i < idx; ++i) {
        std::size_t colon = trigger.find(':', start);
        if (colon == std::string_view::npos) {
          return {};
        }
        start = colon + 1;
      }
      std::size_t end = trigger.find(':', start);
      return trigger.substr(start, end == std::string_view::npos ? end : end - start);
    };

    ChaosKind chaos_kind;
    if (ParseChaosKind(item.substr(0, at), &chaos_kind)) {
      // Chaos events: NODE:T0:T1[:PERMILLE] (kill-node: NODE:T0 only). Every
      // argument is validated here — window ordering, permille ranges, field
      // counts — so a malformed plan is rejected with a named error instead of
      // being silently clamped at run time.
      ChaosEvent event;
      event.kind = chaos_kind;
      int num_fields = trigger.empty()
                           ? 0
                           : 1 + static_cast<int>(
                                     std::count(trigger.begin(), trigger.end(), ':'));
      if (num_fields > MaxChaosFields(chaos_kind)) {
        return fail(std::string(ChaosKindName(chaos_kind)) + " takes at most " +
                    std::to_string(MaxChaosFields(chaos_kind)) + " arguments");
      }
      std::uint64_t node = 0, t0 = 0, t1 = 0;
      if (!ParseU64(field(0), &node) || node >= static_cast<std::uint64_t>(kMaxProcessors)) {
        return fail("chaos event needs a node index below " + std::to_string(kMaxProcessors));
      }
      if (chaos_kind == ChaosKind::kKillNode) {
        // Permanent event: one timestamp, no recovery window.
        if (!ParseU64(field(1), &t0)) {
          return fail("kill-node needs NODE:T0 (the virtual ns the node dies)");
        }
        t1 = t0;
      } else if (!ParseU64(field(1), &t0) || !ParseU64(field(2), &t1) || t1 <= t0) {
        return fail("chaos event needs a window NODE:T0:T1 with T1 > T0");
      }
      event.node = static_cast<std::uint32_t>(node);
      event.t_begin = static_cast<TimeNs>(t0);
      event.t_end = static_cast<TimeNs>(t1);
      std::uint64_t permille = 0;
      switch (chaos_kind) {
        case ChaosKind::kDrainMem:
          // Optional remaining-capacity fraction; default 0 = hot-remove.
          if (!field(3).empty() && (!ParseU64(field(3), &permille) || permille > 1000)) {
            return fail("drain-mem permille must be in [0,1000]");
          }
          break;
        case ChaosKind::kStallProc:
        case ChaosKind::kKillNode:
          break;
        case ChaosKind::kSlowLink:
          if (!ParseU64(field(3), &permille) || permille < 1000) {
            return fail("slow-link needs a cost multiplier permille >= 1000");
          }
          break;
        case ChaosKind::kCorruptPage:
          // Optional corruption density; default 100 = 10% of resident frames.
          permille = 100;
          if (!field(3).empty() && (!ParseU64(field(3), &permille) || permille == 0 ||
                                    permille > 1000)) {
            return fail("corrupt-page permille must be in [1,1000]");
          }
          break;
      }
      event.permille = static_cast<std::uint32_t>(permille);
      plan.chaos.push_back(event);
      continue;
    }

    FaultSchedule sched;
    if (!ParseFaultSite(item.substr(0, at), &sched.site)) {
      return fail("unknown fault site or chaos event '" + std::string(item.substr(0, at)) +
                  "' (valid: " + ValidPlanNames() + ")");
    }

    std::string_view kind = field(0);

    if (kind == "always") {
      sched.kind = FaultSchedule::Kind::kAlways;
    } else if (kind == "nth" || kind == "every") {
      sched.kind = kind == "nth" ? FaultSchedule::Kind::kNth : FaultSchedule::Kind::kEveryK;
      if (!ParseU64(field(1), &sched.n) || sched.n == 0) {
        return fail("trigger '" + std::string(trigger) + "' needs a positive count");
      }
    } else if (kind == "p") {
      sched.kind = FaultSchedule::Kind::kProbability;
      if (!ParseProbability(field(1), &sched.probability)) {
        return fail("trigger '" + std::string(trigger) + "' needs a probability in [0,1]");
      }
      std::string_view seed_field = field(2);
      if (!seed_field.empty() && !ParseU64(seed_field, &sched.seed)) {
        return fail("trigger '" + std::string(trigger) + "' has a malformed seed");
      }
    } else if (kind == "window") {
      sched.kind = FaultSchedule::Kind::kWindow;
      std::uint64_t t0 = 0, t1 = 0;
      if (!ParseU64(field(1), &t0) || !ParseU64(field(2), &t1) || t1 <= t0) {
        return fail("trigger '" + std::string(trigger) + "' needs window:T0:T1 with T1 > T0");
      }
      sched.t_begin = static_cast<TimeNs>(t0);
      sched.t_end = static_cast<TimeNs>(t1);
    } else {
      return fail("unknown trigger kind '" + std::string(kind) + "'");
    }
    plan.schedules.push_back(sched);
  }
  *out = std::move(plan);
  return true;
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(std::move(plan)), seed_(seed) {
  rng_.reserve(plan_.schedules.size());
  for (std::size_t i = 0; i < plan_.schedules.size(); ++i) {
    // Distinct streams per schedule even when neither seed was given: fold in the
    // schedule's position so two p-triggers on one site do not fire in lockstep.
    rng_.emplace_back(seed_ ^ plan_.schedules[i].seed ^ (0x5851f42d4c957f2dULL * (i + 1)));
  }
}

TimeNs FaultInjector::Now(ProcId proc) const {
  if (clocks_ == nullptr) {
    return 0;
  }
  if (proc != kNoProc) {
    return clocks_->now(proc);
  }
  TimeNs max_now = 0;
  for (ProcId p = 0; p < clocks_->num_processors(); ++p) {
    max_now = std::max(max_now, clocks_->now(p));
  }
  return max_now;
}

bool FaultInjector::ShouldInject(FaultSite site, ProcId proc) {
  std::uint64_t occ = ++occurrences_[static_cast<std::size_t>(site)];
  bool fire = false;
  for (std::size_t i = 0; i < plan_.schedules.size(); ++i) {
    const FaultSchedule& s = plan_.schedules[i];
    if (s.site != site) {
      continue;
    }
    switch (s.kind) {
      case FaultSchedule::Kind::kNth:
        fire = fire || occ == s.n;
        break;
      case FaultSchedule::Kind::kEveryK:
        fire = fire || occ % s.n == 0;
        break;
      case FaultSchedule::Kind::kProbability:
        // Always draw, even if another schedule already fired: the stream must not
        // depend on which other schedules are in the plan being evaluated first.
        fire = rng_[i].Unit() < s.probability || fire;
        break;
      case FaultSchedule::Kind::kWindow: {
        TimeNs now = Now(proc);
        fire = fire || (now >= s.t_begin && now < s.t_end);
        break;
      }
      case FaultSchedule::Kind::kAlways:
        fire = true;
        break;
    }
  }
  if (fire) {
    fires_[static_cast<std::size_t>(site)]++;
  }
  return fire;
}

std::uint64_t FaultInjector::total_fires() const {
  std::uint64_t total = 0;
  for (std::uint64_t f : fires_) {
    total += f;
  }
  return total;
}

}  // namespace ace
