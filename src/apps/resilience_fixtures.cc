// Hidden applications exercising the run-resilience layer (watchdog and
// quarantine). Resolvable through CreateAppByName — so a sweep cell, a failures.json
// replay line, or a test can name them — but deliberately NOT part of
// AllAppFactories: they must never appear in a suite, a table, or a baseline.
//
//   PingPongForever — every thread FetchAdds one shared word in an infinite loop.
//       With the pin disabled (move_threshold = inf) the page's ownership migrates
//       on nearly every access and never settles: the exact livelock pathology the
//       paper's move-threshold exists to prevent (section 2.3.2), and the one the
//       watchdog's move budget detects. Terminates only by watchdog kill.
//   ThrowOnRun — thread 0 throws a std::runtime_error after a few references; the
//       runtime unwinds the sibling fibers and rethrows from Runtime::Run. Exercises
//       in-process cancellation: the worker slot and thread_local dispatch state
//       must survive for the next cell on the same host thread.

#include <stdexcept>

#include "src/apps/app.h"

namespace ace {
namespace {

class PingPongForever : public App {
 public:
  const char* name() const override { return "PingPongForever"; }

  AppResult Run(Machine& machine, const AppConfig& config) override {
    Task* task = machine.CreateTask("pingpong");
    VirtAddr word_va = task->MapAnonymous("contended-word", machine.page_size());
    Runtime rt(&machine, task, config.runtime);
    rt.Run(config.num_threads, [&](int, Env& env) {
      for (;;) {
        env.FetchAdd(word_va, 1);
      }
    });
    AppResult result;
    result.detail = "unreachable: the ping-pong loop never terminates";
    return result;
  }
};

class ThrowOnRun : public App {
 public:
  const char* name() const override { return "ThrowOnRun"; }

  AppResult Run(Machine& machine, const AppConfig& config) override {
    Task* task = machine.CreateTask("throw-on-run");
    VirtAddr buf_va = task->MapAnonymous("buffer", machine.page_size());
    Runtime rt(&machine, task, config.runtime);
    rt.Run(config.num_threads, [&](int tid, Env& env) {
      for (std::uint32_t i = 0; i < 64; ++i) {
        env.FetchAdd(buf_va + 4 * static_cast<VirtAddr>(tid), 1);
        if (tid == 0 && i == 8) {
          throw std::runtime_error("ThrowOnRun: deliberate mid-run exception");
        }
      }
    });
    AppResult result;
    result.detail = "unreachable: thread 0 always throws";
    return result;
  }
};

}  // namespace

std::unique_ptr<App> CreatePingPongForever() { return std::make_unique<PingPongForever>(); }
std::unique_ptr<App> CreateThrowOnRun() { return std::make_unique<ThrowOnRun>(); }

}  // namespace ace
