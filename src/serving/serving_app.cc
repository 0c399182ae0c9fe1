// Serving — the multi-tenant KV store workload (the warehouse-scale scenario).
//
// Unlike the paper's batch kernels, Serving is scored on per-request latency: a
// deterministic open-loop client population (src/serving/workload.h) issues GETs and
// PUTs against values living in paged anonymous memory, so every request walks the
// MMU/NUMA resolve path and the placement policy directly shapes the latency
// distribution. A request whose arrival lies in the future idles the shard forward
// (open-loop: the client does not wait for the server); a request arriving into a
// backlog observes queueing delay — latency is completion minus arrival, both in
// virtual time, so every percentile is byte-identical across hosts, sweep worker
// counts, and TLB on/off.
//
// Verification is built in like the batch apps': within a phase each (tenant, key)
// has exactly one writer (the tenant's home shard), so home-shard GETs check every
// value word against the expected version mix, and after the final barrier each
// shard audits the full keyspace it homes. Off-home GETs may interleave with a
// concurrent PUT at word granularity and are deliberately only read, not checked.
//
// When the machine carries a chaos plan (Machine::chaos() != nullptr), an SLO
// guard arms: deadline-missing requests are retried once with backoff, requests
// whose backlog exceeds the shed budget are dropped before touching the store,
// and per-tenant timeout/retry/shed outcomes are reported alongside the latency
// percentiles (DESIGN.md section 13). Chaos-free runs never enter any of these
// branches and remain byte-identical to the pre-chaos workload.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/apps/app.h"
#include "src/machine/chaos.h"
#include "src/serving/latency.h"
#include "src/serving/workload.h"
#include "src/serving/zipf.h"
#include "src/threads/sim_span.h"
#include "src/threads/sync.h"

namespace ace {
namespace {

// Fixed per-request bookkeeping (parse/dispatch/reply) charged as pure compute.
constexpr TimeNs kRequestOverheadNs = 2'000;

// SLO guard, armed only when the machine carries a chaos plan (DESIGN.md
// section 13) so chaos-free runs execute the exact pre-existing path. A request
// completing past the deadline is re-issued once after a backoff (client-side
// retry); if the retry also misses, it counts as a timeout. A request whose
// backlog at dispatch already exceeds the shed budget is dropped before touching
// the store — a shed PUT never bumps the expected version, so the audit stays
// consistent.
constexpr TimeNs kSloDeadlineNs = 15'000'000;     // above the healthy tail (~10 ms)
constexpr TimeNs kSloShedBacklogNs = 45'000'000;  // 3x deadline of queueing delay
constexpr TimeNs kRetryBackoffNs = 250'000;
constexpr int kMaxAttempts = 2;

class ServingApp : public App {
 public:
  const char* name() const override { return "Serving"; }

  AppResult Run(Machine& machine, const AppConfig& config) override {
    const ServingParams params = ResolveServingParams(config);
    const int tenants = params.tenants;
    const std::uint32_t keys = params.keys_per_tenant;
    const std::uint32_t words = kServingValueWords;
    const int threads = config.num_threads;
    const ServingWorkload wl = BuildServingWorkload(params, threads);

    Task* task = machine.CreateTask("serving");
    const std::uint64_t store_words =
        static_cast<std::uint64_t>(tenants) * keys * words;
    VirtAddr store_va = task->MapAnonymous("kv-values", store_words * 4);
    VirtAddr bar_va = task->MapAnonymous("barrier", machine.page_size());
    Barrier barrier(bar_va, threads);

    // Expected version per (tenant, key). Host state: all fibers run on one host
    // thread, and within a phase only the home shard writes a given slot.
    std::vector<std::uint32_t> version(static_cast<std::size_t>(tenants) * keys, 0);

    std::vector<LatencyHistogram> hist(static_cast<std::size_t>(threads));
    std::vector<std::vector<LatencyHistogram>> tenant_hist(
        static_cast<std::size_t>(threads),
        std::vector<LatencyHistogram>(static_cast<std::size_t>(tenants)));
    std::vector<std::uint64_t> gets(threads, 0), puts(threads, 0), remotes(threads, 0),
        verify_failures(threads, 0);
    std::uint64_t scan_failures = 0;

    // SLO machinery (all zero / unused on chaos-free runs).
    const bool slo_armed = machine.chaos() != nullptr;
    TimeNs chaos_begin = 0, chaos_end = 0;
    if (slo_armed) {
      chaos_begin = machine.chaos()->first_begin_ns();
      chaos_end = machine.chaos()->last_end_ns();
    }
    std::vector<std::uint64_t> timeouts(threads, 0), retries(threads, 0),
        sheds(threads, 0), shed_puts(threads, 0), shed_remotes(threads, 0);
    std::vector<std::vector<std::uint64_t>> tenant_timeouts(
        static_cast<std::size_t>(threads),
        std::vector<std::uint64_t>(static_cast<std::size_t>(tenants), 0));
    std::vector<std::vector<std::uint64_t>> tenant_sheds(
        static_cast<std::size_t>(threads),
        std::vector<std::uint64_t>(static_cast<std::size_t>(tenants), 0));
    // Latency split by arrival epoch: inside the chaos window hull vs. after the
    // last event ends (recovery). Chaos-free runs leave both empty.
    std::vector<LatencyHistogram> chaos_hist(static_cast<std::size_t>(threads));
    std::vector<LatencyHistogram> recovery_hist(static_cast<std::size_t>(threads));

    Runtime rt(&machine, task, config.runtime);
    rt.Run(threads, [&](int tid, Env& env) {
      std::uint32_t sense = 0;
      SimSpan<std::uint32_t> store(env, store_va, store_words);

      for (int phase = 0; phase < params.phases; ++phase) {
        const auto& queue = wl.queues[static_cast<std::size_t>(phase)]
                                     [static_cast<std::size_t>(tid)];
        for (const ServingRequest& r : queue) {
          const TimeNs now = env.machine().clocks().now(env.proc());
          if (now < static_cast<TimeNs>(r.arrival_ns)) {
            env.Compute(static_cast<TimeNs>(r.arrival_ns) - now);
          }
          // Load shedding: a request already queued past the backlog budget at
          // dispatch is answered with an error after the fixed bookkeeping, never
          // touching the store. Graceful degradation — the shard spends its time
          // on requests that can still meet the SLO.
          if (slo_armed &&
              now > static_cast<TimeNs>(r.arrival_ns) + kSloShedBacklogNs) {
            env.Compute(kRequestOverheadNs);
            sheds[tid]++;
            tenant_sheds[tid][r.tenant]++;
            if (r.is_put) {
              shed_puts[tid]++;
            } else {
              shed_remotes[tid] += r.remote;
            }
            machine.stats().shed++;
            continue;
          }
          const std::size_t slot = static_cast<std::size_t>(r.tenant) * keys + r.key;
          const std::size_t base = slot * words;
          std::uint64_t latency_ns = 0;
          // The deadline is judged per attempt: the first attempt's budget starts
          // at arrival (queueing counts against it), a retry's at its re-issue
          // after backoff — so a retry issued once the backlog clears can still
          // succeed. The histogram always records honest end-to-end latency.
          TimeNs attempt_issue = static_cast<TimeNs>(r.arrival_ns);
          std::uint64_t attempt_lat = 0;
          for (int attempt = 1;; ++attempt) {
            env.Compute(kRequestOverheadNs);
            if (r.is_put) {
              // The version advances once; a retry rewrites the same value, so
              // the PUT is idempotent under client-side re-issue.
              const std::uint32_t v =
                  attempt == 1 ? ++version[slot] : version[slot];
              for (std::uint32_t w = 0; w < words; ++w) {
                store[base + w] = ServingValueWord(r.tenant, r.key, v, w);
              }
              if (attempt == 1) {
                puts[tid]++;
              }
            } else {
              const std::uint32_t v = version[slot];
              bool bad = false;
              for (std::uint32_t w = 0; w < words; ++w) {
                const std::uint32_t got = store.Get(base + w);
                if (r.remote == 0 && got != ServingValueWord(r.tenant, r.key, v, w)) {
                  bad = true;
                }
              }
              if (bad) {
                verify_failures[tid]++;
              }
              if (attempt == 1) {
                gets[tid]++;
                remotes[tid] += r.remote;
              }
            }
            const TimeNs done = env.machine().clocks().now(env.proc());
            latency_ns = static_cast<std::uint64_t>(done) - r.arrival_ns;
            attempt_lat = static_cast<std::uint64_t>(done - attempt_issue);
            if (!slo_armed || attempt_lat <= static_cast<std::uint64_t>(kSloDeadlineNs) ||
                attempt >= kMaxAttempts) {
              break;
            }
            // Deadline miss with budget left: the client backs off and re-issues.
            retries[tid]++;
            machine.stats().retries++;
            env.Compute(kRetryBackoffNs << (attempt - 1));
            attempt_issue = env.machine().clocks().now(env.proc());
          }
          if (slo_armed && attempt_lat > static_cast<std::uint64_t>(kSloDeadlineNs)) {
            timeouts[tid]++;
            tenant_timeouts[tid][r.tenant]++;
            machine.stats().timeouts++;
          }
          hist[tid].Record(latency_ns);
          tenant_hist[tid][r.tenant].Record(latency_ns);
          if (slo_armed) {
            if (static_cast<TimeNs>(r.arrival_ns) >= chaos_begin &&
                static_cast<TimeNs>(r.arrival_ns) < chaos_end) {
              chaos_hist[tid].Record(latency_ns);
            } else if (static_cast<TimeNs>(r.arrival_ns) >= chaos_end) {
              recovery_hist[tid].Record(latency_ns);
            }
          }
          machine.stats().requests++;
          machine.stats().req_lat_ns += latency_ns;
        }
        barrier.Wait(env, &sense);
      }

      // Final audit: each shard verifies every key of the tenants it homes in the
      // last phase against the expected final version.
      for (int t = 0; t < tenants; ++t) {
        if (ServingHomeShard(t, params.phases - 1, threads) != tid) {
          continue;
        }
        for (std::uint32_t k = 0; k < keys; ++k) {
          const std::size_t slot = static_cast<std::size_t>(t) * keys + k;
          const std::uint32_t v = version[slot];
          for (std::uint32_t w = 0; w < words; ++w) {
            if (store.Get(slot * words + w) !=
                ServingValueWord(static_cast<std::uint32_t>(t), k, v, w)) {
              scan_failures++;
            }
          }
        }
      }
    });

    LatencyHistogram all;
    LatencyHistogram chaos_all, recovery_all;
    std::vector<LatencyHistogram> per_tenant(static_cast<std::size_t>(tenants));
    std::uint64_t total_gets = 0, total_puts = 0, total_remote = 0, total_bad = 0;
    std::uint64_t total_timeouts = 0, total_retries = 0, total_shed = 0,
                  total_shed_puts = 0, total_shed_remote = 0;
    std::vector<std::uint64_t> ten_timeouts(static_cast<std::size_t>(tenants), 0);
    std::vector<std::uint64_t> ten_sheds(static_cast<std::size_t>(tenants), 0);
    for (int tid = 0; tid < threads; ++tid) {
      all.Merge(hist[tid]);
      chaos_all.Merge(chaos_hist[tid]);
      recovery_all.Merge(recovery_hist[tid]);
      for (int t = 0; t < tenants; ++t) {
        per_tenant[t].Merge(tenant_hist[tid][t]);
        ten_timeouts[t] += tenant_timeouts[tid][t];
        ten_sheds[t] += tenant_sheds[tid][t];
      }
      total_gets += gets[tid];
      total_puts += puts[tid];
      total_remote += remotes[tid];
      total_bad += verify_failures[tid];
      total_timeouts += timeouts[tid];
      total_retries += retries[tid];
      total_shed += sheds[tid];
      total_shed_puts += shed_puts[tid];
      total_shed_remote += shed_remotes[tid];
    }

    AppResult result;
    // Every request is either served (latency recorded) or deliberately shed;
    // nothing is silently lost. On chaos-free runs the shed terms are zero and
    // this reduces to the exact pre-chaos condition.
    result.ok = total_bad == 0 && scan_failures == 0 &&
                all.count() + total_shed == wl.total_requests &&
                total_puts + total_shed_puts == wl.puts &&
                total_remote + total_shed_remote == wl.remote_gets;
    result.work_units = wl.total_requests;

    auto ms = [](std::uint64_t ns) { return static_cast<double>(ns) / 1e6; };
    // Per-tenant tail, capped to keep baseline files readable at high tenant counts.
    const int reported = std::min(tenants, 8);
    // Sized exactly: callers keep results (a sweep's cells, every pass of a timed
    // benchmark run), and growth would leave 4 tenants' 17 metrics room for 32.
    result.metrics.reserve(9 + 2 * reported + (slo_armed ? 6 + 2 * reported : 0));
    result.metrics.emplace_back("requests", static_cast<double>(all.count()));
    result.metrics.emplace_back("gets", static_cast<double>(total_gets));
    result.metrics.emplace_back("puts", static_cast<double>(total_puts));
    result.metrics.emplace_back("remote_gets", static_cast<double>(total_remote));
    result.metrics.emplace_back("lat_mean_ms", all.MeanNs() / 1e6);
    result.metrics.emplace_back("lat_p50_ms", ms(all.PercentileNs(50)));
    result.metrics.emplace_back("lat_p95_ms", ms(all.PercentileNs(95)));
    result.metrics.emplace_back("lat_p99_ms", ms(all.PercentileNs(99)));
    result.metrics.emplace_back("lat_max_ms", ms(all.max_ns()));
    for (int t = 0; t < reported; ++t) {
      result.metrics.emplace_back("ten" + std::to_string(t) + "_p50_ms",
                                  ms(per_tenant[t].PercentileNs(50)));
      result.metrics.emplace_back("ten" + std::to_string(t) + "_p99_ms",
                                  ms(per_tenant[t].PercentileNs(99)));
    }
    // SLO outcome metrics appear only when the guard is armed, so chaos-free
    // cell JSON (and the committed baselines built from it) stays byte-identical.
    if (slo_armed) {
      result.metrics.emplace_back("timeouts", static_cast<double>(total_timeouts));
      result.metrics.emplace_back("retries", static_cast<double>(total_retries));
      result.metrics.emplace_back("shed", static_cast<double>(total_shed));
      result.metrics.emplace_back("chaos_p99_ms", ms(chaos_all.PercentileNs(99)));
      // The recovery epoch (arrivals after the last chaos window closes) carries a
      // drain-out transient in its tail; the median shows the queue actually
      // cleared, the p99 bounds how long the transient lingered.
      result.metrics.emplace_back("recovery_p50_ms",
                                  ms(recovery_all.PercentileNs(50)));
      result.metrics.emplace_back("recovery_p99_ms",
                                  ms(recovery_all.PercentileNs(99)));
      for (int t = 0; t < reported; ++t) {
        result.metrics.emplace_back("ten" + std::to_string(t) + "_timeouts",
                                    static_cast<double>(ten_timeouts[t]));
        result.metrics.emplace_back("ten" + std::to_string(t) + "_shed",
                                    static_cast<double>(ten_sheds[t]));
      }
    }

    char detail[256];
    if (slo_armed) {
      std::snprintf(detail, sizeof(detail),
                    "requests=%llu p50=%.3fms p99=%.3fms timeouts=%llu "
                    "retries=%llu shed=%llu%s",
                    static_cast<unsigned long long>(all.count()),
                    ms(all.PercentileNs(50)), ms(all.PercentileNs(99)),
                    static_cast<unsigned long long>(total_timeouts),
                    static_cast<unsigned long long>(total_retries),
                    static_cast<unsigned long long>(total_shed),
                    result.ok ? " verify ok" : " VERIFY FAILED");
    } else {
      std::snprintf(detail, sizeof(detail),
                    "requests=%llu p50=%.3fms p99=%.3fms%s",
                    static_cast<unsigned long long>(all.count()),
                    ms(all.PercentileNs(50)), ms(all.PercentileNs(99)),
                    result.ok ? " verify ok" : " VERIFY FAILED");
    }
    result.detail = detail;

    machine.DestroyTask(task);
    return result;
  }

  // PUTs write every value word; the rest fetch.
  double ModelGL(const LatencyModel& latency) const override {
    return latency.MixRatio(kServingPutPermille / 1000.0);
  }
};

}  // namespace

std::unique_ptr<App> CreateServing() { return std::make_unique<ServingApp>(); }

}  // namespace ace
