// The deterministic open-loop client population for the serving workload.
//
// A (params, num_threads) pair expands — entirely on the host, before any simulated
// reference is issued — into per-phase, per-shard request queues with absolute
// virtual-time arrivals. The generator models what ISSUE/ROADMAP call warehouse-scale
// traffic in miniature:
//
//   * per-tenant Zipfian key popularity, ranks permuted per tenant so tenants have
//     disjoint hot keys;
//   * a bursty arrival process: block-wise rate multipliers over a base inter-arrival
//     gap, plus per-request jitter, all in integer nanoseconds;
//   * tenant churn: each phase has a rotating "hot" tenant taking half the traffic;
//   * scheduled hot-key migration: a tenant's home shard is (tenant + phase) mod
//     shards, so every phase boundary hands each tenant's pages to a different
//     processor and forces the §2.3 move/ping-pong machinery.
//
// Within a phase, only the home shard writes a (tenant, key) value; a slice of GETs
// is routed to a non-home shard to keep read sharing (and global-memory pressure)
// alive. The expansion uses one ServingRng stream, so the trace is a pure function
// of (seed, params, num_threads).

#ifndef SRC_SERVING_WORKLOAD_H_
#define SRC_SERVING_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "src/serving/zipf.h"

namespace ace {

struct AppConfig;

// 32-bit words per value; every request reads or writes all of them.
inline constexpr std::uint32_t kServingValueWords = 16;
// PUT fraction of all requests, in permille.
inline constexpr std::uint32_t kServingPutPermille = 300;

struct ServingParams {
  int tenants = 4;
  std::uint32_t keys_per_tenant = 128;  // power of two
  int phases = 3;
  std::uint64_t requests = 1500;
  double zipf_skew = 0.9;
  std::uint64_t seed = 1;
};

// Fill a ServingParams from an AppConfig: explicit ServingOptions knobs win, the
// rest derive from `scale` (request budget, keyspace size). Clamps everything into
// simulable ranges.
ServingParams ResolveServingParams(const AppConfig& config);

struct ServingRequest {
  std::uint64_t arrival_ns = 0;
  std::uint32_t key = 0;
  std::uint16_t tenant = 0;
  std::uint8_t is_put = 0;
  std::uint8_t remote = 0;  // GET executed off the tenant's home shard
};

// The shard (thread id) that owns tenant `tenant`'s keys during `phase`.
inline int ServingHomeShard(int tenant, int phase, int num_threads) {
  return (tenant + phase) % num_threads;
}

struct ServingWorkload {
  // queues[phase][thread], each arrival-ordered.
  std::vector<std::vector<std::vector<ServingRequest>>> queues;
  std::uint64_t total_requests = 0;
  std::uint64_t puts = 0;
  std::uint64_t remote_gets = 0;
  std::uint64_t horizon_ns = 0;  // last arrival timestamp
};

ServingWorkload BuildServingWorkload(const ServingParams& params, int num_threads);

// Value word `w` of (tenant, key) at `version`; version 0 is the zero-filled
// initial state of anonymous memory.
inline std::uint32_t ServingValueWord(std::uint32_t tenant, std::uint32_t key,
                                      std::uint32_t version, std::uint32_t w) {
  if (version == 0) {
    return 0;
  }
  return ServingMix32(tenant * 0x9E3779B1u ^ key * 0x85EBCA77u ^ version * 0xC2B2AE3Du ^
                      w * 0x27D4EB2Fu);
}

}  // namespace ace

#endif  // SRC_SERVING_WORKLOAD_H_
