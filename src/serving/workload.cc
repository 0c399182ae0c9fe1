#include "src/serving/workload.h"

#include <algorithm>

#include "src/apps/app.h"
#include "src/common/check.h"

namespace ace {
namespace {

// The rest of the request mix, in permille.
constexpr std::uint32_t kRemotePermille = 100;  // off-home fraction of GETs
constexpr std::uint32_t kHotPermille = 300;     // traffic share of the phase's hot tenant
// Mean open-loop inter-arrival across all clients. Calibrated so a shard keeps up
// with steady-state service (a 16-word request costs ~12-26 us depending on
// placement) but the kernel-time storms after each churn phase — page moves cost
// ~1.5 ms of copy time each — pile up real queueing tails. Burst blocks push the
// instantaneous rate to 4x.
constexpr std::uint64_t kBaseGapNs = 60'000;
constexpr std::uint64_t kWarmupNs = 5'000;  // first arrival offset

// Arrival-rate multipliers (permille of the base gap) drawn per burst block: 250
// means 4x the base rate — a burst — while 2000 is a lull that lets queues drain.
constexpr std::uint32_t kBurstGapPermille[] = {250, 500, 1000, 1000, 2000};
constexpr std::uint32_t kBurstBlockRequests = 48;

// Per-tenant bijection over the (power-of-two) keyspace so tenants do not share
// hot ranks: any odd stride is coprime with 2^k.
std::uint32_t PermuteKey(std::uint32_t tenant, std::uint32_t rank, std::uint32_t num_keys) {
  const std::uint32_t stride = (ServingMix32(tenant * 0x517CC1B7u + 0xB5297A4Du) << 1) | 1u;
  const std::uint32_t offset = ServingMix32(tenant + 0x68E31DA4u);
  return (rank * stride + offset) & (num_keys - 1);
}

}  // namespace

ServingParams ResolveServingParams(const AppConfig& config) {
  ServingParams p;
  p.tenants = std::clamp(config.serving.tenants, 1, 16);
  p.phases = std::clamp(config.serving.churn_phases, 1, 8);
  p.zipf_skew = std::clamp(config.serving.zipf_skew, 0.0, 4.0);
  p.seed = config.serving.seed;
  // Keyspace scales with the workload like the batch apps' footprints do; kept a
  // power of two for the permutation.
  std::uint32_t keys = 128;
  while (keys < static_cast<std::uint32_t>(256.0 * config.scale) && keys < 4096) {
    keys <<= 1;
  }
  p.keys_per_tenant = keys;
  p.requests = config.serving.requests != 0
                   ? config.serving.requests
                   : std::max<std::uint64_t>(512, static_cast<std::uint64_t>(6000.0 * config.scale));
  return p;
}

ServingWorkload BuildServingWorkload(const ServingParams& params, int num_threads) {
  ACE_CHECK(num_threads >= 1);
  ACE_CHECK(params.tenants >= 1);
  ACE_CHECK(params.phases >= 1);
  ACE_CHECK((params.keys_per_tenant & (params.keys_per_tenant - 1)) == 0);

  ServingWorkload wl;
  wl.queues.assign(static_cast<std::size_t>(params.phases),
                   std::vector<std::vector<ServingRequest>>(
                       static_cast<std::size_t>(num_threads)));

  ServingRng rng(params.seed * 0x2545F4914F6CDD1Dull + 0x9E3779B97F4A7C15ull);
  const ZipfSampler zipf(params.keys_per_tenant, params.zipf_skew);

  std::uint64_t now_ns = kWarmupNs;
  std::uint32_t gap_permille = 1000;
  constexpr std::uint32_t kNumBurstChoices =
      sizeof(kBurstGapPermille) / sizeof(kBurstGapPermille[0]);

  for (std::uint64_t i = 0; i < params.requests; ++i) {
    if (i % kBurstBlockRequests == 0) {
      gap_permille = kBurstGapPermille[rng.Below(kNumBurstChoices)];
    }
    // gap = base * block multiplier * jitter in [0.5, 1.5), all integer ns.
    const std::uint64_t jitter_permille = 500 + rng.Below(1000);
    now_ns += kBaseGapNs * gap_permille * jitter_permille / 1'000'000;

    const int phase = static_cast<int>(i * static_cast<std::uint64_t>(params.phases) /
                                       params.requests);

    ServingRequest req;
    req.arrival_ns = now_ns;
    // Tenant churn: the rotating hot tenant takes an outsized traffic share.
    const int hot_tenant = phase % params.tenants;
    if (params.tenants > 1 && rng.Below(1000) < kHotPermille) {
      req.tenant = static_cast<std::uint16_t>(hot_tenant);
    } else {
      req.tenant = static_cast<std::uint16_t>(rng.Below(params.tenants));
    }
    req.key = PermuteKey(req.tenant, zipf.Sample(rng), params.keys_per_tenant);
    req.is_put = rng.Below(1000) < kServingPutPermille ? 1 : 0;

    const int home = ServingHomeShard(req.tenant, phase, num_threads);
    int exec = home;
    if (req.is_put == 0 && num_threads > 1 &&
        rng.Below(1000) < kRemotePermille) {
      req.remote = 1;
      exec = (home + 1 + static_cast<int>(rng.Below(num_threads - 1))) % num_threads;
      wl.remote_gets++;
    }
    wl.puts += req.is_put;
    wl.queues[static_cast<std::size_t>(phase)][static_cast<std::size_t>(exec)]
        .push_back(req);
  }
  wl.total_requests = params.requests;
  wl.horizon_ns = now_ns;
  return wl;
}

}  // namespace ace
