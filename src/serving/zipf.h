// Deterministic random primitives for the serving client population.
//
// Everything the open-loop clients do — key popularity, op mix, burst lengths,
// inter-arrival jitter — is derived from one SplitMix64 stream seeded by the run's
// serving seed, so a (seed, params) pair names exactly one request trace on every
// host and compiler. The Zipfian sampler precomputes the CDF and a guide table once, so
// a draw is one table load and a short forward scan; ranks are permuted per tenant so
// tenants do not share hot keys.

#ifndef SRC_SERVING_ZIPF_H_
#define SRC_SERVING_ZIPF_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/common/check.h"
#include "src/common/splitmix64.h"

namespace ace {

// The client population's stream: one SplitMix64 per owner (src/common/splitmix64.h).
using ServingRng = SplitMix64;

// Zipfian rank sampler over [0, num_keys): P(rank = r) proportional to
// 1 / (r + 1)^skew. skew = 0 degenerates to uniform. A draw costs one rng call plus a
// guide-table lookup (Chen and Asau's method): with M the next power of two >=
// num_keys, guide_[k] is the first rank whose CDF exceeds k / M, so the rank for u
// lies at or after guide_[floor(u * M)] and a forward scan over the CDF finds it,
// about one step on average. Because M is a power of two, u * M and k / M are exact,
// and every u maps to the same rank as a binary search of the CDF would give.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t num_keys, double skew);

  std::uint32_t Sample(ServingRng& rng) const { return Rank(rng.Unit()); }

  // The rank a uniform u in [0, 1) maps to: the first rank whose CDF exceeds u.
  std::uint32_t Rank(double u) const {
    ACE_DCHECK(u >= 0.0 && u < 1.0);
    std::uint32_t r = guide_[static_cast<std::size_t>(u * buckets_)];
    while (cdf_[r] <= u) {  // terminates: cdf_.back() == 1.0 > u
      ++r;
    }
    return r;
  }

  std::uint32_t num_keys() const { return static_cast<std::uint32_t>(cdf_.size()); }
  // cdf_[r] = P(rank <= r), nondecreasing; back() == 1.0.
  const std::vector<double>& cdf() const { return cdf_; }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;  // guide_[k] = first rank with cdf_ > k / M
  double buckets_ = 0.0;              // M as a double
};

// A 32-bit mixer for value words and per-tenant key permutations (xorshift-multiply;
// full-avalanche so neighbouring inputs give unrelated words).
inline std::uint32_t ServingMix32(std::uint32_t x) {
  x ^= x >> 16;
  x *= 0x7FEB352Du;
  x ^= x >> 15;
  x *= 0x846CA68Bu;
  x ^= x >> 16;
  return x;
}

}  // namespace ace

#endif  // SRC_SERVING_ZIPF_H_
