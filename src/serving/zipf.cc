#include "src/serving/zipf.h"

#include <cmath>

#include "src/common/check.h"

namespace ace {

ZipfSampler::ZipfSampler(std::uint32_t num_keys, double skew) {
  ACE_CHECK(num_keys >= 1);
  ACE_CHECK(skew >= 0.0 && skew <= 4.0);
  cdf_.resize(num_keys);
  double total = 0.0;
  for (std::uint32_t r = 0; r < num_keys; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r) + 1.0, skew);
    cdf_[r] = total;
  }
  for (std::uint32_t r = 0; r < num_keys; ++r) {
    cdf_[r] /= total;
  }
  cdf_.back() = 1.0;  // guard against rounding at the tail

  std::size_t buckets = 1;
  while (buckets < num_keys) {
    buckets *= 2;
  }
  guide_.resize(buckets);
  buckets_ = static_cast<double>(buckets);
  const double bucket_width = 1.0 / buckets_;  // a power of two: k * width is exact
  std::uint32_t r = 0;
  for (std::size_t k = 0; k < buckets; ++k) {
    const double edge = static_cast<double>(k) * bucket_width;
    while (cdf_[r] <= edge) {
      ++r;
    }
    guide_[k] = r;
  }
}

}  // namespace ace
