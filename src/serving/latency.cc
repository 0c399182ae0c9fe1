#include "src/serving/latency.h"

#include <bit>
#include <cmath>

#include "src/common/check.h"

namespace ace {

int LatencyHistogram::BucketIndex(std::uint64_t ns) {
  if (ns < static_cast<std::uint64_t>(kSub)) {
    return static_cast<int>(ns);
  }
  const int msb = 63 - std::countl_zero(ns);  // >= kSubBits
  int block = msb - kSubBits + 1;
  if (block > kDecades) {
    // Saturate absurd values (beyond ~2^52 ns of virtual time) into the top decade.
    block = kDecades;
    return block * kSub + (kSub - 1);
  }
  const int shift = msb - kSubBits;
  const int sub = static_cast<int>((ns >> shift) & (kSub - 1));
  return block * kSub + sub;
}

std::uint64_t LatencyHistogram::BucketUpperNs(int index) {
  ACE_CHECK(index >= 0 && index < kNumBuckets);
  const int block = index / kSub;
  const int sub = index % kSub;
  if (block == 0) {
    return static_cast<std::uint64_t>(sub);
  }
  return ((static_cast<std::uint64_t>(kSub) + sub + 1) << (block - 1)) - 1;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kNumBuckets; ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  if (other.max_ns_ > max_ns_) {
    max_ns_ = other.max_ns_;
  }
}

std::uint64_t LatencyHistogram::PercentileNs(double p) const {
  if (count_ == 0) {
    return 0;
  }
  ACE_CHECK(p >= 0.0 && p <= 100.0);
  // Rank of the requested percentile, 1-based, never past the last sample.
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_)));
  if (rank < 1) {
    rank = 1;
  }
  if (rank > count_) {
    rank = count_;
  }
  std::uint64_t seen = 0;
  for (int i = 0; i < kNumBuckets; ++i) {
    seen += counts_[i];
    if (seen >= rank) {
      return BucketUpperNs(i);
    }
  }
  return max_ns_;
}

}  // namespace ace
