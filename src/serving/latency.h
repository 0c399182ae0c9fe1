// Per-request latency recording: an HDR-style log-linear histogram.
//
// All latencies are virtual-time nanoseconds, so every recorded value — and
// therefore every percentile — is a deterministic integer: the same run produces
// byte-identical latency metrics on any host, with the software TLB on or off, and
// under any sweep worker count.

#ifndef SRC_SERVING_LATENCY_H_
#define SRC_SERVING_LATENCY_H_

#include <cstdint>
#include <vector>

namespace ace {

// Log-linear buckets, HDR-histogram style: values below 32 ns get exact unit
// buckets; above that, each power-of-two decade is split into 32 sub-buckets, so
// relative quantization error is bounded by ~3% at any magnitude. 48 decades cover
// every virtual timestamp the simulator can produce.
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 5;                     // 32 sub-buckets per decade
  static constexpr int kSub = 1 << kSubBits;
  static constexpr int kDecades = 48;
  static constexpr int kNumBuckets = (kDecades + 1) * kSub;

  LatencyHistogram() : counts_(kNumBuckets, 0) {}

  void Record(std::uint64_t ns) {
    counts_[BucketIndex(ns)]++;
    count_++;
    sum_ns_ += ns;
    if (ns > max_ns_) {
      max_ns_ = ns;
    }
  }

  void Merge(const LatencyHistogram& other);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum_ns() const { return sum_ns_; }
  std::uint64_t max_ns() const { return max_ns_; }
  double MeanNs() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_ns_) / static_cast<double>(count_);
  }

  // The p-th percentile (p in [0, 100]) as the upper bound of the bucket holding
  // that rank; 0 when empty. Monotone in p and a deterministic integer.
  std::uint64_t PercentileNs(double p) const;

  static int BucketIndex(std::uint64_t ns);
  // Largest value mapping to bucket `index` (inverse of BucketIndex).
  static std::uint64_t BucketUpperNs(int index);

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  std::uint64_t sum_ns_ = 0;
  std::uint64_t max_ns_ = 0;
};

}  // namespace ace

#endif  // SRC_SERVING_LATENCY_H_
