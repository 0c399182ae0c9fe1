// SplitMix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
// generators", OOPSLA 2014): tiny, seedable, and identical on every host and compiler.
//
// Every deterministic stream in the simulator and its harness draws from this one
// step: fault-injection probability schedules, corrupt-page frame selection (the
// NumaManager and its conformance mirror must draw the same sequence), serving
// client traces, conformance op streams, soak run derivation and sweep retry jitter.
// Each owner keeps its own state and seed, so the streams stay independent. The
// FNV-1a string hash below seeds the per-cell jitter stream and names checkpoint
// fragments.

#ifndef SRC_COMMON_SPLITMIX64_H_
#define SRC_COMMON_SPLITMIX64_H_

#include <cstdint>
#include <string_view>

namespace ace {

// The step's increment and its two finalizer multipliers, also used on their own by
// seed-mixing helpers that want the same well-spread odd constants.
inline constexpr std::uint64_t kSplitMix64Gamma = 0x9e3779b97f4a7c15ULL;
inline constexpr std::uint64_t kSplitMix64Mul1 = 0xbf58476d1ce4e5b9ULL;
inline constexpr std::uint64_t kSplitMix64Mul2 = 0x94d049bb133111ebULL;

// Advance `*state` and return the next output.
inline std::uint64_t SplitMix64Next(std::uint64_t* state) {
  std::uint64_t z = (*state += kSplitMix64Gamma);
  z = (z ^ (z >> 30)) * kSplitMix64Mul1;
  z = (z ^ (z >> 27)) * kSplitMix64Mul2;
  return z ^ (z >> 31);
}

class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t Next() { return SplitMix64Next(&state_); }

  // Uniform in [0, n). n must be nonzero. Modulo bias is irrelevant at the small n
  // the callers draw (n is tiny against 2^64) and the simple form keeps streams obvious.
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

  // Uniform double in [0, 1) with 53 random bits.
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// 64-bit FNV-1a over `s`. The offset basis is 1469598103934665603, one digit short of
// FNV's published 14695981039346656037. The value names checkpoint fragment files
// (an on-disk format) and seeds sweep retry jitter, so it stays as it is.
inline std::uint64_t Fnv1a64(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace ace

#endif  // SRC_COMMON_SPLITMIX64_H_
