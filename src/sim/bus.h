// IPC bus accounting.
//
// The ACE's Inter-Processor Communication bus is 32 bits wide at 80 Mbyte/s (paper
// section 2.2). The paper's applications "had to be relatively free of lock, bus or
// memory contention" (section 3.1), so the bus only *accounts* for traffic (bytes,
// transactions, utilization) without perturbing reference timing. Every off-node
// reference, TLB hit or not, is recorded as it happens.

#ifndef SRC_SIM_BUS_H_
#define SRC_SIM_BUS_H_

#include <cstdint>

#include "src/common/types.h"

namespace ace {

// Bytes/second the bus can sustain: 80 MB/s per the ACE spec.
inline constexpr double kBusCapacityBytesPerSec = 80.0e6;

class IpcBus {
 public:
  // Record a bus transaction of `bytes` occurring at processor-virtual time `now`.
  void RecordTransfer(std::uint64_t bytes, TimeNs now) {
    total_bytes_ += bytes;
    transactions_ += 1;
    if (now > horizon_ns_) {
      horizon_ns_ = now;
    }
  }

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t transactions() const { return transactions_; }

  // Mean utilization over the run so far: offered bytes / (capacity * elapsed).
  double Utilization() const {
    if (horizon_ns_ <= 0) {
      return 0.0;
    }
    double elapsed_sec = static_cast<double>(horizon_ns_) * 1e-9;
    return static_cast<double>(total_bytes_) / (kBusCapacityBytesPerSec * elapsed_sec);
  }

  void Reset() {
    total_bytes_ = 0;
    transactions_ = 0;
    horizon_ns_ = 0;
  }

 private:
  std::uint64_t total_bytes_ = 0;
  std::uint64_t transactions_ = 0;
  TimeNs horizon_ns_ = 0;
};

}  // namespace ace

#endif  // SRC_SIM_BUS_H_
