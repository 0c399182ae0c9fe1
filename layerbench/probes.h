// Layer probes: the host cost of one call into each layer's public functions.
//
// Every probe warms up with one untimed repetition, then reports the fastest of
// several timed repetitions, as ns (or ms) per call. Set-up that is not the
// probed call (machine construction, mapping, ownership reclaim) stays outside the
// timed region.

#ifndef LAYERBENCH_PROBES_H_
#define LAYERBENCH_PROBES_H_

#include <cstdint>

#include "layerbench/passes.h"

namespace layerbench {

struct ProbeCosts {
  double dispatch_ns = 0;     // threads: one Env::Compute dispatch at 7 fibers
  double dispatch_ns_64 = 0;  // ... at 64 fibers
  double op_ns = 0;           // threads: one Env::Compute that does not dispatch
  double hit_ns_local = 0;    // machine: LoadWord hitting a mapped local page
  double hit_ns_global = 0;   // ... a pinned global page
  double hit_ns_alternating = 0;  // ... two local pages in turn (run length 1)
  double compute_ns = 0;      // machine: Machine::Compute
  double fault_ns = 0;        // vm: first-touch StoreWord on a fresh page
  double migration_ns = 0;    // numa: StoreWord from alternating writers
  double replication_ns = 0;  // numa: second reader's LoadWord after a reclaim
  double copy_ns = 0;         // sim: PhysicalMemory::CopyPage
  double build_ms = 0;        // serving: BuildServingWorkload at the serving shape
  double zipf_ns = 0;         // serving: ZipfSampler::Sample
  double hist_ns = 0;         // serving: LatencyHistogram::Record
};

// Runs every probe on machines shaped like `spec`'s; the serving probes use the
// serving workload's shape at `serving_seed`. `seed` picks the probes' input draws
// (word offsets, Zipf and latency values); it does not change what is timed.
ProbeCosts RunProbes(const WorkloadSpec& spec, std::uint64_t seed,
                     std::uint64_t serving_seed, SpanLog* spans);

// Field-wise fastest of two probe rounds, so rounds taken at different times of a
// run filter out interference that lasts longer than one round.
ProbeCosts Fastest(ProbeCosts a, const ProbeCosts& b);

}  // namespace layerbench

#endif  // LAYERBENCH_PROBES_H_
