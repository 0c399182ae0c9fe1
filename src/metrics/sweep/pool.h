// A host-thread pool for embarrassingly parallel simulation runs.
//
// Sweep cells are independent deterministic simulations with wildly uneven costs
// (Primes1 at full scale runs ~40x longer than ParMult), so static partitioning
// leaves workers idle behind the long cells. The task list is fixed at call time, so
// one shared atomic cursor balances it: each worker claims the next unclaimed index
// until none is left. Cells start in index order, and no worker idles while work
// remains unclaimed.

#ifndef SRC_METRICS_SWEEP_POOL_H_
#define SRC_METRICS_SWEEP_POOL_H_

#include <cstddef>
#include <functional>

namespace ace {

// `workers` <= 0 selects std::thread::hardware_concurrency() (at least 1).
int ResolveWorkers(int workers);

// Invoke `fn(index)` for every index in [0, n) on ResolveWorkers(workers) spawned
// threads; returns when every call has completed. `fn` must be safe to call
// concurrently for distinct indices. With one worker the calls run in index order.
void ParallelFor(int workers, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ace

#endif  // SRC_METRICS_SWEEP_POOL_H_
