#include "src/metrics/sweep/pool.h"

#include <atomic>
#include <thread>
#include <vector>

namespace ace {

int ResolveWorkers(int workers) {
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
  }
  return workers > 0 ? workers : 1;
}

void ParallelFor(int workers, std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      fn(i);
    }
  };
  std::vector<std::thread> threads;
  for (int w = ResolveWorkers(workers); w > 0; --w) {
    threads.emplace_back(worker);
  }
  for (std::thread& t : threads) {
    t.join();
  }
}

}  // namespace ace
