#include "calibrate.h"

#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

#include "probe.h"

namespace slatebench {
namespace {

// The mix of a discrete-event simulator: a timestamp heap, hash lookups,
// short-lived heap objects and some floating-point math, on a working set
// that fits in L2. Under the slowdowns seen on a shared 4-core VM its time
// moved in proportion to a simulator pass (log-log slope 0.93); kernels
// with a working set beyond L2 exaggerated them (slope 0.6).
double reference_kernel() {
  constexpr std::uint64_t kKeys = 1024;
  constexpr int kEvents = 256;
  constexpr int kSteps = 60'000;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  std::unordered_map<std::uint64_t, double> table;
  table.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) table[i * 2654435761u] = 1.0;
  using Event = std::pair<double, std::uint64_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap;
  for (int i = 0; i < kEvents; ++i) {
    heap.emplace(static_cast<double>(next() % 1000) * 1e-3, next());
  }
  double acc = 0.0;
  for (int i = 0; i < kSteps; ++i) {
    const auto [t, id] = heap.top();
    heap.pop();
    double& v = table[(id % kKeys) * 2654435761u];
    const auto buf = std::make_unique<double[]>(8 + id % 24);
    buf[0] = v;
    acc += std::exp(-t) * buf[0] + std::log1p(static_cast<double>(id % 97));
    v += 1e-9 * acc;
    heap.emplace(t + static_cast<double>(next() % 1000) * 1e-3, next());
  }
  return acc;
}

}  // namespace

double time_reference_kernel() {
  const std::int64_t t0 = cpu_ns();
  volatile double sink = reference_kernel();
  (void)sink;
  return static_cast<double>(cpu_ns() - t0) * 1e-9;
}

}  // namespace slatebench
