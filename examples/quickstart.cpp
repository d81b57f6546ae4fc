// Quickstart: the 60-second tour of the library.
//
// Builds the paper's Example 1 (5 workers with throughputs 1:2:3:4:4, k = 7
// partitions, tolerance s = 1), encodes per-partition gradients, kills one
// worker, and recovers the exact aggregate from the survivors.
//
//   ./examples/quickstart
#include <iostream>

#include "core/heter_aware.hpp"
#include "core/robustness.hpp"
#include "util/rng.hpp"

int main() {
  using namespace hgc;

  // 1. Throughput estimates (partitions/second per worker, from sampling).
  const Throughputs c = {1, 2, 3, 4, 4};
  const std::size_t k = 7;  // data partitions
  const std::size_t s = 1;  // stragglers to tolerate

  Rng rng(42);
  HeterAwareScheme scheme(c, k, s, rng);

  std::cout << "Heter-aware gradient code: m=" << scheme.num_workers()
            << " workers, k=" << scheme.num_partitions()
            << " partitions, s=" << scheme.stragglers_tolerated() << "\n\n";

  std::cout << "Data allocation (proportional to throughput, Eq. 5/6):\n  "
            << to_string(scheme.assignment()) << "\n\n";

  // 2. Each partition's "gradient" — any vector works; here dimension 2.
  std::vector<Vector> partition_gradients(k);
  Vector expected(2, 0.0);
  for (std::size_t p = 0; p < k; ++p) {
    partition_gradients[p] = {static_cast<double>(p), 1.0};
    axpy(1.0, partition_gradients[p], expected);
  }

  // 3. Workers encode: one linear combination each (a single send).
  std::vector<Vector> coded(scheme.num_workers());
  for (WorkerId w = 0; w < scheme.num_workers(); ++w)
    coded[w] = encode_gradient(scheme, w, partition_gradients);

  // 4. Worker 4 (a fast one!) straggles; the master decodes without it.
  std::vector<bool> received = {true, true, true, true, false};
  const auto coefficients = scheme.decoding_coefficients(received);
  if (!coefficients) {
    std::cerr << "unexpectedly undecodable\n";
    return 1;
  }
  coded[4].clear();
  const Vector aggregate = combine_coded_gradients(*coefficients, coded);

  std::cout << "Aggregate with worker 4 missing: [" << aggregate[0] << ", "
            << aggregate[1] << "]  (expected [" << expected[0] << ", "
            << expected[1] << "])\n";

  // 5. The guarantees, checked live.
  std::cout << "\nCondition 1 (robust to any " << s << " straggler): "
            << (satisfies_condition1(scheme.sparse_matrix(), s) ? "yes"
                                                                : "NO")
            << "\n";
  const auto worst = worst_case_time(scheme, c);
  std::cout << "Worst-case iteration time T(B) = " << *worst
            << " (Theorem 5 optimum " << optimal_time_bound(c, k, s)
            << ")\n";
  return 0;
}
