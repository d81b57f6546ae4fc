#include "sim/iteration.hpp"

namespace hgc {

double ideal_iteration_time(const Cluster& cluster, std::size_t s) {
  return static_cast<double>(s + 1) / cluster.total_throughput();
}

}  // namespace hgc
