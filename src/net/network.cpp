#include "net/network.hpp"

#include "util/error.hpp"

namespace hgc {

SimulatedNetwork::SimulatedNetwork(std::size_t nodes, LinkParams params,
                                   Rng rng)
    : nodes_(nodes), params_(params), rng_(rng) {
  HGC_REQUIRE(nodes > 0, "network needs at least one node");
  HGC_REQUIRE(params.latency >= 0.0 && params.bytes_per_second > 0.0 &&
                  params.drop_probability >= 0.0 &&
                  params.drop_probability <= 1.0,
              "invalid link parameters");
}

std::optional<double> SimulatedNetwork::transmit(NodeId from, NodeId to,
                                                 std::size_t bytes,
                                                 double send_time) {
  HGC_REQUIRE(from < nodes_ && to < nodes_, "node id out of range");
  HGC_REQUIRE(send_time >= 0.0, "send time must be non-negative");
  if (params_.drop_probability > 0.0 &&
      rng_.bernoulli(params_.drop_probability))
    return std::nullopt;
  return send_time + params_.latency +
         static_cast<double>(bytes) / params_.bytes_per_second;
}

}  // namespace hgc
