// Channel adapters between the engine's round and the transport models.
//
// A Link answers one question: "a message of `bytes` leaves `from` for `to`
// at `send_time` — when does it arrive, if ever?" engine::run_round sorts
// the answers into the round's arrival order. Two adapters cover the existing transports:
// FixedLatencyLink reproduces the analytic simulator's constant result-
// transfer latency (SimParams::comm_latency), NetworkLink wraps the lossy
// SimulatedNetwork of net/ (latency + bandwidth + iid drops, seeded RNG).
#pragma once

#include <cstddef>
#include <optional>

#include "net/network.hpp"

namespace hgc::engine {

/// Point-to-point message transport as seen by engine::run_round.
class Link {
 public:
  virtual ~Link() = default;

  /// Arrival time of a `bytes`-sized message sent at `send_time`, or nullopt
  /// when the transport drops it. Must be >= send_time (so never NaN); the
  /// answer may depend only on this message and the link's own state.
  virtual std::optional<double> transmit(NodeId from, NodeId to,
                                         std::size_t bytes,
                                         double send_time) = 0;
};

/// Lossless link with a constant per-message latency and infinite bandwidth
/// (the virtual-clock trainers' transport).
class FixedLatencyLink : public Link {
 public:
  explicit FixedLatencyLink(double latency = 0.0) : latency_(latency) {
    HGC_REQUIRE(latency >= 0.0, "latency must be non-negative");
  }

  std::optional<double> transmit(NodeId, NodeId, std::size_t,
                                 double send_time) override {
    return send_time + latency_;
  }

 private:
  double latency_;
};

/// Adapter over the seeded lossy network model; the drop draws stay inside
/// the wrapped SimulatedNetwork.
class NetworkLink : public Link {
 public:
  explicit NetworkLink(SimulatedNetwork& network) : network_(&network) {}

  std::optional<double> transmit(NodeId from, NodeId to, std::size_t bytes,
                                 double send_time) override {
    return network_->transmit(from, to, bytes, send_time);
  }

 private:
  SimulatedNetwork* network_;
};

}  // namespace hgc::engine
