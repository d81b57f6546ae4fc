// Simulated point-to-point network with latency, bandwidth and loss.
//
// Message loss is one more way a result can "straggle forever": gradient
// coding absorbs up to s lost results per iteration with zero retransmission
// machinery. engine::run_round over an engine::NetworkLink with wire frames
// (the `loss` sweep preset) shows it end to end: serialize → transmit →
// maybe drop → sort the arrivals → parse → streaming decode. transmit()
// draws the drop from the network's one seeded stream, so callers send in a
// fixed order (run_round: worker-id order) to keep runs reproducible.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "core/types.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Node index; workers are 0..m-1, the master is node m by convention.
using NodeId = std::size_t;

/// Per-link characteristics.
struct LinkParams {
  double latency = 0.0;             ///< seconds, fixed per message
  double bytes_per_second = 1e9;    ///< transfer rate
  double drop_probability = 0.0;    ///< iid per message
};

/// Deterministic (seeded) network model over a fixed set of nodes.
class SimulatedNetwork {
 public:
  SimulatedNetwork(std::size_t nodes, LinkParams defaults, Rng rng);

  /// Override one directed link.
  void set_link(NodeId from, NodeId to, LinkParams params);

  const LinkParams& link(NodeId from, NodeId to) const;

  /// Transmit `bytes` from → to starting at `send_time`. Returns the arrival
  /// time, or nullopt when the message is dropped.
  std::optional<double> transmit(NodeId from, NodeId to, std::size_t bytes,
                                 double send_time);

  std::size_t nodes() const { return nodes_; }
  std::size_t messages_sent() const { return sent_; }
  std::size_t messages_dropped() const { return dropped_; }
  std::size_t bytes_sent() const { return bytes_sent_; }

 private:
  std::size_t index(NodeId from, NodeId to) const;

  std::size_t nodes_;
  std::vector<LinkParams> links_;  // dense (from, to) matrix
  Rng rng_;
  std::size_t sent_ = 0;
  std::size_t dropped_ = 0;
  std::size_t bytes_sent_ = 0;
};

}  // namespace hgc
