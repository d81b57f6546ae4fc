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

#include "core/types.hpp"
#include "util/rng.hpp"

namespace hgc {

/// Node index; workers are 0..m-1, the master is node m by convention.
using NodeId = std::size_t;

/// Link characteristics, shared by every link of a network.
struct LinkParams {
  double latency = 0.0;             ///< seconds, fixed per message
  double bytes_per_second = 1e9;    ///< transfer rate
  double drop_probability = 0.0;    ///< iid per message
};

/// Deterministic (seeded) network model over a fixed set of nodes.
class SimulatedNetwork {
 public:
  SimulatedNetwork(std::size_t nodes, LinkParams params, Rng rng);

  /// Transmit `bytes` from → to starting at `send_time`. Returns the arrival
  /// time, or nullopt when the message is dropped.
  std::optional<double> transmit(NodeId from, NodeId to, std::size_t bytes,
                                 double send_time);

 private:
  std::size_t nodes_;
  LinkParams params_;
  Rng rng_;
};

}  // namespace hgc
