// Tests for the wire format, the simulated network, and end-to-end coded
// rounds over a lossy network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/scheme_factory.hpp"
#include "engine/link.hpp"
#include "engine/round.hpp"
#include "net/network.hpp"
#include "net/wire.hpp"

namespace hgc {
namespace {

GradientMessage sample_message() {
  GradientMessage message;
  message.worker = 3;
  message.iteration = 17;
  message.payload = {1.5, -2.25, 0.0, 1e-300, -1e300};
  return message;
}

TEST(Wire, RoundTrip) {
  const GradientMessage original = sample_message();
  const auto frame = encode_message(original);
  EXPECT_EQ(frame.size(), frame_size(original.payload.size()));
  const GradientMessage decoded = decode_message(frame);
  EXPECT_EQ(decoded, original);
}

TEST(Wire, EmptyPayloadRoundTrip) {
  GradientMessage message;
  message.worker = 0;
  message.iteration = 0;
  const auto frame = encode_message(message);
  EXPECT_EQ(decode_message(frame), message);
}

TEST(Wire, SpecialDoublesSurvive) {
  GradientMessage message;
  message.payload = {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::denorm_min()};
  const auto decoded = decode_message(encode_message(message));
  EXPECT_EQ(decoded.payload[0], message.payload[0]);
  EXPECT_EQ(decoded.payload[1], message.payload[1]);
  EXPECT_EQ(decoded.payload[2], message.payload[2]);
}

TEST(Wire, DetectsCorruptionAnywhere) {
  const auto frame = encode_message(sample_message());
  for (std::size_t i = 0; i < frame.size(); i += 7) {
    auto corrupted = frame;
    corrupted[i] ^= std::byte{0x01};
    EXPECT_THROW(decode_message(corrupted), WireError) << "byte " << i;
  }
}

TEST(Wire, DetectsTruncation) {
  const auto frame = encode_message(sample_message());
  for (std::size_t keep : {std::size_t{0}, std::size_t{3}, frame.size() - 1})
    EXPECT_THROW(
        decode_message(std::span<const std::byte>(frame.data(), keep)),
        WireError);
}

TEST(Wire, DetectsTrailingGarbage) {
  auto frame = encode_message(sample_message());
  frame.push_back(std::byte{0});
  EXPECT_THROW(decode_message(frame), WireError);
}

TEST(Wire, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE reference vector).
  const char* text = "123456789";
  std::vector<std::byte> bytes;
  for (const char* p = text; *p; ++p)
    bytes.push_back(static_cast<std::byte>(*p));
  EXPECT_EQ(crc32(bytes), 0xCBF43926u);
}

TEST(Wire, GoldenFrameStability) {
  // The first bytes are fixed by the format: magic "HGC1" little-endian,
  // version 1. A change here breaks cross-version compatibility.
  const auto frame = encode_message(sample_message());
  EXPECT_EQ(static_cast<unsigned>(frame[0]), 0x31u);  // '1'
  EXPECT_EQ(static_cast<unsigned>(frame[1]), 0x43u);  // 'C'
  EXPECT_EQ(static_cast<unsigned>(frame[2]), 0x47u);  // 'G'
  EXPECT_EQ(static_cast<unsigned>(frame[3]), 0x48u);  // 'H'
  EXPECT_EQ(static_cast<unsigned>(frame[4]), 0x01u);  // version lo
  EXPECT_EQ(static_cast<unsigned>(frame[5]), 0x00u);  // version hi
}

TEST(Network, LatencyAndBandwidthMath) {
  SimulatedNetwork net(3, {0.01, 1000.0, 0.0}, Rng(1));
  const auto arrival = net.transmit(0, 2, 500, 2.0);
  ASSERT_TRUE(arrival.has_value());
  EXPECT_NEAR(*arrival, 2.0 + 0.01 + 0.5, 1e-12);
}

TEST(Network, DropRateApproximatesProbability) {
  SimulatedNetwork net(2, {0.0, 1e9, 0.3}, Rng(3));
  int dropped = 0;
  for (int i = 0; i < 2000; ++i)
    dropped += net.transmit(0, 1, 10, 0.0).has_value() ? 0 : 1;
  const double rate = dropped / 2000.0;
  EXPECT_NEAR(rate, 0.3, 0.05);
}

TEST(Network, RejectsInvalidParameters) {
  EXPECT_THROW(SimulatedNetwork(0, {}, Rng(4)), std::invalid_argument);
  EXPECT_THROW(SimulatedNetwork(2, {-1.0, 1.0, 0.0}, Rng(4)),
               std::invalid_argument);
  EXPECT_THROW(SimulatedNetwork(2, {0.0, 0.0, 0.0}, Rng(4)),
               std::invalid_argument);
  SimulatedNetwork net(2, {}, Rng(4));
  EXPECT_THROW(net.transmit(0, 5, 1, 0.0), std::invalid_argument);
}

class CodedRoundTest : public ::testing::Test {
 protected:
  CodedRoundTest()
      : cluster_(cluster_a()),
        rng_(161),
        scheme_(make_scheme(SchemeKind::kHeterAware, cluster_.throughputs(),
                            24, 1, rng_)) {
    grads_.resize(24);
    expected_.assign(4, 0.0);
    for (std::size_t p = 0; p < 24; ++p) {
      grads_[p] = {double(p), 1.0, -0.5 * double(p), 2.0};
      axpy(1.0, grads_[p], expected_);
    }
    conditions_.speed_factor.assign(8, 1.0);
    conditions_.delay.assign(8, 0.0);
    conditions_.faulted.assign(8, false);
  }

  /// Loses every message sent by a worker in `dropped`; forwards the rest
  /// to the wrapped network.
  class DroppingLink : public engine::Link {
   public:
    DroppingLink(SimulatedNetwork& network, std::vector<WorkerId> dropped)
        : inner_(network), dropped_(std::move(dropped)) {}
    std::optional<double> transmit(NodeId from, NodeId to, std::size_t bytes,
                                   double send_time) override {
      if (std::find(dropped_.begin(), dropped_.end(), from) != dropped_.end())
        return std::nullopt;
      return inner_.transmit(from, to, bytes, send_time);
    }

   private:
    engine::NetworkLink inner_;
    std::vector<WorkerId> dropped_;
  };

  /// One round of real wire frames over `network`, losing every message
  /// from the workers in `dropped`.
  engine::RoundOutcome wire_round(SimulatedNetwork& network,
                                  std::vector<WorkerId> dropped = {}) {
    DroppingLink link(network, std::move(dropped));
    engine::RoundOptions options;
    options.partition_gradients = &grads_;
    return engine::run_round(*scheme_, cluster_, conditions_, link, options);
  }

  Cluster cluster_;
  Rng rng_;
  std::unique_ptr<CodingScheme> scheme_;
  std::vector<Vector> grads_;
  Vector expected_;
  IterationConditions conditions_;
};

TEST_F(CodedRoundTest, LosslessRoundRecoversExactAggregate) {
  SimulatedNetwork net(9, {0.001, 1e9, 0.0}, Rng(5));
  const auto result = wire_round(net);
  ASSERT_TRUE(result.decoded);
  ASSERT_EQ(result.aggregate.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(result.aggregate[i], expected_[i], 1e-8);
  EXPECT_EQ(result.dropped, 0u);
}

TEST_F(CodedRoundTest, SurvivesOneDroppedMessage) {
  // Deterministically drop the fastest worker's link.
  SimulatedNetwork net(9, {0.001, 1e9, 0.0}, Rng(6));
  const auto result = wire_round(net, {7});
  ASSERT_TRUE(result.decoded);
  EXPECT_EQ(result.dropped, 1u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_NEAR(result.aggregate[i], expected_[i], 1e-8);
}

TEST_F(CodedRoundTest, FailsBeyondTolerance) {
  SimulatedNetwork net(9, {0.001, 1e9, 0.0}, Rng(7));
  const auto result = wire_round(net, {6, 7});
  EXPECT_FALSE(result.decoded);
  EXPECT_EQ(result.dropped, 2u);
}

TEST_F(CodedRoundTest, FaultAndDropCombine) {
  conditions_.faulted[0] = true;  // one fault
  SimulatedNetwork net(9, {0.001, 1e9, 0.0}, Rng(8));
  const auto result = wire_round(net, {5});  // plus one drop: 2 > s = 1
  EXPECT_FALSE(result.decoded);
}

TEST_F(CodedRoundTest, SlowLinkDelaysDecode) {
  SimulatedNetwork fast(9, {0.0, 1e9, 0.0}, Rng(9));
  const auto quick = wire_round(fast);
  SimulatedNetwork slow(9, {0.05, 1e9, 0.0}, Rng(9));
  const auto delayed = wire_round(slow);
  ASSERT_TRUE(quick.decoded);
  ASSERT_TRUE(delayed.decoded);
  EXPECT_NEAR(delayed.time - quick.time, 0.05, 1e-9);
}

TEST_F(CodedRoundTest, RequiresMasterNode) {
  SimulatedNetwork too_small(8, {}, Rng(10));
  EXPECT_THROW(wire_round(too_small), std::invalid_argument);
}

}  // namespace
}  // namespace hgc
