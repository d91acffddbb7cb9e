// Endpoint pair over a direct link: delivery, retry, ACK flow.
#include <gtest/gtest.h>

#include <optional>

#include "rxl/phy/error_model.hpp"
#include "rxl/transport/endpoint.hpp"
#include "rxl/txn/scoreboard.hpp"

namespace rxl::transport {
namespace {

struct PairHarness {
  sim::EventQueue queue;
  std::optional<Endpoint> a;  // "host"
  std::optional<Endpoint> b;  // "device"
  std::optional<sim::LinkChannel> a_to_b;
  std::optional<sim::LinkChannel> b_to_a;
  txn::StreamScoreboard down;  // a -> b
  txn::StreamScoreboard up;    // b -> a

  PairHarness(const ProtocolConfig& config,
              std::unique_ptr<phy::ErrorModel> forward_errors,
              std::uint64_t a_flits, std::uint64_t b_flits) {
    a.emplace(queue, config, "a");
    b.emplace(queue, config, "b");
    a_to_b.emplace(queue, std::move(forward_errors), 11);
    b_to_a.emplace(queue, std::make_unique<phy::NoErrors>(), 12);
    a->set_output(&*a_to_b);
    b->set_output(&*b_to_a);
    a_to_b->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { b->on_flit(std::move(envelope)); });
    b_to_a->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { a->on_flit(std::move(envelope)); });
    attach(*a, *b, down, a_flits, 1);
    attach(*b, *a, up, b_flits, 2);
  }

  static void attach(Endpoint& tx, Endpoint& rx, txn::StreamScoreboard& board,
                     std::uint64_t budget, std::uint64_t salt) {
    tx.set_source([&board, budget, salt,
                   index = std::uint64_t{0}]() mutable -> Endpoint::TxPull {
      if (index >= budget) return {};
      std::vector<std::uint8_t> payload(kPayloadBytes,
                                        static_cast<std::uint8_t>(salt));
      payload[0] = static_cast<std::uint8_t>(index);
      payload[1] = static_cast<std::uint8_t>(index >> 8);
      board.register_sent(index, payload);
      return {Endpoint::TxItem{std::move(payload), index++}};
    });
    rx.set_deliver([&board](std::span<const std::uint8_t> payload,
                            const sim::FlitEnvelope& envelope) {
      board.on_deliver(payload, envelope);
    });
  }

  void run(TimePs horizon) {
    a->kick();
    b->kick();
    queue.run_until(horizon);
  }
};

class EndpointBothProtocols : public ::testing::TestWithParam<Protocol> {};

TEST_P(EndpointBothProtocols, CleanLinkDeliversEverythingInOrder) {
  ProtocolConfig config;
  config.protocol = GetParam();
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 500, 500);
  harness.run(5'000'000);  // 5 us >> 500 flits * 2 ns
  const auto down = harness.down.finalize();
  const auto up = harness.up.finalize();
  EXPECT_EQ(down.in_order, 500u);
  EXPECT_EQ(down.order_violations, 0u);
  EXPECT_EQ(down.duplicates, 0u);
  EXPECT_EQ(down.data_corruptions, 0u);
  EXPECT_EQ(down.missing, 0u);
  EXPECT_EQ(up.in_order, 500u);
  EXPECT_EQ(up.order_violations, 0u);
}

TEST_P(EndpointBothProtocols, AcksFreeTheRetryBuffer) {
  ProtocolConfig config;
  config.protocol = GetParam();
  config.coalesce_factor = 4;
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 100, 100);
  harness.run(10'000'000);
  // After the run every flit is acked (the final coalesced ACK flushes via
  // the ack timeout), so both replay buffers drain.
  EXPECT_EQ(harness.a->debug_retry_buffer_size(), 0u);
  EXPECT_EQ(harness.b->debug_retry_buffer_size(), 0u);
}

TEST_P(EndpointBothProtocols, CorruptionIsRetriedToFullDelivery) {
  ProtocolConfig config;
  config.protocol = GetParam();
  // Aggressive corruption: ~2% of flits suffer a 2-symbol burst (FEC
  // corrects singles; pairs in one lane get through to CRC or drop).
  PairHarness harness(
      config,
      std::make_unique<phy::BernoulliGate>(
          0.02, std::make_unique<phy::SymbolBurstInjector>(5)),
      2000, 2000);
  harness.run(60'000'000);
  const auto down = harness.down.finalize();
  EXPECT_EQ(down.in_order, 2000u);
  EXPECT_EQ(down.missing, 0u);
  EXPECT_EQ(down.data_corruptions, 0u);
  // In a DIRECT connection even baseline CXL never misorders: every data
  // flit that matters arrives (nothing is silently dropped by a switch).
  EXPECT_EQ(down.order_violations, 0u);
}

TEST_P(EndpointBothProtocols, StandaloneAckPolicyDelivers) {
  ProtocolConfig config;
  config.protocol = GetParam();
  config.ack_policy = link::AckPolicy::kStandalone;
  config.coalesce_factor = 1;  // worst case: one ACK flit per data flit
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 300, 300);
  harness.run(10'000'000);
  EXPECT_EQ(harness.down.finalize().in_order, 300u);
  EXPECT_GT(harness.a->stats().control_flits_sent, 0u);
  EXPECT_EQ(harness.a->stats().acks_piggybacked, 0u);
}

TEST_P(EndpointBothProtocols, PiggybackPolicyUsesDataFlits) {
  ProtocolConfig config;
  config.protocol = GetParam();
  config.ack_policy = link::AckPolicy::kPiggyback;
  config.coalesce_factor = 4;
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 400, 400);
  harness.run(10'000'000);
  EXPECT_GT(harness.a->stats().acks_piggybacked, 50u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, EndpointBothProtocols,
                         ::testing::Values(Protocol::kCxl, Protocol::kRxl),
                         [](const auto& info) {
                           return info.param == Protocol::kCxl ? "CXL" : "RXL";
                         });

TEST(Endpoint, UnidirectionalTrafficFlushesAcksViaTimeout) {
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  config.coalesce_factor = 10;
  // b has no data to send, so piggybacking is impossible: ack timeout
  // flushes standalone ACKs.
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 50, 0);
  harness.run(20'000'000);
  EXPECT_EQ(harness.down.finalize().in_order, 50u);
  EXPECT_GT(harness.b->extra_stats().ack_timeout_flushes, 0u);
  EXPECT_EQ(harness.a->debug_retry_buffer_size(), 0u);
}

TEST(Endpoint, WindowStallsWhenAcksCannotFlow) {
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  config.retry_buffer_capacity = 8;
  config.ack_timeout = 0;      // disable ack flushing
  config.retry_timeout = 0;    // disable timeout replay
  config.coalesce_factor = 100;  // no ack will ever arm
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 100, 0);
  harness.run(5'000'000);
  // Only the first window's worth of flits can ever be sent.
  EXPECT_EQ(harness.a->stats().data_flits_sent, 8u);
  EXPECT_GT(harness.a->stats().tx_stalls, 0u);
  EXPECT_EQ(harness.down.finalize().in_order, 8u);
}

TEST(Endpoint, SequenceNumbersWrapCleanly) {
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  // > 1024 flits forces FSN wraparound.
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 2500, 0);
  harness.run(30'000'000);
  const auto down = harness.down.finalize();
  EXPECT_EQ(down.in_order, 2500u);
  EXPECT_EQ(down.order_violations, 0u);
  EXPECT_EQ(harness.a->debug_next_seq(), 2500 % 1024);
}

TEST(Endpoint, GateReportsCreditBeforeEcn) {
  // Two VCs, one credit each. b never returns the slot a's single flit
  // takes on VC 0, so VC 0's window stays empty while VC 1's stays open;
  // b's marks reach a through its ECN adverts.
  ProtocolConfig config;
  config.protocol = Protocol::kRxl;
  config.num_vcs = 2;
  config.tx_credits = 1;
  config.rx_credits = 1;
  PairHarness harness(config, std::make_unique<phy::NoErrors>(), 1, 0);
  harness.b->set_deferred_credit_return(true);
  harness.run(1'000'000);
  ASSERT_EQ(harness.down.finalize().in_order, 1u);

  harness.b->set_ecn_marks(0b11);
  harness.queue.run_until(2'000'000);
  const Endpoint::TxPull empty_marked = harness.a->gate(0);
  EXPECT_TRUE(empty_marked.credit_blocked);
  EXPECT_FALSE(empty_marked.ecn_blocked);
  const Endpoint::TxPull open_marked = harness.a->gate(1);
  EXPECT_FALSE(open_marked.credit_blocked);
  EXPECT_TRUE(open_marked.ecn_blocked);

  harness.b->set_ecn_marks(0);
  harness.queue.run_until(3'000'000);
  EXPECT_FALSE(harness.a->gate(1).blocked());
}

}  // namespace
}  // namespace rxl::transport
