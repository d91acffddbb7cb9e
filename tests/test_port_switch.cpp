// Transparent switch behaviour on a one-port PortSwitch (one direction of
// one stage of the paper's multi-level trial): FEC correct/drop, CRC
// handling per protocol, internal corruption semantics (the §6.3/§6.4
// distinction), and the per-port tag rewrite that chains hubs.
#include "rxl/switchdev/port_switch.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "rxl/crc/isn_crc.hpp"
#include "rxl/phy/error_model.hpp"

namespace rxl::switchdev {
namespace {

using transport::FlitCodec;
using transport::Protocol;

struct Harness {
  sim::EventQueue queue;
  std::optional<PortSwitch> sw;
  std::optional<sim::LinkChannel> out;
  std::vector<sim::FlitEnvelope> received;

  explicit Harness(PortSwitch::Config config, std::uint64_t seed = 1) {
    config.ports = 1;
    sw.emplace(queue, config, seed);
    out.emplace(queue, std::make_unique<phy::NoErrors>(), seed + 1);
    out->set_receiver(
        [this](sim::FlitEnvelope&& envelope) { received.push_back(envelope); });
    sw->set_output(0, &*out);
  }
};

sim::FlitEnvelope data_envelope(const FlitCodec& codec, std::uint16_t seq) {
  std::vector<std::uint8_t> payload(kPayloadBytes, 0x42);
  sim::FlitEnvelope envelope;
  envelope.flit = codec.encode_data(payload, seq, std::nullopt);
  envelope.pristine = true;
  envelope.origin_fingerprint = flit::flit_fingerprint(envelope.flit);
  envelope.truth_index = seq;
  envelope.has_truth = true;
  return envelope;
}

TEST(PortSwitch, ForwardsPristineFlit) {
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 0));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_TRUE(harness.received[0].pristine);
  EXPECT_EQ(harness.sw->stats().flits_forwarded, 1u);
  EXPECT_EQ(harness.sw->stats().dropped_fec, 0u);
}

TEST(PortSwitch, ForwardLatencyApplied) {
  PortSwitch::Config config;
  config.forward_latency = 12'345;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 0));
  harness.queue.run();
  // forward latency + output slot + output latency (2000 + 2000 defaults).
  EXPECT_EQ(harness.queue.now(), 12'345u + 2000u + 2000u);
}

TEST(PortSwitch, CorrectsSingleSymbolAndRestoresPristine) {
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  auto envelope = data_envelope(codec, 1);
  envelope.flit.bytes()[50] ^= 0xFF;
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_TRUE(harness.received[0].pristine);  // true correction, fingerprint ok
  EXPECT_EQ(harness.sw->stats().fec_corrected, 1u);
}

TEST(PortSwitch, DropsUncorrectableSilently) {
  // The silent flit drop at the heart of the paper: no NACK, no forward.
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kRxl);
  auto envelope = data_envelope(codec, 2);
  envelope.flit.bytes()[10] ^= 0x5A;
  envelope.flit.bytes()[13] ^= 0x5A;  // same-lane equal pair: surely fatal
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  EXPECT_TRUE(harness.received.empty());
  EXPECT_EQ(harness.sw->stats().dropped_fec, 1u);
  EXPECT_EQ(harness.sw->stats().flits_forwarded, 0u);
}

TEST(PortSwitch, CxlRegeneratesCrcOverInternalCorruption) {
  // CXL: internal corruption is re-signed by the switch's link-layer CRC —
  // the endpoint will accept corrupt data (Fail_data).
  PortSwitch::Config config;
  config.protocol = Protocol::kCxl;
  config.internal_error_rate = 1.0;  // corrupt every transit
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kCxl);
  harness.sw->on_flit(data_envelope(codec, 3));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  EXPECT_EQ(harness.sw->stats().internal_corruptions, 1u);
  const flit::Flit& out = harness.received[0].flit;
  // Link CRC is VALID over the corrupted content...
  crc::IsnCrc isn;
  EXPECT_EQ(isn.encode_plain(out.crc_protected_region()), out.crc_field());
  // ...yet the content differs from what the endpoint sent.
  const flit::Flit original = codec.encode_data(
      std::vector<std::uint8_t>(kPayloadBytes, 0x42), 3, std::nullopt);
  EXPECT_FALSE(out == original);
}

TEST(PortSwitch, RxlPreservesEcrcOverInternalCorruption) {
  // RXL: the switch cannot re-sign; the stale ECRC travels on and the
  // endpoint's ISN check will reject the flit.
  PortSwitch::Config config;
  config.protocol = Protocol::kRxl;
  config.internal_error_rate = 1.0;
  Harness harness(config, 99);
  FlitCodec codec(Protocol::kRxl);
  harness.sw->on_flit(data_envelope(codec, 4));
  harness.queue.run();
  ASSERT_EQ(harness.received.size(), 1u);
  const flit::Flit& out = harness.received[0].flit;
  const transport::RxCheck check = codec.check_data(out, /*expected_seq=*/4);
  EXPECT_FALSE(check.crc_ok);
  // But the FEC was refreshed, so the next hop will not drop it.
  rs::FlitFec fec;
  flit::Flit copy = out;
  EXPECT_TRUE(fec.decode(copy.bytes()).accepted());
}

TEST(PortSwitch, CxlDropsOnLinkCrcMismatch) {
  // A miscorrected-FEC image (valid codeword, wrong bytes) reaches the CXL
  // switch's CRC check and is dropped there.
  PortSwitch::Config config;
  config.protocol = Protocol::kCxl;
  Harness harness(config);
  FlitCodec codec(Protocol::kCxl);
  auto envelope = data_envelope(codec, 5);
  // Corrupt payload then re-encode FEC only: FEC passes, CRC stale.
  envelope.flit.payload()[0] ^= 0x01;
  codec.apply_fec(envelope.flit);
  envelope.pristine = false;
  harness.sw->on_flit(std::move(envelope));
  harness.queue.run();
  EXPECT_TRUE(harness.received.empty());
  EXPECT_EQ(harness.sw->stats().dropped_crc, 1u);
}

TEST(PortSwitch, NoOutputConfiguredIsSafe) {
  PortSwitch::Config config;
  sim::EventQueue queue;
  config.ports = 1;
  PortSwitch sw(queue, config, 1);
  FlitCodec codec(Protocol::kRxl);
  sw.on_flit(data_envelope(codec, 0));
  queue.run();
  // Processed, nowhere to go: counted as an unroutable drop.
  EXPECT_EQ(sw.stats().flits_in, 1u);
  EXPECT_EQ(sw.stats().flits_forwarded, 0u);
  EXPECT_EQ(sw.stats().dropped_no_route, 1u);
}

TEST(PortSwitch, EgressPortRewritesTagForTheNextStage) {
  // A flit crosses a hub chain on one tag stamped at its origin: each
  // egress port hands the next hub's port on as it forwards.
  sim::EventQueue queue;
  PortSwitch::Config config;
  config.ports = 2;
  PortSwitch sw(queue, config, 1);
  sim::LinkChannel out0(queue, std::make_unique<phy::NoErrors>(), 2);
  sim::LinkChannel out1(queue, std::make_unique<phy::NoErrors>(), 3);
  std::vector<std::pair<int, std::uint16_t>> received;  // (port, tag)
  out0.set_receiver([&](sim::FlitEnvelope&& envelope) {
    received.emplace_back(0, envelope.dest_port);
  });
  out1.set_receiver([&](sim::FlitEnvelope&& envelope) {
    received.emplace_back(1, envelope.dest_port);
  });
  sw.set_output(0, &out0, /*next_tag=*/7);
  sw.set_output(1, &out1);
  FlitCodec codec(Protocol::kRxl);
  sim::FlitEnvelope to_port1 = data_envelope(codec, 0);
  to_port1.dest_port = 1;
  sw.on_flit(std::move(to_port1));
  sw.on_flit(data_envelope(codec, 1));  // tag 0
  queue.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(received[0], std::make_pair(1, std::uint16_t{0}));
  EXPECT_EQ(received[1], std::make_pair(0, std::uint16_t{7}));
}

}  // namespace
}  // namespace rxl::switchdev
