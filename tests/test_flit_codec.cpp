// FlitCodec: the protocol-defining encode/check pipelines (paper Fig. 6/7).
#include "rxl/transport/flit_codec.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <optional>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/crc/isn_crc.hpp"
#include "rxl/rs/flit_fec.hpp"
#include "rxl/sim/flit_envelope.hpp"

namespace rxl::transport {
namespace {

std::vector<std::uint8_t> random_payload(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> payload(kPayloadBytes);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.bounded(256));
  return payload;
}

TEST(FlitCodec, CxlCarriesExplicitSeqInHeader) {
  FlitCodec codec(Protocol::kCxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(1), 345, std::nullopt);
  const flit::FlitHeader header = encoded.header();
  EXPECT_EQ(header.replay_cmd, flit::ReplayCmd::kSeqNum);
  EXPECT_EQ(header.fsn, 345);
  EXPECT_EQ(header.type, flit::FlitType::kData);
}

TEST(FlitCodec, RxlZeroFillsFsnWhenNotPiggybacking) {
  // §6.2: the FSN field is zero in non-piggybacking RXL flits — the
  // sequence number travels only inside the CRC.
  FlitCodec codec(Protocol::kRxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(2), 345, std::nullopt);
  EXPECT_EQ(encoded.header().fsn, 0);
  EXPECT_EQ(encoded.header().replay_cmd, flit::ReplayCmd::kSeqNum);
}

TEST(FlitCodec, PiggybackReplacesFsnWithAcknum) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    FlitCodec codec(protocol);
    const flit::Flit encoded = codec.encode_data(random_payload(3), 345, 700);
    EXPECT_EQ(encoded.header().replay_cmd, flit::ReplayCmd::kAck);
    EXPECT_EQ(encoded.header().fsn, 700);
  }
}

TEST(FlitCodec, EncodedFlitPassesOwnFecAndCrc) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    FlitCodec codec(protocol);
    flit::Flit encoded = codec.encode_data(random_payload(4), 10, std::nullopt);
    EXPECT_TRUE(codec.fec().decode(encoded.bytes()).accepted());
    EXPECT_TRUE(codec.check_data(encoded, 10).crc_ok);
  }
}

TEST(FlitCodec, CxlCheckIgnoresExpectedSeq) {
  // Baseline CXL's CRC has no sequence component: the check passes with any
  // expected_seq; sequence enforcement is the caller's job via explicit_seq.
  FlitCodec codec(Protocol::kCxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(5), 11, std::nullopt);
  const RxCheck at_match = codec.check_data(encoded, 11);
  const RxCheck at_mismatch = codec.check_data(encoded, 999);
  EXPECT_TRUE(at_match.crc_ok);
  EXPECT_TRUE(at_mismatch.crc_ok);
  ASSERT_TRUE(at_mismatch.explicit_seq.has_value());
  EXPECT_EQ(*at_mismatch.explicit_seq, 11);
}

TEST(FlitCodec, CxlAckCarryingFlitHasNoSequenceInformation) {
  // The §4.1 hole, at codec level: explicit_seq is absent exactly when the
  // flit piggybacks an AckNum.
  FlitCodec codec(Protocol::kCxl);
  const flit::Flit encoded = codec.encode_data(random_payload(6), 12, 500);
  const RxCheck check = codec.check_data(encoded, 9999);
  EXPECT_TRUE(check.crc_ok);
  EXPECT_FALSE(check.explicit_seq.has_value());
}

TEST(FlitCodec, RxlCheckEnforcesSequence) {
  FlitCodec codec(Protocol::kRxl);
  const flit::Flit encoded =
      codec.encode_data(random_payload(7), 13, std::nullopt);
  EXPECT_TRUE(codec.check_data(encoded, 13).crc_ok);
  EXPECT_FALSE(codec.check_data(encoded, 12).crc_ok);
  EXPECT_FALSE(codec.check_data(encoded, 14).crc_ok);
}

TEST(FlitCodec, RxlAckCarryingFlitStillSequenceChecked) {
  // RXL's fix: piggybacking costs nothing — the ISN check still works.
  FlitCodec codec(Protocol::kRxl);
  const flit::Flit encoded = codec.encode_data(random_payload(8), 14, 500);
  EXPECT_TRUE(codec.check_data(encoded, 14).crc_ok);
  EXPECT_FALSE(codec.check_data(encoded, 15).crc_ok);
}

TEST(FlitCodec, ControlFlitsRoundTrip) {
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    FlitCodec codec(protocol);
    const flit::Flit nack =
        codec.encode_control(flit::ReplayCmd::kNackGoBackN, 77);
    EXPECT_TRUE(codec.check_control(nack));
    EXPECT_EQ(nack.header().type, flit::FlitType::kControl);
    EXPECT_EQ(nack.header().fsn, 77);
    flit::Flit corrupted = nack;
    corrupted.payload()[0] ^= 1;
    EXPECT_FALSE(codec.check_control(corrupted));
  }
}

TEST(FlitCodec, RegenerateLinkCrcMasksModification) {
  // The CXL-switch behaviour that lets internal corruption escape (§6.3).
  FlitCodec codec(Protocol::kCxl);
  flit::Flit encoded = codec.encode_data(random_payload(9), 15, std::nullopt);
  encoded.payload()[100] ^= 0xFF;
  EXPECT_FALSE(codec.check_data(encoded, 15).crc_ok);
  codec.regenerate_link_crc(encoded);
  EXPECT_TRUE(codec.check_data(encoded, 15).crc_ok);  // corruption re-signed
}

TEST(FlitCodec, RxlSequenceSurvivesHeaderAckRewrite) {
  // Two RXL encodings of the same payload+seq with different acknums have
  // different CRCs (header is covered), but both check against the same
  // expected_seq — sequence and acknum are orthogonal.
  FlitCodec codec(Protocol::kRxl);
  const auto payload = random_payload(10);
  const flit::Flit with_ack = codec.encode_data(payload, 16, 100);
  const flit::Flit without_ack = codec.encode_data(payload, 16, std::nullopt);
  EXPECT_NE(with_ack.crc_field(), without_ack.crc_field());
  EXPECT_TRUE(codec.check_data(with_ack, 16).crc_ok);
  EXPECT_TRUE(codec.check_data(without_ack, 16).crc_ok);
}

// The full encoder as it stood before framing and sealing were split: the
// CRC of header + payload with the fold, then RS parity from a fresh codec.
flit::Flit reference_encode(flit::Flit frame, std::uint16_t fold) {
  const crc::IsnCrc isn;
  frame.set_crc_field(isn.encode(frame.crc_protected_region(), fold));
  const rs::FlitFec fec;
  fec.encode(frame.bytes());
  return frame;
}

sim::FlitEnvelope unsealed(const flit::Flit& frame, std::uint16_t fold) {
  sim::FlitEnvelope envelope;
  envelope.flit = frame;
  envelope.sealed = false;
  envelope.isn_fold = fold;
  return envelope;
}

sim::FlitEnvelope sealed_copy(sim::FlitEnvelope envelope) {
  sim::seal(envelope);
  return envelope;
}

// Linearity (§5, §7.3) lets a receiver decide an untouched RXL data flit
// from its fold alone. Pinned exhaustively: for every (sent, expected)
// pair, with and without a piggybacked AckNum, the unsealed verdict equals
// the real CRC check on the sealed image, and sealing writes exactly the
// bytes the full encoder writes.
TEST(FlitCodec, UnsealedRxlVerdictEqualsCrcForAllSequencePairs) {
  const FlitCodec codec(Protocol::kRxl);
  const auto payload = random_payload(30);
  for (const std::optional<std::uint16_t> acknum :
       {std::optional<std::uint16_t>{}, std::optional<std::uint16_t>{700}}) {
    SCOPED_TRACE(acknum.has_value() ? "piggybacked AckNum" : "no AckNum");
    std::size_t mismatches = 0;
    std::size_t passes = 0;
    for (std::uint16_t sent = 0; sent < kSeqModulus; ++sent) {
      const sim::FlitEnvelope envelope = unsealed(
          codec.frame_data(payload, sent, acknum), codec.data_fold(sent));
      const sim::FlitEnvelope sealed = sealed_copy(envelope);
      ASSERT_EQ(sealed.flit, codec.encode_data(payload, sent, acknum));
      ASSERT_EQ(sealed.flit, reference_encode(envelope.flit, sent));
      ASSERT_EQ(sealed.origin_fingerprint, flit::flit_fingerprint(sealed.flit));
      for (std::uint16_t expected = 0; expected < kSeqModulus; ++expected) {
        const bool fast = codec.check_data(envelope, expected).crc_ok;
        const bool real = codec.check_data(sealed.flit, expected).crc_ok;
        mismatches += fast != real ? 1 : 0;
        passes += real ? 1 : 0;
      }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_EQ(passes, kSeqModulus);  // exactly the aligned pairs pass
  }
}

TEST(FlitCodec, UnsealedCxlAndControlVerdictsEqualCrc) {
  const auto payload = random_payload(31);
  const FlitCodec cxl(Protocol::kCxl);
  for (const std::optional<std::uint16_t> acknum :
       {std::optional<std::uint16_t>{}, std::optional<std::uint16_t>{700}}) {
    for (std::uint16_t sent = 0; sent < kSeqModulus; ++sent) {
      const sim::FlitEnvelope envelope = unsealed(
          cxl.frame_data(payload, sent, acknum), cxl.data_fold(sent));
      ASSERT_EQ(envelope.isn_fold, 0);
      const sim::FlitEnvelope sealed = sealed_copy(envelope);
      ASSERT_EQ(sealed.flit, cxl.encode_data(payload, sent, acknum));
      ASSERT_EQ(sealed.flit, reference_encode(envelope.flit, 0));
      for (const std::uint16_t expected :
           {sent, static_cast<std::uint16_t>((sent + 1) & kSeqMask)}) {
        const RxCheck fast = cxl.check_data(envelope, expected);
        const RxCheck real = cxl.check_data(sealed.flit, expected);
        ASSERT_EQ(fast.crc_ok, real.crc_ok);
        ASSERT_EQ(fast.explicit_seq, real.explicit_seq);
      }
    }
  }
  const std::array<std::uint16_t, 3> words{0xBEEF, 7, 0};
  for (const Protocol protocol : {Protocol::kCxl, Protocol::kRxl}) {
    const FlitCodec codec(protocol);
    for (const flit::ReplayCmd command :
         {flit::ReplayCmd::kSeqNum, flit::ReplayCmd::kAck,
          flit::ReplayCmd::kNackGoBackN, flit::ReplayCmd::kNackSingle}) {
      for (const std::uint16_t fsn : {0, 1, 513, 1023}) {
        const ControlCreditStamp stamp{words, 0x5};
        const sim::FlitEnvelope envelope =
            unsealed(codec.frame_control(command, fsn, stamp), 0);
        const sim::FlitEnvelope sealed = sealed_copy(envelope);
        ASSERT_EQ(sealed.flit, codec.encode_control(command, fsn, stamp));
        ASSERT_EQ(sealed.flit, reference_encode(envelope.flit, 0));
        ASSERT_TRUE(codec.check_control(sealed.flit));
        ASSERT_EQ(codec.check_control(envelope),
                  codec.check_control(sealed.flit));
      }
    }
  }
}

TEST(FlitCodec, SealIsANoOpOnSealedEnvelopes) {
  const FlitCodec codec(Protocol::kRxl);
  sim::FlitEnvelope envelope;
  envelope.flit = codec.encode_data(random_payload(32), 3, std::nullopt);
  envelope.flit.payload()[5] ^= 0x10;  // a struck, already-sealed image
  envelope.origin_fingerprint = 42;
  const sim::FlitEnvelope before = envelope;
  sim::seal(envelope);
  EXPECT_EQ(envelope.flit, before.flit);
  EXPECT_EQ(envelope.origin_fingerprint, 42u);
}

class FlitCodecSeqSweep : public ::testing::TestWithParam<std::uint16_t> {};

TEST_P(FlitCodecSeqSweep, RxlRejectsExactlyTheWrongSequences) {
  FlitCodec codec(Protocol::kRxl);
  const std::uint16_t seq = GetParam();
  const flit::Flit encoded =
      codec.encode_data(random_payload(20 + seq), seq, std::nullopt);
  for (const int delta : {-2, -1, 0, 1, 2, 511, 512}) {
    const std::uint16_t expected =
        static_cast<std::uint16_t>((seq + delta + kSeqModulus) & kSeqMask);
    EXPECT_EQ(codec.check_data(encoded, expected).crc_ok, expected == seq)
        << "seq=" << seq << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(Seqs, FlitCodecSeqSweep,
                         ::testing::Values<std::uint16_t>(0, 1, 2, 511, 512,
                                                          1022, 1023));

}  // namespace
}  // namespace rxl::transport
