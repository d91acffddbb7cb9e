#include "rxl/transport/flit_codec.hpp"

#include <algorithm>
#include <cassert>

#include "rxl/common/bytes.hpp"
#include "rxl/link/credit.hpp"

namespace rxl::transport {
namespace {

/// CXL: the explicit SeqNum of a data flit that passed its check, if the
/// FSN field carries one.
std::optional<std::uint16_t> explicit_seq(const flit::Flit& flit) noexcept {
  const flit::FlitHeader header = flit.header();
  if (header.replay_cmd == flit::ReplayCmd::kSeqNum) return header.fsn;
  return std::nullopt;  // kAck: no sequence information on the wire — §4.1
}

}  // namespace

std::uint16_t control_credit_word(const flit::Flit& flit) noexcept {
  return load_le16(flit.payload(), 0);
}

std::uint16_t control_vc_credit_word(const flit::Flit& flit,
                                     std::size_t vc) noexcept {
  return load_le16(flit.payload(), 2 * vc);
}

std::uint8_t control_ecn_marks(const flit::Flit& flit) noexcept {
  return flit.payload()[kEcnMarksOffset];
}

FlitCodec::FlitCodec(Protocol protocol) : protocol_(protocol), isn_() {}

flit::Flit FlitCodec::frame_data(std::span<const std::uint8_t> payload,
                                 std::uint16_t seq,
                                 std::optional<std::uint16_t> acknum) const {
  assert(payload.size() <= kPayloadBytes);
  flit::Flit out;
  std::copy(payload.begin(), payload.end(), out.payload().begin());

  flit::FlitHeader header;
  header.type = flit::FlitType::kData;
  if (acknum.has_value()) {
    header.replay_cmd = flit::ReplayCmd::kAck;
    header.fsn = *acknum & kSeqMask;
  } else {
    header.replay_cmd = flit::ReplayCmd::kSeqNum;
    // CXL carries the explicit SeqNum; RXL zero-fills the field (§6.2).
    header.fsn = (protocol_ == Protocol::kCxl)
                     ? static_cast<std::uint16_t>(seq & kSeqMask)
                     : 0;
  }
  out.set_header(header);
  return out;
}

flit::Flit FlitCodec::frame_control(flit::ReplayCmd command, std::uint16_t fsn,
                                    const ControlCreditStamp& stamp) const {
  assert(stamp.vc_words.size() <= link::kMaxVcs);
  flit::Flit out;
  flit::FlitHeader header;
  header.type = flit::FlitType::kControl;
  header.replay_cmd = command;
  header.fsn = fsn & kSeqMask;
  out.set_header(header);
  for (std::size_t vc = 0; vc < stamp.vc_words.size(); ++vc)
    store_le16(out.payload(), 2 * vc, stamp.vc_words[vc]);
  out.payload()[kEcnMarksOffset] = stamp.ecn_marks;
  return out;
}

flit::Flit FlitCodec::encode_data(std::span<const std::uint8_t> payload,
                                  std::uint16_t seq,
                                  std::optional<std::uint16_t> acknum) const {
  flit::Flit out = frame_data(payload, seq, acknum);
  sim::seal_image(out, data_fold(seq));
  return out;
}

flit::Flit FlitCodec::encode_control(flit::ReplayCmd command,
                                     std::uint16_t fsn,
                                     std::uint16_t credit_word) const {
  return encode_control(command, fsn,
                        ControlCreditStamp{{&credit_word, 1}, 0});
}

flit::Flit FlitCodec::encode_control(flit::ReplayCmd command,
                                     std::uint16_t fsn,
                                     const ControlCreditStamp& stamp) const {
  // Control flits sit outside the data sequence stream in both stacks:
  // plain CRC, no ISN fold.
  flit::Flit out = frame_control(command, fsn, stamp);
  sim::seal_image(out, 0);
  return out;
}

RxCheck FlitCodec::check_data(const flit::Flit& flit,
                              std::uint16_t expected_seq) const {
  RxCheck result;
  if (protocol_ == Protocol::kRxl) {
    result.crc_ok =
        isn_.check(flit.crc_protected_region(), flit.crc_field(), expected_seq);
    return result;
  }
  result.crc_ok =
      isn_.encode_plain(flit.crc_protected_region()) == flit.crc_field();
  if (result.crc_ok) result.explicit_seq = explicit_seq(flit);
  return result;
}

bool FlitCodec::check_control(const flit::Flit& flit) const {
  return isn_.encode_plain(flit.crc_protected_region()) == flit.crc_field();
}

RxCheck FlitCodec::check_data(const sim::FlitEnvelope& envelope,
                              std::uint16_t expected_seq) const {
  if (envelope.sealed) return check_data(envelope.flit, expected_seq);
  RxCheck result;
  if (protocol_ == Protocol::kRxl) {
    result.crc_ok = ((envelope.isn_fold ^ expected_seq) & kSeqMask) == 0;
    return result;
  }
  result.crc_ok = true;
  result.explicit_seq = explicit_seq(envelope.flit);
  return result;
}

bool FlitCodec::check_control(const sim::FlitEnvelope& envelope) const {
  return !envelope.sealed || check_control(envelope.flit);
}

void FlitCodec::regenerate_link_crc(flit::Flit& flit) const {
  flit.set_crc_field(isn_.encode_plain(flit.crc_protected_region()));
}

void FlitCodec::apply_fec(flit::Flit& flit) const {
  rs::shared_flit_fec().encode(flit.bytes());
}

}  // namespace rxl::transport
