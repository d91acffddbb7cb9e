#include "rxl/switchdev/port_switch.hpp"

#include <cassert>
#include <utility>

#include "rxl/common/bytes.hpp"

namespace rxl::switchdev {

PortSwitch::PortSwitch(sim::EventQueue& queue, const Config& config,
                       std::uint64_t rng_seed)
    : queue_(queue),
      config_(config),
      codec_(config.protocol),
      rng_(rng_seed),
      outputs_(config.ports) {}

void PortSwitch::set_output(std::size_t port, sim::LinkChannel* output,
                            std::uint16_t next_tag) {
  assert(port < outputs_.size());
  outputs_[port] = Egress{output, next_tag};
}

void PortSwitch::on_flit(sim::FlitEnvelope&& envelope) {
  stats_.flits_in += 1;

  // --- Ingress FEC. Pristine images are valid codewords by construction
  // (zero syndromes), so the decode is skipped without changing behaviour.
  // An unsealed image is pristine, so it passes both ingress checks as is.
  if (!envelope.pristine) {
    const rs::FecDecodeResult fec = codec_.fec().decode(envelope.flit.bytes());
    if (!fec.accepted()) {
      stats_.dropped_fec += 1;  // silent drop
      return;
    }
    if (fec.status == rs::DecodeStatus::kCorrected) {
      stats_.fec_corrected += 1;
      // A true correction restores the exact encoded image; a miscorrection
      // yields a different (but internally consistent) codeword. Compare
      // fingerprints to keep the pristine fast path exact.
      envelope.pristine =
          flit::flit_fingerprint(envelope.flit) == envelope.origin_fingerprint;
    }
  }

  // --- CXL only: the switch terminates the link-layer CRC (data and
  // control flits both carry the plain link CRC in CXL).
  if (codec_.protocol() == transport::Protocol::kCxl && !envelope.pristine) {
    if (!codec_.check_control(envelope.flit)) {
      stats_.dropped_crc += 1;
      return;
    }
  }

  // --- Internal corruption (buffer upset / switching-logic error) strikes
  // between ingress checks and egress regeneration. An unsealed image gets
  // its CRC and FEC first, so the flip lands on the full wire image.
  if (config_.internal_error_rate > 0.0 &&
      rng_.bernoulli(config_.internal_error_rate)) {
    stats_.internal_corruptions += 1;
    sim::seal(envelope);
    flip_bit(envelope.flit.bytes(),
             rng_.bounded((kHeaderBytes + kPayloadBytes) * 8));
    envelope.pristine = false;
  }

  // --- Egress regeneration. CXL re-signs the link CRC over whatever the
  // switch now holds (what makes internal corruption invisible to the
  // endpoint); RXL passes the ECRC through and only refreshes the FEC. The
  // image is then a valid codeword for the next hop's FEC — pristine in the
  // FEC sense — while the endpoint still evaluates the real ECRC.
  if (!envelope.pristine) {
    if (codec_.protocol() == transport::Protocol::kCxl)
      codec_.regenerate_link_crc(envelope.flit);
    codec_.apply_fec(envelope.flit);
    envelope.origin_fingerprint = flit::flit_fingerprint(envelope.flit);
    envelope.pristine = true;
  }

  // --- Routing stage.
  const std::size_t port = envelope.dest_port;
  if (port >= outputs_.size() || outputs_[port].channel == nullptr) {
    stats_.dropped_no_route += 1;
    return;
  }
  stats_.flits_forwarded += 1;
  envelope.dest_port = outputs_[port].next_tag;
  forwarding_.push(queue_, queue_.now() + config_.forward_latency,
                   PendingForward{std::move(envelope), outputs_[port].channel},
                   [this] { forward_front(); });
}

void PortSwitch::forward_front() {
  PendingForward pending = forwarding_.pop(queue_, [this] { forward_front(); });
  pending.output->send(std::move(pending.envelope));
}

}  // namespace rxl::switchdev
