// Multi-port switching device: the scale-out building block.
//
// A PortSwitch is N independent ingress pipelines feeding a routing stage
// that forwards each surviving flit to the egress port selected by the
// envelope's destination. Per the paper (§2.3, §6.4) each pipeline decodes
// the incoming flit's FEC, discards it silently if uncorrectable, and
// otherwise re-encodes and forwards it. The protocol mode controls what
// happens to the CRC:
//  * CXL  — the CRC is a link-layer field, so the switch terminates it:
//           it checks the CRC (dropping on mismatch) and *regenerates* it
//           when forwarding. Corruption inside the switch is therefore
//           re-signed and becomes undetectable downstream.
//  * RXL  — the CRC is end-to-end (ECRC): the switch forwards it untouched,
//           so switch-internal corruption is still caught at the endpoint.
// Switches never track sequence numbers in either mode (RXL's design goal).
// A one-port PortSwitch is the single-direction switch stage of the paper's
// multi-level evaluation.
//
// Real CXL switches route on transaction-layer addresses; this model
// abstracts that lookup as simulation metadata (`FlitEnvelope::dest_port`)
// — the reliability behaviour under study is unaffected because routing
// happens after (and independently of) the error handling. Each egress port
// carries the tag the NEXT hub in a chain routes on, written into the
// envelope as it leaves, so a flit crosses any number of stages with one
// tag stamped at its origin.
//
// Egress contention is modelled by the output LinkChannels themselves:
// concurrent flits to one port serialise in its slot queue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rxl/common/rng.hpp"
#include "rxl/sim/event_fifo.hpp"
#include "rxl/sim/link_channel.hpp"
#include "rxl/transport/flit_codec.hpp"

namespace rxl::switchdev {

struct PortSwitchStats {
  std::uint64_t flits_in = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t dropped_fec = 0;
  std::uint64_t dropped_crc = 0;       ///< CXL mode only
  std::uint64_t dropped_no_route = 0;  ///< destination port not connected
  std::uint64_t fec_corrected = 0;
  std::uint64_t internal_corruptions = 0;
};

class PortSwitch {
 public:
  struct Config {
    transport::Protocol protocol = transport::Protocol::kRxl;
    double internal_error_rate = 0.0;
    TimePs forward_latency = 10'000;  // 10 ns
    std::size_t ports = 4;
  };

  PortSwitch(sim::EventQueue& queue, const Config& config,
             std::uint64_t rng_seed);

  /// Connects egress port `port` to a channel. Flits leaving on it carry
  /// `next_tag` as their dest_port: the egress port of the next hub when
  /// the channel feeds one (ignored by terminations).
  void set_output(std::size_t port, sim::LinkChannel* output,
                  std::uint16_t next_tag = 0);

  /// Ingress entry point. The ingress port is implicit (stateless
  /// pipelines are identical); routing uses envelope.dest_port.
  void on_flit(sim::FlitEnvelope&& envelope);

  [[nodiscard]] const PortSwitchStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t ports() const noexcept { return outputs_.size(); }

 private:
  struct Egress {
    sim::LinkChannel* channel = nullptr;
    std::uint16_t next_tag = 0;
  };

  /// A routed flit in the forwarding pipeline; the egress channel is
  /// resolved at routing time, as before the ring existed.
  struct PendingForward {
    sim::FlitEnvelope envelope;
    sim::LinkChannel* output = nullptr;
  };

  void forward_front();

  sim::EventQueue& queue_;
  Config config_;
  transport::FlitCodec codec_;
  Xoshiro256 rng_;
  std::vector<Egress> outputs_;
  /// Routed flits in forward order, each stored with its forward key
  /// (due time, ticket drawn at routing). The forward latency is constant,
  /// so only the front flit's forward event sits in the event heap.
  sim::EventFifo<PendingForward> forwarding_;
  PortSwitchStats stats_;
};

}  // namespace rxl::switchdev
