// A flit in flight, and the one routine that seals its wire image.
//
// Endpoints write unsealed frames: the real header and payload, with the
// 14 CRC + FEC bytes (242..255) and the origin fingerprint left unwritten.
// CRC-64 is linear, so for an image no error has touched the receiver's
// check outcome is already known without computing it (see `sealed`); the
// bytes are materialised only where an error actually strikes — a channel
// error model or a hub's internal upset — by seal().
#pragma once

#include <cstdint>
#include <type_traits>

#include "rxl/common/types.hpp"
#include "rxl/flit/flit.hpp"

namespace rxl::sim {

/// A flit in flight, with simulation-only ground-truth metadata that no
/// protocol logic may read (it exists so the simulator can skip FEC/CRC
/// work on untouched images and so scoreboards can classify failures).
struct FlitEnvelope {
  flit::Flit flit;
  /// True while the image is bit-identical to what the last encoder wrote.
  /// Any ErrorModel flip clears it; a successful FEC correction back to the
  /// original image restores it (verified by fingerprint).
  bool pristine = true;
  /// False while bytes 242..255 and `origin_fingerprint` are unwritten.
  /// Invariant: an unsealed envelope is pristine, and sealing it writes
  /// exactly the CRC `IsnCrc::encode(header + payload, isn_fold)` plus the
  /// 3-lane RS parity over that — the image a full encoder would have
  /// produced. Receivers therefore decide an unsealed flit without the
  /// CRC: an RXL data flit passes iff `isn_fold` equals the expected
  /// sequence number mod 1024 (the fold difference is a nonzero error of
  /// at most 10 bits, which CRC-64 always detects); every other unsealed
  /// flit passes. Defaults to true so hand-built envelopes keep meaning
  /// "this image is complete".
  bool sealed = true;
  /// The 10-bit value folded into the CRC when sealing: the data SeqNum
  /// for RXL, 0 for CXL and for every control flit.
  std::uint16_t isn_fold = 0;
  /// Fingerprint of the image as sealed by the last writer (TX endpoint or
  /// switch re-encode), for pristine restoration after FEC correction.
  /// Valid only while `sealed`.
  std::uint64_t origin_fingerprint = 0;
  /// Ground truth for scoreboards: global stream index assigned by the
  /// sending endpoint's application layer (data flits only).
  std::uint64_t truth_index = 0;
  bool has_truth = false;
  /// Destination routing tag consumed by multi-port switches. Stands in
  /// for the transaction-layer address lookup of a real CXL switch; the
  /// protocol logic never reads it.
  std::uint16_t dest_port = 0;
  /// Flow identity tag consumed by DAG relays (next-hop lookup) and flow
  /// sinks (per-flow scoreboard demux). Like dest_port it stands in for an
  /// address/stream lookup; the link protocol never reads it, and relays
  /// preserve it when a flit is re-originated on the next hop.
  std::uint16_t flow_id = 0;
};

// Envelopes park in RingQueues (channel in-flight, switch forwarding,
// reorder buffers) and are moved by plain block copy: they must stay
// trivially copyable, and their footprint is budgeted at the 256 B wire
// image plus one cache line of simulation metadata.
static_assert(std::is_trivially_copyable_v<FlitEnvelope>,
              "FlitEnvelope rides RingQueues as a block copy");
static_assert(sizeof(FlitEnvelope) <= kFlitBytes + 64,
              "FlitEnvelope metadata outgrew its one-cache-line budget");

/// Writes the CRC of `image`'s header + payload with `isn_fold` folded in,
/// then the 3-lane RS parity over header + payload + CRC. Uses the
/// process-wide CRC tables and FEC codec; FlitCodec's encoders and seal()
/// both end here.
void seal_image(flit::Flit& image, std::uint16_t isn_fold);

/// Seals an unsealed envelope in place: seal_image() with its `isn_fold`,
/// then its origin fingerprint. A sealed envelope is left untouched.
void seal(FlitEnvelope& envelope);

}  // namespace rxl::sim
