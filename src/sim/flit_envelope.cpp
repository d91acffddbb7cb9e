#include "rxl/sim/flit_envelope.hpp"

#include "rxl/crc/isn_crc.hpp"
#include "rxl/rs/flit_fec.hpp"

namespace rxl::sim {

void seal_image(flit::Flit& image, std::uint16_t isn_fold) {
  const crc::IsnCrc isn;
  image.set_crc_field(isn.encode(image.crc_protected_region(), isn_fold));
  rs::shared_flit_fec().encode(image.bytes());
}

void seal(FlitEnvelope& envelope) {
  if (envelope.sealed) return;
  seal_image(envelope.flit, envelope.isn_fold);
  envelope.origin_fingerprint = flit::flit_fingerprint(envelope.flit);
  envelope.sealed = true;
}

}  // namespace rxl::sim
