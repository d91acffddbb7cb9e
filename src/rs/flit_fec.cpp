#include "rxl/rs/flit_fec.hpp"

#include <cassert>

namespace rxl::rs {

// The whole 256 B wire image is 3-way byte-interleaved: wire byte j belongs
// to lane j % 3. This covers the parity bytes too — lane 0's codeword is
// flit[0,3,...,249] plus parity at flit[252,255], lane 1 is flit[1,...,247]
// plus flit[250,253], lane 2 is flit[2,...,248] plus flit[251,254] — so ANY
// contiguous wire burst of up to 3 bytes lands at most once per lane, the
// property §2.5's correction claim rests on.
//
// Because lane L's codeword symbol b sits at wire byte L + 3*b (parity
// included), both encode and decode run *in place* on the wire image with
// the strided ReedSolomon entry points: no gather/scatter copies exist on
// any path. Decode screens each lane with a strided syndrome pass first;
// lanes with zero syndromes are untouched, and a dirty lane's single-error
// verdict maps straight back to a wire offset.

FlitFec::FlitFec() : code84_(84, 2), code83_(83, 2) {}

const FlitFec& shared_flit_fec() {
  static const FlitFec codec;
  return codec;
}

void FlitFec::encode(std::span<std::uint8_t> flit) const {
  assert(flit.size() == kFlitBytes);
  for (std::size_t lane = 0; lane < 3; ++lane) {
    const ReedSolomon& code = (lane == 0) ? code84_ : code83_;
    code.encode_strided(flit.data() + lane, 3);
  }
}

FecDecodeResult FlitFec::decode(std::span<std::uint8_t> flit) const {
  assert(flit.size() == kFlitBytes);
  FecDecodeResult result;
  for (std::size_t lane = 0; lane < 3; ++lane) {
    const ReedSolomon& code = (lane == 0) ? code84_ : code83_;
    std::uint8_t syn[2];
    code.syndromes_strided(flit.data() + lane, 3, syn);
    if ((syn[0] | syn[1]) == 0) continue;  // clean lane: kClean default stands
    const ReedSolomon::SingleVerdict verdict =
        code.classify_single(syn[0], syn[1]);
    result.sub_block[lane] = verdict.status;
    if (verdict.status == DecodeStatus::kCorrected) {
      flit[lane + 3 * verdict.buffer_index] ^= verdict.magnitude;
      result.corrected_symbols += 1;
      if (result.status == DecodeStatus::kClean)
        result.status = DecodeStatus::kCorrected;
    } else {
      result.status = DecodeStatus::kDetectedUncorrectable;
    }
  }
  return result;
}

}  // namespace rxl::rs
