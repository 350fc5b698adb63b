#ifndef XMLUP_LABELS_VECTOR_CODEC_H_
#define XMLUP_LABELS_VECTOR_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/order_codec.h"

namespace xmlup::labels {

/// Vector order codes (Xu, Bao & Ling, DEXA 2007).
///
/// A code is a vector (x, y) of positive integers ordered by the gradient
/// y/x; gradients are compared by cross-multiplication (y1*x2 < y2*x1), so
/// no division is ever performed — the vector scheme's Full mark on the
/// Division Computation property. A code strictly between A and B is the
/// mediant A + B (component-wise sum), whose gradient always lies strictly
/// between; the virtual bounds are (1,0) and (0,1). Because the mediant is
/// pure addition, repeated insertion at a fixed position grows components
/// *linearly* in the number of insertions — i.e. the code size grows
/// logarithmically, the survey's observation that "under skewed insertions
/// the vector label growth rate is much slower than QED".
///
/// Storage: each component is a LEB128 varint (our substitution for the
/// paper's UTF-8 delimiter processing, which the survey criticises for its
/// 2^21 cap; varints have the same shape without the cap).
class VectorCodec final : public OrderCodec {
 public:
  VectorCodec() = default;

  std::string_view name() const override { return "vector"; }
  EncodingRep encoding_rep() const override { return EncodingRep::kVariable; }

  common::Status InitialCodes(size_t n, std::vector<std::string>* out,
                              common::OpCounters* stats) const override;
  common::Result<std::string> Between(std::string_view left,
                                      std::string_view right,
                                      common::OpCounters* stats) const override;
  int Compare(std::string_view a, std::string_view b) const override;
  /// The gradient y/x as a ratio key (AppendRatioKey): stored codes always
  /// have x >= 1, since every code is a sum that includes the left bound
  /// (1,0) or a code derived from it. The key's divisions build an
  /// in-memory cache entry; labelling itself stays division-free.
  void OrderKey(std::string_view code, std::string* out) const override;
  size_t StorageBits(std::string_view code) const override;
  std::string Render(std::string_view code) const override;

  /// Packs a vector into code bytes (16 bytes: two little-endian uint64).
  static std::string Pack(uint64_t x, uint64_t y);
  /// Unpacks code bytes; returns false on malformed input.
  static bool Unpack(std::string_view code, uint64_t* x, uint64_t* y);

 private:
  void AssignRange(size_t lo, size_t hi, uint64_t lx, uint64_t ly,
                   uint64_t rx, uint64_t ry, std::vector<std::string>* out,
                   common::OpCounters* stats) const;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_VECTOR_CODEC_H_
