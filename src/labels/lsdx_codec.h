#ifndef XMLUP_LABELS_LSDX_CODEC_H_
#define XMLUP_LABELS_LSDX_CODEC_H_

#include <string>
#include <vector>

#include "labels/order_codec.h"

namespace xmlup::labels {

/// LSDX positional letters (Duong & Zhang, ADC 2005).
///
/// Positional identifiers are lowercase letter strings. The first child of
/// a node is "b" (never "a", which is reserved for insertions before the
/// first child); subsequent children increment the last letter, and after
/// "z" the next identifier is "zb". Insertions follow the published rules:
///   - before the first child: prefix the leftmost identifier with "a";
///   - after the last child: lexicographically increment the last letter;
///   - between two children: increment the left neighbour's last letter,
///     falling back to appending "b" when that is not smaller than the
///     right neighbour.
///
/// These rules are implemented *faithfully, bugs included*: as Sans &
/// Laurent (PVLDB 2008) showed, they do not always produce unique,
/// correctly ordered labels (e.g. inserting between "b" and "bb" yields
/// "bb" again). The evaluation framework's uniqueness/order probes detect
/// this, which is why the survey deems LSDX "unsuitable for use as a
/// dynamic labelling scheme".
/// Like every variable-length code without QED's separator trick, LSDX
/// identifiers must record their own length; `length_field_bits` bounds
/// the representable identifier length, and exceeding it overflows (§4).
class LsdxCodec : public OrderCodec {
 public:
  explicit LsdxCodec(size_t length_field_bits = 8)
      : max_letters_((1ULL << length_field_bits) - 1) {}

  std::string_view name() const override { return "lsdx"; }
  EncodingRep encoding_rep() const override { return EncodingRep::kVariable; }

  common::Status InitialCodes(size_t n, std::vector<std::string>* out,
                              common::OpCounters* stats) const override;
  common::Result<std::string> Between(std::string_view left,
                                      std::string_view right,
                                      common::OpCounters* stats) const override;
  int Compare(std::string_view a, std::string_view b) const override;
  void OrderKey(std::string_view code, std::string* out) const override;
  size_t StorageBits(std::string_view code) const override;
  std::string Render(std::string_view code) const override;

  /// The published "lexicographically increment" successor rule.
  static std::string Increment(std::string_view code);

 private:
  size_t max_letters_;
};

/// Com-D: Compressed Dynamic Labelling Scheme (Duong & Zhang, OTM 2008).
///
/// Identical label algebra to LSDX; the storage/rendering applies the
/// published run-length compression, e.g. "aaaaabcbcbcdddde" is stored as
/// "5a3(bc)4de".
class ComDCodec final : public LsdxCodec {
 public:
  explicit ComDCodec(size_t length_field_bits = 8)
      : LsdxCodec(length_field_bits) {}

  std::string_view name() const override { return "com-d"; }
  size_t StorageBits(std::string_view code) const override;
  std::string Render(std::string_view code) const override;

  /// Run-length compression of letter runs and repeated letter groups.
  static std::string Compress(std::string_view code);
  /// Inverse of Compress.
  static std::string Decompress(std::string_view compressed);
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_LSDX_CODEC_H_
