#ifndef XMLUP_LABELS_DLN_CODEC_H_
#define XMLUP_LABELS_DLN_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/digit_string.h"
#include "labels/order_codec.h"

namespace xmlup::labels {

/// DLN positional identifiers (Böhme & Rahm, DIWeb 2004).
///
/// A positional identifier is a sequence of sub-values of fixed bit width
/// `component_bits` (e.g. 3/1 for a node inserted after 3's first slot).
/// Arbitrary insertions are supported by appending sub-values between two
/// consecutive identifiers, matching the survey's description. Because
/// the component width is fixed, identifiers overflow once the update
/// process exceeds either the component range or the sub-value budget
/// (`max_components`), at which point the host relabels — "under frequent
/// updates the fixed label size may overflow and thus, this scheme will
/// succumb to the same limitations as the DeweyID scheme".
///
/// Codes are stored one byte per sub-value; storage cost is computed at
/// the declared `component_bits` per sub-value.
class DlnCodec final : public OrderCodec {
 public:
  explicit DlnCodec(int component_bits = 4, size_t max_components = 16)
      : component_bits_(component_bits),
        max_value_(static_cast<uint8_t>((1u << component_bits) - 1)),
        max_components_(max_components),
        domain_{0, max_value_, 1} {}

  std::string_view name() const override { return "dln"; }
  EncodingRep encoding_rep() const override { return EncodingRep::kFixed; }

  common::Status InitialCodes(size_t n, std::vector<std::string>* out,
                              common::OpCounters* stats) const override;
  common::Result<std::string> Between(std::string_view left,
                                      std::string_view right,
                                      common::OpCounters* stats) const override;
  int Compare(std::string_view a, std::string_view b) const override;
  void OrderKey(std::string_view code, std::string* out) const override;
  size_t StorageBits(std::string_view code) const override;
  std::string Render(std::string_view code) const override;

 private:
  int component_bits_;
  uint8_t max_value_;
  size_t max_components_;
  DigitDomain domain_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_DLN_CODEC_H_
