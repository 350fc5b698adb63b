#ifndef XMLUP_LABELS_ORDPATH_CODEC_H_
#define XMLUP_LABELS_ORDPATH_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/order_codec.h"

namespace xmlup::labels {

/// ORDPATH positional codes (O'Neil et al., SIGMOD 2004).
///
/// A code is the sequence of ordinal components a node contributes to its
/// ORDPATH label: zero or more even "caret" components followed by exactly
/// one odd component. Initial children receive the positive odd integers
/// 1, 3, 5, ...; insertion to the right adds 2 to the rightmost code,
/// insertion to the left subtracts 2 from the leftmost (components may go
/// negative), and insertion between two consecutive odd codes carets in
/// through the even value between them (e.g. between 1 and 3: 2.1).
///
/// Components are stored in the compressed binary representation's spirit:
/// a zigzag-mapped value in an Elias-gamma-style prefix code (the survey
/// notes ORDPATH wastes half the ordinal space on evens and grows under
/// frequent updates). Codes whose storage exceeds `max_code_bits` overflow
/// — the variable-length size-field problem of §4 that ORDPATH cannot
/// escape.
class OrdpathCodec final : public OrderCodec {
 public:
  explicit OrdpathCodec(size_t max_code_bits = 4096)
      : max_code_bits_(max_code_bits) {}

  std::string_view name() const override { return "ordpath"; }
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

  static std::string Pack(const std::vector<int64_t>& components);
  static std::vector<int64_t> Unpack(std::string_view code);

 private:
  common::Result<std::vector<int64_t>> BetweenComponents(
      const std::vector<int64_t>& left, const std::vector<int64_t>& right,
      common::OpCounters* stats) const;

  size_t max_code_bits_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_ORDPATH_CODEC_H_
