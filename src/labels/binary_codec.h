#ifndef XMLUP_LABELS_BINARY_CODEC_H_
#define XMLUP_LABELS_BINARY_CODEC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "labels/digit_string.h"
#include "labels/order_codec.h"

namespace xmlup::labels {

/// ImprovedBinary positional codes (Li & Ling, DASFAA 2005).
///
/// Codes are bit strings over {0,1} that always end in 1, compared
/// lexicographically. Initial assignment is the paper's recursive middle
/// algorithm: the leftmost sibling gets "01", the rightmost "011", and
/// AssignMiddleSelfLabel fills the gaps (both recursion and the midpoint
/// divisions are counted — Figure 7 marks the scheme non-compliant on the
/// Division Computation and Recursive Labelling Algorithm properties).
///
/// Storage: a variable-length code must record its own length; the length
/// field has `length_field_bits` bits, so codes longer than
/// 2^length_field_bits - 1 bits overflow and force relabelling — the §4
/// overflow problem that motivated QED.
class ImprovedBinaryCodec final : public OrderCodec {
 public:
  explicit ImprovedBinaryCodec(size_t length_field_bits = 8)
      : length_field_bits_(length_field_bits),
        max_code_bits_((1ULL << length_field_bits) - 1) {}

  std::string_view name() const override { return "improved-binary"; }
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

 private:
  void AssignRange(size_t lo, size_t hi, const std::string& left,
                   const std::string& right, std::vector<std::string>* out,
                   common::OpCounters* stats) const;

  size_t length_field_bits_;
  size_t max_code_bits_;
};

/// CDBS: Compact Dynamic Binary String (Li, Ling & Hu, ICDE 2006).
///
/// Initial codes are consecutive fixed-width binary numbers (width
/// ceil(log2(n+1))), which is what makes the scheme compact; insertions
/// reuse the binary between-algorithm. The fixed-length encoding caps the
/// code size at `slot_bits`, so heavy updates overflow and force
/// relabelling (the survey: "these improvements were made possible through
/// fixed length bit encoding and thus are subject to the overflow
/// problem").
class CdbsCodec final : public OrderCodec {
 public:
  explicit CdbsCodec(size_t slot_bits = 64) : slot_bits_(slot_bits) {}

  std::string_view name() const override { return "cdbs"; }
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
  size_t slot_bits_;
};

/// The binary digit domain shared by both codecs: digits {0,1}, codes end
/// in 1.
inline constexpr DigitDomain kBinaryDomain{0, 1, 1};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_BINARY_CODEC_H_
