#ifndef XMLUP_LABELS_QUATERNARY_CODEC_H_
#define XMLUP_LABELS_QUATERNARY_CODEC_H_

#include <cstddef>
#include <string>
#include <vector>

#include "labels/digit_string.h"
#include "labels/order_codec.h"

namespace xmlup::labels {

/// QED quaternary codes (Li & Ling, CIKM 2005).
///
/// Codes are strings over the quaternary numbers {1,2,3}, each stored in
/// two bits; the number 0 (bit pattern 00) is reserved as the separator
/// between consecutive codes, which is the mechanism that removes the need
/// for a stored length and thereby *completely avoids the overflow
/// problem* (§4 of the survey). Codes always end in 2 or 3 so that a
/// smaller code always exists, and are compared lexicographically.
///
/// Initial assignment is the recursive one-third/two-thirds algorithm
/// (GetOneThirdAndTwoThirdCode); its recursion and divisions are counted.
class QedCodec final : public OrderCodec {
 public:
  QedCodec() = default;

  std::string_view name() const override { return "qed"; }
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
};

/// CDQS: Compact Dynamic Quaternary String (Li, Ling & Hu, VLDB J. 2008).
///
/// Same storage model as QED (2-bit quaternary numbers, 00 separator, no
/// overflow), but the initial codes are assigned compactly: the n
/// *shortest* valid codes (2 * 3^(L-1) codes exist at length L), sorted
/// lexicographically — near the information-theoretic minimum, which is
/// what earns CDQS the survey's only Full mark for Compact Encoding among
/// prefix-style schemes. The assignment walks a recursive
/// divide-and-conquer (the published algorithm is recursive).
class CdqsCodec final : public OrderCodec {
 public:
  CdqsCodec() = default;

  std::string_view name() const override { return "cdqs"; }
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
  // Builds the i-th (0-based) fixed-width compact code for width `width`.
  static std::string NthCode(size_t i, size_t width);
  void AssignRange(size_t lo, size_t hi,
                   const std::vector<std::string>& codes,
                   std::vector<std::string>* out,
                   common::OpCounters* stats) const;
};

/// Quaternary digit domain: digits {1,2,3}, codes end in {2,3}.
inline constexpr DigitDomain kQuaternaryDomain{1, 3, 2};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_QUATERNARY_CODEC_H_
