#ifndef XMLUP_LABELS_DEWEY_CODEC_H_
#define XMLUP_LABELS_DEWEY_CODEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/order_codec.h"

namespace xmlup::labels {

/// DeweyID positional identifiers (Tatarinov et al., SIGMOD 2002).
///
/// The n-th child simply receives the integer n. Appending after the last
/// sibling is free (max + 1); every other insertion position has no code
/// available between consecutive integers, so the codec reports overflow
/// and the host relabels the sibling range — reproducing the survey's
/// "insertion of new nodes requires the relabelling of any following
/// sibling nodes (and their descendants)".
class DeweyCodec final : public OrderCodec {
 public:
  DeweyCodec() = default;

  std::string_view name() const override { return "dewey"; }
  /// Each positional identifier is a fixed-width integer; the *label*
  /// (the path of identifiers) is variable length, which is what the
  /// survey's Figure 7 records for DeweyID.
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

  static std::string Pack(uint32_t v);
  static bool Unpack(std::string_view code, uint32_t* v);
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_DEWEY_CODEC_H_
