#ifndef XMLUP_LABELS_ORDER_CODEC_H_
#define XMLUP_LABELS_ORDER_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/op_counters.h"
#include "common/status.h"
#include "labels/scheme.h"

namespace xmlup::labels {

/// An order-preserving code generator: the dynamic part of a labelling
/// scheme, factored out so it can be plugged into either a prefix host
/// (Dewey-style paths) or a containment host (begin/end intervals).
///
/// This factoring *is* the paper's "Orthogonal Labelling Scheme" property:
/// QED, CDQS and Vector are orthogonal exactly because they are order
/// codecs; DeweyID or ORDPATH positional identifiers fit the same
/// interface but were only published as prefix schemes.
///
/// Codes are opaque byte strings interpreted by the codec. The empty
/// string is reserved as the -infinity / +infinity bound and is never a
/// valid code.
class OrderCodec {
 public:
  virtual ~OrderCodec() = default;

  virtual std::string_view name() const = 0;
  virtual EncodingRep encoding_rep() const = 0;

  /// Generates `n` codes in strictly increasing order for the initial
  /// labelling of `n` siblings. `stats` (nullable) receives the divisions
  /// and recursive calls the published algorithm performs.
  virtual common::Status InitialCodes(size_t n, std::vector<std::string>* out,
                                      common::OpCounters* stats) const = 0;

  /// Returns a code strictly between `left` and `right`; empty bounds are
  /// -infinity / +infinity. Returns StatusCode::kOverflow when the codec
  /// cannot produce such a code within its encoding budget — the host then
  /// relabels the sibling range (the §4 overflow problem made observable).
  virtual common::Result<std::string> Between(
      std::string_view left, std::string_view right,
      common::OpCounters* stats) const = 0;

  /// Order comparison of two codes: <0, 0, >0.
  virtual int Compare(std::string_view a, std::string_view b) const = 0;

  /// Appends to `*out` a byte string whose plain lexicographic order agrees
  /// with Compare(), with a proper byte-prefix sorting before its
  /// extensions. Every codec has one; a code that does not decode appends
  /// nothing.
  virtual void OrderKey(std::string_view code, std::string* out) const = 0;

  /// Storage cost of one code in bits under the scheme's own encoding
  /// (e.g. QED: 2 bits per quaternary number plus a 2-bit separator).
  virtual size_t StorageBits(std::string_view code) const = 0;

  /// Human-readable rendering of a single code.
  virtual std::string Render(std::string_view code) const = 0;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_ORDER_CODEC_H_
