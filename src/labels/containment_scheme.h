#ifndef XMLUP_LABELS_CONTAINMENT_SCHEME_H_
#define XMLUP_LABELS_CONTAINMENT_SCHEME_H_

#include <memory>
#include <string>
#include <vector>

#include "labels/order_codec.h"
#include "labels/scheme.h"

namespace xmlup::labels {

/// A containment (interval) labelling scheme (§3.1.1) over an arbitrary
/// OrderCodec: each node is labelled with a (begin, end) pair of codes
/// generated in depth-first order; node u is an ancestor of v iff
/// u.begin < v.begin and v.end < u.end (Dietz, STOC 1982).
///
/// Plugging in the Vector codec yields the paper's "Vector" row — hybrid
/// order, no level encoding, ancestor-only XPath support (Partial), fully
/// persistent and overflow-free. Plugging in QED demonstrates the
/// orthogonality claim of §4 (an ablation the benchmarks exercise).
class ContainmentScheme final : public LabelingScheme {
 public:
  ContainmentScheme(SchemeTraits traits, std::unique_ptr<OrderCodec> codec);

  const SchemeTraits& traits() const override { return traits_; }
  const OrderCodec& codec() const { return *codec_; }

  common::Status LabelTree(const xml::Tree& tree,
                           std::vector<Label>* labels) const override;
  common::Result<InsertOutcome> LabelForInsert(
      const xml::Tree& tree, xml::NodeId node,
      const std::vector<Label>& labels) const override;
  int Compare(const Label& a, const Label& b) const override;
  void OrderKey(const Label& label, std::string* out) const override;
  bool IsAncestor(const Label& ancestor, const Label& descendant) const override;
  size_t StorageBits(const Label& label) const override;
  std::string Render(const Label& label) const override;

  /// Splits a label into its begin/end codes. Returns false on malformed
  /// input.
  static bool Split(const Label& label, std::string* begin, std::string* end);
  static Label MakeLabel(const std::string& begin, const std::string& end);

 private:
  void NoteAssigned(const Label& label) const;

  SchemeTraits traits_;
  std::unique_ptr<OrderCodec> codec_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_CONTAINMENT_SCHEME_H_
