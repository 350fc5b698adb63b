#ifndef XMLUP_LABELS_PREFIX_SCHEME_H_
#define XMLUP_LABELS_PREFIX_SCHEME_H_

#include <memory>
#include <string>
#include <vector>

#include "labels/order_codec.h"
#include "labels/scheme.h"

namespace xmlup::labels {

/// How a prefix label is rendered for humans.
enum class PrefixRenderStyle {
  /// Positional identifiers joined with dots: "1.3.2" (Dewey, ORDPATH,
  /// ImprovedBinary, QED, ...). The root renders as the empty label.
  kDotted,
  /// LSDX style: nesting level, the concatenated ancestor letters, a dot,
  /// then the node's own letters: "2ab.c". The root renders as "0a".
  kLsdx,
};

/// A prefix labelling scheme (§3.1.2): a node's label is its parent's
/// label concatenated with a positional identifier generated by an
/// OrderCodec. Which concrete scheme this is — DeweyID, ORDPATH, DLN,
/// LSDX, ImprovedBinary, QED, CDBS, CDQS, DDE-style vectors — is entirely
/// determined by the injected codec.
///
/// Prefix labels support ancestor/parent/sibling evaluation and level
/// decoding from the label alone (the component count), i.e. the Hybrid
/// ordering approach: local order within the positional identifier,
/// global order through the embedded ancestor path.
///
/// When the codec cannot produce an identifier for an insertion (DeweyID
/// between two consecutive integers; a fixed-width or length-field budget
/// exhausted), the whole sibling range under the parent is relabelled and
/// every affected descendant rewritten — the relabelling cost the survey
/// attributes to non-persistent schemes, and the overflow event of §4.
class PrefixScheme final : public LabelingScheme {
 public:
  PrefixScheme(SchemeTraits traits, std::unique_ptr<OrderCodec> codec,
               PrefixRenderStyle style = PrefixRenderStyle::kDotted);

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
  bool IsParent(const Label& parent, const Label& child) const override;
  bool IsSibling(const Label& a, const Label& b) const override;
  common::Result<int> Level(const Label& label) const override;
  size_t StorageBits(const Label& label) const override;
  std::string Render(const Label& label) const override;

  /// Decodes a label into its positional-identifier components.
  static std::vector<std::string> Components(const Label& label);
  /// Encodes components into a label.
  static Label MakeLabel(const std::vector<std::string>& components);

 private:
  common::Status LabelChildren(const xml::Tree& tree, xml::NodeId parent,
                               const std::vector<std::string>& parent_components,
                               std::vector<Label>* labels) const;
  common::Result<InsertOutcome> RelabelSiblingRange(
      const xml::Tree& tree, xml::NodeId node,
      const std::vector<Label>& labels,
      const std::vector<std::string>& parent_components) const;
  void NoteAssigned(const Label& label) const;

  SchemeTraits traits_;
  std::unique_ptr<OrderCodec> codec_;
  PrefixRenderStyle style_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_PREFIX_SCHEME_H_
