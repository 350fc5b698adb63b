#ifndef XMLUP_LABELS_XREL_SCHEME_H_
#define XMLUP_LABELS_XREL_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/scheme.h"

namespace xmlup::labels {

/// XRel region labelling (Yoshikawa et al., ACM TOIT 2001).
///
/// Every node is labelled with the (start, end) positions of its region —
/// generated here by a depth-first traversal that assigns one position on
/// entry and one on exit, plus the nesting level. Ancestor-descendant is
/// region containment; document order is the global start position.
/// Like all gap-free global containment schemes, an insertion shifts the
/// regions of all following nodes, so updates renumber the document.
class XRelScheme final : public LabelingScheme {
 public:
  XRelScheme();

  const SchemeTraits& traits() const override { return traits_; }

  common::Status LabelTree(const xml::Tree& tree,
                           std::vector<Label>* labels) const override;
  common::Result<InsertOutcome> LabelForInsert(
      const xml::Tree& tree, xml::NodeId node,
      const std::vector<Label>& labels) const override;
  int Compare(const Label& a, const Label& b) const override;
  void OrderKey(const Label& label, std::string* out) const override;
  bool IsAncestor(const Label& ancestor, const Label& descendant) const override;
  bool IsParent(const Label& parent, const Label& child) const override;
  common::Result<int> Level(const Label& label) const override;
  size_t StorageBits(const Label& label) const override;
  std::string Render(const Label& label) const override;

  struct Region {
    uint32_t start = 0;
    uint32_t end = 0;
    uint16_t level = 0;
  };
  static Label Encode(const Region& region);
  static bool Decode(const Label& label, Region* region);

 private:
  SchemeTraits traits_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_XREL_SCHEME_H_
