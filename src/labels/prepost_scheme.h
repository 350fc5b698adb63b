#ifndef XMLUP_LABELS_PREPOST_SCHEME_H_
#define XMLUP_LABELS_PREPOST_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/scheme.h"

namespace xmlup::labels {

/// The XPath Accelerator pre/post labelling scheme (Grust, SIGMOD 2002;
/// Figure 1(b) of the survey).
///
/// Every node carries its preorder rank, postorder rank and level, each a
/// fixed-width integer. Node u is an ancestor of v iff pre(u) < pre(v) and
/// post(v) < post(u) (Dietz); the level makes parent-child evaluable.
/// Document order is the global preorder rank, which is precisely why the
/// scheme is not update-friendly: an insertion shifts the ranks of every
/// node after the inserted one, so LabelForInsert renumbers the document
/// and reports all changed labels — the relabelling cost that motivates
/// the dynamic schemes of §3 and §4.
class PrePostScheme final : public LabelingScheme {
 public:
  PrePostScheme();

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

  /// Decoded (pre, post, level) triple.
  struct Ranks {
    uint32_t pre = 0;
    uint32_t post = 0;
    uint16_t level = 0;
  };
  static Label Encode(const Ranks& ranks);
  static bool Decode(const Label& label, Ranks* ranks);

 private:
  SchemeTraits traits_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_PREPOST_SCHEME_H_
