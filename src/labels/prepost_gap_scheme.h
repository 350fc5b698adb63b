#ifndef XMLUP_LABELS_PREPOST_GAP_SCHEME_H_
#define XMLUP_LABELS_PREPOST_GAP_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/scheme.h"

namespace xmlup::labels {

/// The extended (gapped) pre/post containment scheme of §3.1.1: "several
/// extensions were proposed [Li & Moon; Grust; Kha et al.] which permit
/// gaps in the labelling schemes to facilitate future insertions
/// gracefully. However, these solutions serve to increase the label size
/// through the sparse allocation of labels and only postpone the
/// relabelling process until the interval gaps have been consumed."
///
/// Pre and post ranks are allocated `gap` apart; an insertion takes the
/// midpoint of the neighbouring ranks in preorder and postorder
/// respectively. When a gap is exhausted the document is renumbered (the
/// postponed relabelling the survey predicts). Labels are 64-bit ranks —
/// the increased label size of sparse allocation.
class PrePostGapScheme final : public LabelingScheme {
 public:
  explicit PrePostGapScheme(uint64_t gap = 1ULL << 20);

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

  struct Ranks {
    uint64_t pre = 0;
    uint64_t post = 0;
    uint16_t level = 0;
  };
  static Label Encode(const Ranks& ranks);
  static bool Decode(const Label& label, Ranks* ranks);

 private:
  // Neighbouring pre ranks of a freshly inserted leaf in preorder, and
  // post ranks in postorder (bounds when at the document edge).
  bool PreBounds(const xml::Tree& tree, xml::NodeId node,
                 const std::vector<Label>& labels, uint64_t* lo,
                 uint64_t* hi) const;
  bool PostBounds(const xml::Tree& tree, xml::NodeId node,
                  const std::vector<Label>& labels, uint64_t* lo,
                  uint64_t* hi) const;
  common::Result<InsertOutcome> Renumber(const xml::Tree& tree,
                                         xml::NodeId node,
                                         const std::vector<Label>& labels) const;

  SchemeTraits traits_;
  uint64_t gap_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_PREPOST_GAP_SCHEME_H_
