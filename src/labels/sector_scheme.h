#ifndef XMLUP_LABELS_SECTOR_SCHEME_H_
#define XMLUP_LABELS_SECTOR_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/scheme.h"

namespace xmlup::labels {

/// Sector labelling (Thonangi, COMAD 2006).
///
/// Each node owns a sector — here a half-open integer range [lo, hi) of a
/// 2^62-wide angle space — and children recursively partition the interior
/// of their parent's sector, leaving inter-child gaps for future
/// insertions (a hybrid ordering: positions are allocated locally within
/// the parent's sector). Ancestor-descendant is sector containment;
/// document order is the numeric order of the sector start. No level
/// information is encoded (parent-child is not evaluable — the survey
/// grades the scheme Partial on XPath evaluations), and the fixed-width
/// sector arithmetic exhausts under repeated localized insertions, forcing
/// the subtree to be re-sectored.
class SectorScheme final : public LabelingScheme {
 public:
  /// `gap_fraction_inverse` controls how much of each inter-child gap is
  /// consumed by an insertion probe before re-sectoring.
  SectorScheme();

  const SchemeTraits& traits() const override { return traits_; }

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

  struct Sector {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };
  static Label Encode(const Sector& sector);
  static bool Decode(const Label& label, Sector* sector);

 private:
  common::Status SectorizeChildren(const xml::Tree& tree, xml::NodeId node,
                                   const Sector& sector,
                                   std::vector<Label>* labels) const;

  SchemeTraits traits_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_SECTOR_SCHEME_H_
