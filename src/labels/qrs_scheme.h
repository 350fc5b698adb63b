#ifndef XMLUP_LABELS_QRS_SCHEME_H_
#define XMLUP_LABELS_QRS_SCHEME_H_

#include <string>
#include <vector>

#include "labels/scheme.h"

namespace xmlup::labels {

/// QRS numbering (Amagasa, Yoshikawa & Uemura, ICDE 2003).
///
/// Labels are nested intervals of real (floating-point) numbers; an
/// insertion takes the midpoint of the neighbouring values, so "an
/// arbitrary number of insertions between two labels" appears possible.
/// The survey's §3.1.1 critique is reproduced exactly: doubles have 52
/// mantissa bits, so repeated insertion at a fixed position exhausts the
/// precision after ~50 steps, the midpoint collides with its bound, and
/// the scheme must renumber — "in practice the solution is similar to an
/// integer representation with sparse allocation".
class QrsScheme final : public LabelingScheme {
 public:
  QrsScheme();

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

  struct Interval {
    double lo = 0.0;
    double hi = 0.0;
  };
  static Label Encode(const Interval& interval);
  static bool Decode(const Label& label, Interval* interval);

 private:
  common::Status NumberChildren(const xml::Tree& tree, xml::NodeId node,
                                const Interval& interval,
                                std::vector<Label>* labels) const;

  SchemeTraits traits_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_QRS_SCHEME_H_
