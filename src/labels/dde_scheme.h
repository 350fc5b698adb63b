#ifndef XMLUP_LABELS_DDE_SCHEME_H_
#define XMLUP_LABELS_DDE_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/scheme.h"

namespace xmlup::labels {

/// DDE: "From Dewey to a Fully Dynamic XML Labeling Scheme" (Xu, Ling,
/// Wu & Bao, SIGMOD 2009) — one of the two schemes §6 of the survey
/// defers to future evaluation.
///
/// A DDE label is a vector of integers. The initial document is labelled
/// exactly like Dewey: the root is (1) and the k-th child appends k.
/// Dynamic behaviour comes from treating labels as *homogeneous*
/// coordinates:
///
///   * order of siblings u, v: compare u_k * v_1 with v_k * u_1 at the
///     first differing component (division-free rational comparison
///     weighted by the first component);
///   * ancestor test: u is an ancestor of v iff len(u) < len(v) and the
///     first len(u) components of v are proportional to u
///     (v_i * u_1 == u_i * v_1);
///   * insertion between siblings u and v: the component-wise sum u + v
///     (the mediant), which always orders strictly between them and never
///     requires relabelling;
///   * insertion before the first child x: the mediant of x with the
///     parent's label extended by 0 (prefix ratios preserved, final ratio
///     shrinks); insertion after the last child x: add x_1 to the final
///     component (prefix ratios preserved, final ratio grows by 1).
///
/// Levels are component counts, so parent/sibling tests are evaluable —
/// DDE keeps "the same XPath surface as Dewey while being fully dynamic".
class DdeScheme final : public LabelingScheme {
 public:
  DdeScheme();

  const SchemeTraits& traits() const override { return traits_; }

  common::Status LabelTree(const xml::Tree& tree,
                           std::vector<Label>* labels) const override;
  common::Result<InsertOutcome> LabelForInsert(
      const xml::Tree& tree, xml::NodeId node,
      const std::vector<Label>& labels) const override;
  int Compare(const Label& a, const Label& b) const override;
  /// One ratio key (AppendRatioKey) per u[k]/u[0], k >= 1, each escaped
  /// and terminated by AppendOrderKeyComponent so that an ancestor sorts
  /// first. Every label has u[0] >= 1: the root is (1), and an insert only
  /// ever adds to a neighbour's components.
  void OrderKey(const Label& label, std::string* out) const override;
  bool IsAncestor(const Label& ancestor, const Label& descendant) const override;
  bool IsParent(const Label& parent, const Label& child) const override;
  bool IsSibling(const Label& a, const Label& b) const override;
  common::Result<int> Level(const Label& label) const override;
  size_t StorageBits(const Label& label) const override;
  std::string Render(const Label& label) const override;

  static Label Encode(const std::vector<uint64_t>& components);
  static std::vector<uint64_t> DecodeComponents(const Label& label);

 private:
  // Compares the sibling tails of two labels sharing a parent prefix.
  static int CompareTails(const std::vector<uint64_t>& a,
                          const std::vector<uint64_t>& b, size_t start);

  SchemeTraits traits_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_DDE_SCHEME_H_
