#ifndef XMLUP_LABELS_DIETZ_OM_SCHEME_H_
#define XMLUP_LABELS_DIETZ_OM_SCHEME_H_

#include <cstdint>
#include <string>
#include <vector>

#include "labels/scheme.h"

namespace xmlup::labels {

/// Containment labelling on top of Dietz's order-maintenance structure
/// (Dietz, STOC 1982 — the survey's reference [6], where the
/// pre/post-containment idea originates).
///
/// Every node owns two endpoints (begin, end) in one ordered list of
/// 2n tags; u is an ancestor of v iff u.begin < v.begin and
/// v.end < u.end, document order is the begin tag. Unlike the gapped
/// pre/post scheme, an exhausted gap triggers a *local* renumbering: the
/// smallest enclosing tag window whose density is below threshold is
/// respread, touching O(window) endpoints amortised — the classic
/// order-maintenance trick, and a third point on the relabelling-cost
/// spectrum between "renumber the document" (pre/post) and "never
/// relabel" (QED).
///
/// The scheme keeps the endpoint list as mutable internal state (like the
/// Prime scheme's prime source); labels expose (begin, end, level).
class DietzOmScheme final : public LabelingScheme {
 public:
  /// `tag_bits` bounds the tag universe (tags in [0, 2^tag_bits)).
  explicit DietzOmScheme(int tag_bits = 62);

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

  struct Tags {
    uint64_t begin = 0;
    uint64_t end = 0;
    uint16_t level = 0;
  };
  static Label Encode(const Tags& tags);
  static bool Decode(const Label& label, Tags* tags);

 private:
  // One endpoint of a node in the ordered tag list.
  struct Endpoint {
    uint64_t tag;
    xml::NodeId node;
    bool is_begin;
  };

  // Inserts two endpoints for `node` at list position `pos` (before the
  // endpoint currently at `pos`), renumbering a local window if needed.
  // Returns the node ids whose tags changed (excluding `node`).
  std::vector<xml::NodeId> InsertEndpoints(size_t pos, xml::NodeId node,
                                           uint16_t level,
                                           std::vector<Label>* labels) const;

  // Respreads tags across [lo, hi) so that gaps are even. Returns the
  // affected node ids.
  std::vector<xml::NodeId> Respread(size_t lo, size_t hi, uint64_t tag_lo,
                                    uint64_t tag_hi) const;

  // Rebuilds labels for the given nodes from the endpoint list.
  void RefreshLabels(const std::vector<xml::NodeId>& nodes,
                     const xml::Tree& tree,
                     std::vector<Label>* labels) const;

  // Rebuilds the endpoint list from decoded labels, skipping `fresh`
  // (the not-yet-labeled insert). A document restored from a snapshot
  // carries labels but not this internal state. Fails if any live node's
  // label does not decode — silently dropping one would corrupt document
  // order for good.
  common::Status RebuildFromLabels(const xml::Tree& tree, xml::NodeId fresh,
                                   const std::vector<Label>& labels) const;

  size_t FindInsertPosition(const xml::Tree& tree, xml::NodeId node) const;

  SchemeTraits traits_;
  uint64_t max_tag_;
  // The ordered endpoint list; per-node endpoint indices are derived by
  // scanning (simplicity over speed — the algorithmic behaviour, local
  // renumbering, is what the experiments measure).
  mutable std::vector<Endpoint> list_;
  mutable std::vector<uint16_t> levels_;
  // False until LabelTree or RebuildFromLabels has populated `list_` for
  // the current document — a scheme created for a snapshot restore starts
  // with labels but no endpoint list, and rebuilds it on first insert.
  mutable bool list_valid_ = false;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_DIETZ_OM_SCHEME_H_
