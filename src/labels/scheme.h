#ifndef XMLUP_LABELS_SCHEME_H_
#define XMLUP_LABELS_SCHEME_H_

#include <string>
#include <utility>
#include <vector>

#include "common/op_counters.h"
#include "common/status.h"
#include "labels/label.h"
#include "xml/tree.h"

namespace xmlup::labels {

/// How a scheme captures document order (§3.1 of the paper).
enum class OrderApproach { kGlobal, kLocal, kHybrid };

/// Storage representation required by the scheme's labels.
enum class EncodingRep { kFixed, kVariable };

std::string_view OrderApproachName(OrderApproach approach);
std::string_view EncodingRepName(EncodingRep rep);

/// Declarative, definitional properties of a labelling scheme. Cells of the
/// paper's Figure 7 that are design facts (order approach, encoding
/// representation, orthogonality) come from here; behavioural cells
/// (persistence, overflow, compactness, ...) are measured by probes.
struct SchemeTraits {
  /// Registry key, e.g. "ordpath".
  std::string name;
  /// Display name used in reports, e.g. "ORDPATH".
  std::string display_name;
  /// "containment", "prefix", "prime".
  std::string family;
  OrderApproach order_approach = OrderApproach::kHybrid;
  EncodingRep encoding_rep = EncodingRep::kVariable;
  /// The scheme is an order-encoding applicable to containment, prefix and
  /// prime host schemes alike (the paper's "Orthogonal" property, §4).
  bool orthogonal = false;
  /// Label-only parent-child evaluation is supported.
  bool supports_parent = false;
  /// Label-only sibling evaluation is supported.
  bool supports_sibling = false;
  /// The node's nesting level is decodable from the label alone.
  bool supports_level = false;
  /// Citation shown in reports, e.g. "O'Neil et al., SIGMOD 2004".
  std::string citation;
  /// True for the twelve schemes evaluated in the paper's Figure 7.
  bool in_paper_matrix = false;
};

/// Result of labelling one freshly inserted node.
struct InsertOutcome {
  /// Label for the new node.
  Label label;
  /// Existing nodes whose labels had to change (persistence violations).
  std::vector<std::pair<xml::NodeId, Label>> relabeled;
  /// True when an encoding budget was exhausted and a relabelling pass was
  /// required (the overflow problem, §4).
  bool overflow = false;
};

/// A dynamic XML labelling scheme (Definition 1): assigns unique,
/// order-capturing identifiers to tree nodes and maintains them under
/// structural updates.
///
/// All label-algebra methods are const; instrumentation counters are
/// mutable so probes can observe divisions/recursion/relabelling without
/// threading a sink through every call.
class LabelingScheme {
 public:
  virtual ~LabelingScheme() = default;

  LabelingScheme(const LabelingScheme&) = delete;
  LabelingScheme& operator=(const LabelingScheme&) = delete;

  virtual const SchemeTraits& traits() const = 0;

  /// Assigns labels to every live node of `tree`. `labels` is resized to
  /// `tree.arena_size()`; entries of dead nodes are left empty.
  virtual common::Status LabelTree(const xml::Tree& tree,
                                   std::vector<Label>* labels) const = 0;

  /// Computes a label for `node`, which has already been structurally
  /// inserted into `tree` but has no label in `labels` yet. Neighbouring
  /// labels that must change are reported in the outcome (not applied).
  virtual common::Result<InsertOutcome> LabelForInsert(
      const xml::Tree& tree, xml::NodeId node,
      const std::vector<Label>& labels) const = 0;

  /// Document-order comparison of two labels: <0, 0, >0.
  virtual int Compare(const Label& a, const Label& b) const = 0;

  /// Appends to `*out` a memcmp-comparable document-order key for `label`:
  /// plain lexicographic byte comparison of two keys agrees with Compare()
  /// on the labels they were derived from. Every scheme derives its key
  /// from the label alone (see core::LabeledDocument::order_key); a label
  /// that does not decode appends nothing.
  virtual void OrderKey(const Label& label, std::string* out) const = 0;

  /// Label-only ancestor-descendant test (supported by every surveyed
  /// scheme). A label is not its own ancestor.
  virtual bool IsAncestor(const Label& ancestor,
                          const Label& descendant) const = 0;

  /// Label-only parent-child test; meaningful only when
  /// traits().supports_parent.
  virtual bool IsParent(const Label& parent, const Label& child) const;

  /// Label-only sibling test; meaningful only when
  /// traits().supports_sibling. Distinct labels only.
  virtual bool IsSibling(const Label& a, const Label& b) const;

  /// Nesting level encoded in the label; meaningful only when
  /// traits().supports_level. Root level is 0.
  virtual common::Result<int> Level(const Label& label) const;

  /// Size in bits of the label under the scheme's defined storage encoding
  /// (used for the Compact Encoding probes and growth benchmarks).
  virtual size_t StorageBits(const Label& label) const = 0;

  /// Human-readable rendering (dotted-decimal, bit string, ...).
  virtual std::string Render(const Label& label) const = 0;

  common::OpCounters& counters() const { return counters_; }
  void ResetCounters() const { counters_.Reset(); }

 protected:
  LabelingScheme() = default;

  mutable common::OpCounters counters_;
};

}  // namespace xmlup::labels

#endif  // XMLUP_LABELS_SCHEME_H_
