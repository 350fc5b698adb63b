#ifndef XMLUP_CORE_LABELED_DOCUMENT_H_
#define XMLUP_CORE_LABELED_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "labels/scheme.h"
#include "labels/small_bytes.h"
#include "observability/metrics.h"
#include "xml/tree.h"

namespace xmlup::core {

class LabelIndex;

/// Statistics for one structural update.
struct UpdateStats {
  /// Existing labels rewritten by the update.
  size_t relabeled = 0;
  /// The update exhausted an encoding budget and forced relabelling.
  bool overflow = false;
};

class LabeledDocument;

/// Per-scheme update metric cells, resolved once per document from the
/// global registry (names "doc.<scheme>.<event>") so the hot path is one
/// relaxed atomic add per event. Counts cover every label-assignment
/// event, including snapshot/journal recovery replays — which is exactly
/// what lets recovery be cross-checked against the original run.
struct DocMetricCells {
  obs::Counter* inserts = nullptr;
  obs::Counter* removes = nullptr;
  obs::Counter* value_updates = nullptr;
  obs::Counter* relabels = nullptr;
  obs::Counter* overflows = nullptr;
  obs::Counter* label_bits = nullptr;
};

/// Observes primitive updates applied to a LabeledDocument. Callbacks fire
/// after the update succeeded, with the document already in its new state;
/// subtree insertion fires one OnInsertNode per serialised node insertion
/// (the exact execution replaying the update must retrace). The durable
/// store's journal hangs off this interface; tests use it to record
/// reference update sequences.
class UpdateObserver {
 public:
  virtual ~UpdateObserver() = default;

  /// `node` was inserted and labelled; its parent/position/content are
  /// readable from the document (`before` == tree().next_sibling(node)).
  virtual void OnInsertNode(const LabeledDocument& doc, xml::NodeId node,
                            const UpdateStats& stats) = 0;
  /// `node`'s subtree was removed (`node` is already dead).
  virtual void OnRemoveSubtree(const LabeledDocument& doc,
                               xml::NodeId node) = 0;
  /// `node`'s text/value was replaced (content update).
  virtual void OnUpdateValue(const LabeledDocument& doc,
                             xml::NodeId node) = 0;
};

/// An XML tree labelled under a dynamic labelling scheme: the update
/// engine of the library. Structural updates (insert leaf / internal node
/// / subtree, delete subtree) are applied to the tree and the scheme is
/// asked to label the change; relabelling reported by the scheme is
/// applied and surfaced in UpdateStats so callers (probes, benchmarks)
/// can observe persistence and overflow behaviour directly.
///
/// The scheme outlives the document and is not owned.
class LabeledDocument {
 public:
  /// Labels `tree` with `scheme` and wraps both. `scheme` must outlive the
  /// returned document.
  static common::Result<LabeledDocument> Build(
      xml::Tree tree, const labels::LabelingScheme* scheme);

  /// Re-attaches previously assigned labels (snapshot restore): no
  /// relabelling happens. `labels` must cover every live node of `tree`;
  /// order and uniqueness are verified before the document is returned.
  static common::Result<LabeledDocument> Restore(
      xml::Tree tree, const labels::LabelingScheme* scheme,
      std::vector<labels::Label> labels);

  // Moves drop the cached query index (it back-references the document).
  LabeledDocument(LabeledDocument&& other) noexcept;
  LabeledDocument& operator=(LabeledDocument&& other) noexcept;
  ~LabeledDocument();

  /// Deep copy for read-view publication: same arena (NodeIds preserved),
  /// same labels, same order-key cache. Observers and the cached query
  /// index do not transfer; `scheme` must be behaviourally identical to
  /// this document's scheme and outlive the clone.
  LabeledDocument CloneForView(const labels::LabelingScheme* scheme) const;

  /// Eagerly builds the order-key cache and the query index so the first
  /// reader of a freshly published view never pays for building them.
  common::Status PrewarmCaches() const;

  const xml::Tree& tree() const { return tree_; }
  const labels::LabelingScheme& scheme() const { return *scheme_; }
  const std::vector<labels::Label>& all_labels() const { return labels_; }
  const labels::Label& label(xml::NodeId node) const { return labels_[node]; }

  /// Inserts a node under `parent` immediately before `before`
  /// (kInvalidNode appends) and labels it through the scheme.
  common::Result<xml::NodeId> InsertNode(xml::NodeId parent,
                                         xml::NodeKind kind, std::string name,
                                         std::string value,
                                         xml::NodeId before = xml::kInvalidNode,
                                         UpdateStats* stats = nullptr);

  /// Inserts a copy of `fragment_root`'s subtree from `fragment` under
  /// `parent` before `before`, as a serialised sequence of node insertions
  /// (the subtree-update strategy the survey notes for ORDPATH).
  common::Result<xml::NodeId> InsertSubtree(
      xml::NodeId parent, const xml::Tree& fragment,
      xml::NodeId fragment_root, xml::NodeId before = xml::kInvalidNode,
      UpdateStats* stats = nullptr);

  /// Removes `node`'s subtree. Labels of removed nodes are discarded; no
  /// scheme in the survey requires relabelling on deletion.
  common::Status RemoveSubtree(xml::NodeId node);

  /// Replaces a node's text/value (content update; labels untouched).
  common::Status UpdateValue(xml::NodeId node, std::string value);

  // --- Delta replay (read-view maintenance) -------------------------------
  //
  // Re-applies primitive updates captured on another document that evolved
  // from the same arena. No scheme call is made (the captured label is
  // attached verbatim), no observers fire, and no doc.* metrics count —
  // the original application already journalled and counted the update.
  // The order-key cache and query index are maintained incrementally
  // where possible.

  /// Inserts `expect_node` under `parent` before `before` and attaches
  /// `label`. Fails with Internal (leaving the tree unchanged) if the
  /// arena assigns a different id — the caller's arenas have diverged and
  /// it must fall back to a full rebuild.
  common::Status ApplyDeltaInsert(xml::NodeId expect_node, xml::NodeId parent,
                                  xml::NodeKind kind, std::string name,
                                  std::string value, xml::NodeId before,
                                  const labels::Label& label);
  /// Mirrors a captured subtree removal.
  common::Status ApplyDeltaRemove(xml::NodeId node);
  /// Mirrors a captured content update.
  common::Status ApplyDeltaValue(xml::NodeId node, std::string value);

  // --- Update observation -------------------------------------------------

  /// Registers an observer for subsequent updates. Observers are not owned
  /// and must outlive the document (or be removed first); they transfer
  /// with moves.
  void AddUpdateObserver(UpdateObserver* observer);
  void RemoveUpdateObserver(UpdateObserver* observer);

  // --- Verification (used by tests and the evaluation probes) -----------

  /// Checks that labels increase strictly in document order (so sorting
  /// live nodes by label reproduces preorder, and labels are unique): one
  /// preorder pass comparing adjacent labels through the scheme. Returns
  /// the first violation found.
  common::Status VerifyOrderAndUniqueness() const;

  /// Checks the label-only predicates the scheme claims to support
  /// (ancestor, parent, sibling, level) against tree ground truth.
  /// Pairwise checks are sampled with `seed`; parent/level checks are
  /// exhaustive.
  common::Status VerifyAxes(uint64_t seed = 7, size_t sample_pairs = 2000) const;

  /// Total storage bits across live labels under the scheme's encoding.
  size_t TotalLabelBits() const;
  /// Average storage bits per live label.
  double AverageLabelBits() const;

  // --- Order-key cache and query index -----------------------------------

  /// Bumped on every structural update; consumers (e.g. the cached query
  /// index) use it to detect staleness.
  uint64_t version() const { return version_; }

  /// Memcmp-comparable sort key for `node`'s label: byte-wise comparison
  /// of two keys equals scheme().Compare() on the underlying labels. Built
  /// lazily for all live nodes on first use and kept in sync across
  /// updates — relabel and overflow events from InsertOutcome invalidate
  /// exactly the affected entries, so a returned key is never stale. The
  /// view stays valid until the next structural update.
  std::string_view order_key(xml::NodeId node) const;

  /// True when keys come from the scheme's own OrderKey encoding (and can
  /// therefore be derived for arbitrary labels, not just cached nodes).
  /// False means the rank fallback: big-endian preorder ranks, valid only
  /// for live nodes and rebuilt wholesale after any insertion.
  bool order_keys_native() const;

  /// The document's cached LabelIndex, built on first use and rebuilt
  /// lazily after structural updates. The pointer is owned by the document
  /// and stays valid until the next structural update (or move).
  common::Result<const LabelIndex*> query_index() const;

 private:
  LabeledDocument(xml::Tree tree, const labels::LabelingScheme* scheme,
                  std::vector<labels::Label> labels);

  void EnsureOrderKeys() const;
  // Recomputes the cached key for one node, encoding it into `scratch`
  // first; false if the scheme failed to produce one (forces a full
  // rebuild on next access).
  bool RefreshOrderKey(xml::NodeId node, std::string* scratch) const;
  // Applies cache invalidation for an insert that assigned `node` and
  // relabelled `relabeled`.
  void NoteInsert(xml::NodeId node,
                  const std::vector<std::pair<xml::NodeId, labels::Label>>&
                      relabeled);

  xml::Tree tree_;
  const labels::LabelingScheme* scheme_;
  std::vector<labels::Label> labels_;
  std::vector<UpdateObserver*> observers_;
  DocMetricCells metrics_;

  uint64_t version_ = 0;
  // Keys are short (ORDPATH averages under 10 bytes), so a SmallBytes
  // holds nearly all of them inline.
  mutable std::vector<labels::SmallBytes> order_keys_;
  mutable bool order_keys_built_ = false;
  mutable bool order_keys_native_ = false;
  mutable std::unique_ptr<LabelIndex> query_index_;
  mutable uint64_t query_index_version_ = 0;
};

}  // namespace xmlup::core

#endif  // XMLUP_CORE_LABELED_DOCUMENT_H_
