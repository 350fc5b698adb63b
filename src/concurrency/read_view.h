#ifndef XMLUP_CONCURRENCY_READ_VIEW_H_
#define XMLUP_CONCURRENCY_READ_VIEW_H_

#include <cstddef>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "concurrency/view_delta.h"
#include "core/labeled_document.h"
#include "labels/registry.h"

namespace xmlup::concurrency {

/// An immutable, shareable snapshot of a labelled document — the unit of
/// snapshot isolation. The writer builds one from its live document after
/// each committed batch and publishes it; any number of reader threads may
/// then evaluate queries against it concurrently, without locks, while
/// the writer keeps mutating its own copy.
///
/// Why this is cheap here: the paper's persistence property means a
/// label, once assigned, keeps ordering correctly against every other
/// label — so a reader holding a frozen label set can answer order and
/// axis predicates with no coordination whatsoever. The view pre-builds
/// the order-key cache and the LabelIndex at construction (on the writer
/// thread), after which every read path through the document is
/// const-pure: no lazy cache fills, no data races.
///
/// Views are handed out as shared_ptr<const ReadView>; the reference
/// count *is* the pin. A reader that still holds a superseded view keeps
/// reading its frozen state bit-for-bit; the memory is reclaimed when the
/// last pin drops.
///
/// Construction paths:
///   * CloneFromLive — O(document) deep copy of a live document,
///     preserving the node arena exactly. The write pipeline's base case
///     and fallback (clones stay delta-applicable), and how replicas
///     publish after each applied message.
///   * FromSnapshot — round-trips a SaveSnapshot image (compacted arena).
///     Used by the pipeline's differential cross-check and its
///     force_snapshot_views twin.
///   * ApplyDelta (pipeline-private) — advances a retired clone to the
///     latest state by replaying captured DeltaOps: O(delta) instead of
///     O(document), the publication fast path.
class ReadView {
 public:
  /// Builds a view from a core::SaveSnapshot image. The scheme named in
  /// the image is instantiated privately for this view, so view reads
  /// never share scheme state with the writer.
  static common::Result<std::shared_ptr<const ReadView>> FromSnapshot(
      std::string_view snapshot_bytes, uint64_t epoch,
      const labels::SchemeOptions& options = {});

  /// Deep-copies `live` (arena preserved — future delta inserts allocate
  /// the same NodeIds as the writer) with a private scheme instance,
  /// stamps it with `epoch`, and prewarms all read caches. Returned
  /// mutable so the write pipeline can later delta-advance it; it is
  /// frozen by publication.
  static common::Result<std::unique_ptr<ReadView>> CloneFromLive(
      const core::LabeledDocument& live, const labels::SchemeOptions& options,
      uint64_t epoch = 0);

  const core::LabeledDocument& document() const { return *doc_; }

  /// Publication counter of the store this view came from; monotonically
  /// increasing across published views.
  uint64_t epoch() const { return epoch_; }

  /// Evaluates an XPath location path against the frozen document.
  /// Label-driven, index-backed evaluation is tried first (the fast path
  /// this subsystem exists for); axes the scheme cannot answer from
  /// labels alone fall back to the frozen tree structure.
  common::Result<std::vector<xml::NodeId>> Query(
      std::string_view expression) const;

  /// Concatenated text content of `node` (XPath string-value).
  std::string StringValue(xml::NodeId node) const;

  /// Serialized XML of the whole frozen document.
  common::Result<std::string> SerializeXml() const;

 private:
  friend class ConcurrentStore;

  ReadView(std::unique_ptr<labels::LabelingScheme> scheme,
           core::LabeledDocument doc, uint64_t epoch);

  /// Replays retained delta ops [begin, end) onto the view document and
  /// re-prewarms the read caches. Only the write pipeline calls this, on
  /// a view no reader can reach (freshly recycled). Fails — leaving the
  /// view unusable for publication — if replay diverges from the arena.
  common::Status ApplyDelta(const std::deque<DeltaOp>& ops, size_t begin,
                            size_t end);

  /// Rebuilds lazily-invalidated caches after a delta and recomputes
  /// indexed_; called by ApplyDelta and after construction.
  void Prewarm();

  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  // Delta lineage stamps, owned by the publishing pipeline: usn_ counts
  // the captured ops applied to this view; lineage_ identifies the arena
  // generation (checkpoints compact arenas and bump it).
  uint64_t usn_ = 0;
  uint64_t lineage_ = 0;

  // Order: scheme_ must outlive doc_ (doc_ holds a raw pointer to it).
  std::unique_ptr<labels::LabelingScheme> scheme_;
  std::unique_ptr<core::LabeledDocument> doc_;
  uint64_t epoch_ = 0;
  // Whether the LabelIndex could be prewarmed (some schemes cannot build
  // one); when false, Query skips the label path entirely.
  bool indexed_ = false;
};

/// Anything that publishes ReadViews: the local write pipeline
/// (ConcurrentStore) or a replication applier feeding off a remote
/// primary. The server reads through this interface, so read-only
/// replicas serve `-q`/`--xml`/`--epoch` exactly like a primary.
class ViewProvider {
 public:
  virtual ~ViewProvider() = default;

  /// Pins the latest published snapshot. May return null while a replica
  /// is still bootstrapping (no snapshot installed yet); the local write
  /// pipeline never returns null once constructed.
  virtual std::shared_ptr<const ReadView> PinView() const = 0;
};

}  // namespace xmlup::concurrency

#endif  // XMLUP_CONCURRENCY_READ_VIEW_H_
