#ifndef XMLUP_REPLICATION_REPLICA_STORE_H_
#define XMLUP_REPLICATION_REPLICA_STORE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "concurrency/read_view.h"
#include "core/labeled_document.h"
#include "labels/registry.h"
#include "store/document_store.h"
#include "store/file.h"

namespace xmlup::replication {

struct ReplicaStoreOptions {
  /// nullptr = the real POSIX file system. Not owned; must outlive the
  /// store. Tests pass a fault-injected MemFileSystem.
  store::FileSystem* fs = nullptr;
  labels::SchemeOptions scheme_options;
};

/// The replica's durable half: a directory with *exactly* the primary's
/// store layout (CURRENT / snapshot-N / journal-N), fed by the
/// replication stream instead of local mutations. Frames are applied to
/// the in-memory document FIRST — through the same ReplayJournalRecord
/// path recovery uses, outcome cross-checks included — and only then
/// appended verbatim to the journal file, so the journal never holds
/// bytes the document could not retrace, and its committed prefix is
/// bit-identical to the primary's.
///
/// Because the layout matches, everything that reads a store directory
/// works on a replica unchanged: DocumentStore::Open (recovery after a
/// replica crash — including truncating a torn tail left by one),
/// `xmlup info`, `xmlup cat`. ReplicaStore::Open is that same recovery,
/// minus taking over as a writer.
///
/// Not thread-safe: the replication applier owns it on one thread and
/// publishes immutable ReadViews for everyone else.
class ReplicaStore {
 public:
  /// Opens `dir`, running crash recovery (torn journal tails are
  /// truncated in place and replay is outcome-checked). A directory with
  /// no CURRENT file opens empty: has_document() is false and position()
  /// is the zero commit point, which a hello encodes as "send me a
  /// snapshot".
  static common::Result<std::unique_ptr<ReplicaStore>> Open(
      const std::string& dir, const ReplicaStoreOptions& options = {});

  bool has_document() const { return doc_ != nullptr; }
  const core::LabeledDocument& document() const { return *doc_; }
  /// Registry name of the labelling scheme, or "" while empty.
  const std::string& scheme_name() const { return scheme_name_; }
  const std::string& dir() const { return dir_; }

  /// The replica's applied position: generation plus journal file
  /// offset/record count. After Sync() it is also the durable position —
  /// the triple the next hello sends.
  store::CommitPoint position() const { return position_; }

  /// Installs a full snapshot image as generation `generation`: the
  /// catch-up path. Validates the image by loading it BEFORE touching
  /// disk, then writes snapshot + fresh journal + CURRENT (atomic rename,
  /// directory syncs), deletes the previous generation's files, and
  /// adopts the document it validated (the image is loaded once).
  common::Status InstallSnapshot(uint64_t generation,
                                 std::string_view snapshot_bytes);

  /// Applies one `frames` payload: raw CRC-framed journal bytes starting
  /// at file offset `base_bytes` (which must equal the current position —
  /// the stream is strictly sequential). Every frame is CRC-checked,
  /// decoded, and replayed in memory first; only then is the payload
  /// appended to the journal file. Any failure marks the store broken:
  /// the caller reopens from disk, which recovers to the last good state.
  common::Status AppendFrames(uint64_t generation, uint64_t base_bytes,
                              uint64_t base_records,
                              std::string_view payload);

  /// Follows a primary checkpoint: writes the replica's OWN snapshot of
  /// the fully-applied document as generation `generation` (SaveSnapshot
  /// is deterministic, so the image is bit-identical to the primary's),
  /// starts a fresh journal, commits CURRENT, deletes the old generation,
  /// and reloads the document from the new snapshot so arena-id
  /// compaction matches the primary's post-checkpoint id space.
  common::Status Roll(uint64_t generation);

  /// Durability barrier: fsyncs the journal. Called at commit-point
  /// markers, mirroring the primary's group-commit barrier.
  common::Status Sync();

  /// Builds an immutable ReadView of the current document stamped with
  /// `epoch` (replica publication path): a ReadView::CloneFromLive deep
  /// copy, the same rebuild the primary's pipeline publishes. Requires
  /// has_document().
  common::Result<std::shared_ptr<const concurrency::ReadView>> BuildView(
      uint64_t epoch) const;

 private:
  ReplicaStore(std::string dir, store::FileSystem* fs,
               ReplicaStoreOptions options);

  /// A snapshot image loaded (and so order-verified) into memory.
  struct LoadedImage {
    std::unique_ptr<labels::LabelingScheme> scheme;
    std::unique_ptr<core::LabeledDocument> doc;
  };
  common::Result<LoadedImage> LoadImage(std::string_view snapshot_bytes) const;

  common::Status WriteFileAtomic(const std::string& name,
                                 std::string_view contents);
  /// Commits generation `generation` whose snapshot image (already
  /// durably written) loaded as `image`: fresh journal, CURRENT,
  /// old-generation cleanup, then adopts the image's document.
  common::Status CommitGeneration(uint64_t generation, LoadedImage image,
                                  uint64_t previous_generation);

  std::string dir_;
  store::FileSystem* fs_;
  ReplicaStoreOptions options_;
  std::string scheme_name_;
  std::unique_ptr<labels::LabelingScheme> scheme_;
  std::unique_ptr<core::LabeledDocument> doc_;
  std::unique_ptr<store::WritableFile> journal_;
  store::CommitPoint position_;
  /// Set on the first apply/roll/install failure; every later call
  /// refuses, so a half-applied state can never be extended.
  common::Status broken_;
};

}  // namespace xmlup::replication

#endif  // XMLUP_REPLICATION_REPLICA_STORE_H_
