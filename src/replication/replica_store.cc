#include "replication/replica_store.h"

#include <utility>

#include "core/snapshot.h"
#include "replication/protocol.h"
#include "store/journal.h"

namespace xmlup::replication {

using common::Result;
using common::Status;

namespace {

std::string Join(const std::string& dir, const std::string& name) {
  return dir + "/" + name;
}

Result<uint64_t> ParseCurrent(std::string_view contents) {
  const size_t newline = contents.find('\n');
  if (newline != std::string_view::npos) {
    contents = contents.substr(0, newline);
  }
  uint64_t generation = 0;
  if (!ParseU64(contents, &generation)) {
    return Status::ParseError("malformed CURRENT file");
  }
  return generation;
}

}  // namespace

ReplicaStore::ReplicaStore(std::string dir, store::FileSystem* fs,
                           ReplicaStoreOptions options)
    : dir_(std::move(dir)), fs_(fs), options_(std::move(options)) {}

Result<std::unique_ptr<ReplicaStore>> ReplicaStore::Open(
    const std::string& dir, const ReplicaStoreOptions& options) {
  store::FileSystem* fs =
      options.fs != nullptr ? options.fs : store::PosixFileSystem();
  XMLUP_RETURN_NOT_OK(fs->CreateDir(dir));
  std::unique_ptr<ReplicaStore> replica(new ReplicaStore(dir, fs, options));
  if (!fs->FileExists(Join(dir, store::kCurrentFileName))) {
    // Nothing here yet: the zero position in the hello asks the primary
    // for a snapshot.
    return replica;
  }
  XMLUP_ASSIGN_OR_RETURN(std::string current,
                         fs->ReadFile(Join(dir, store::kCurrentFileName)));
  XMLUP_ASSIGN_OR_RETURN(uint64_t generation, ParseCurrent(current));

  XMLUP_ASSIGN_OR_RETURN(
      std::string snapshot_bytes,
      fs->ReadFile(Join(dir, store::SnapshotFileName(generation))));
  std::unique_ptr<labels::LabelingScheme> scheme;
  XMLUP_ASSIGN_OR_RETURN(
      core::LabeledDocument doc,
      core::LoadSnapshot(snapshot_bytes, &scheme, options.scheme_options));

  // Same recovery as DocumentStore::Open: replay the journal's valid
  // prefix with outcome cross-checks, truncate any torn tail durably in
  // place before appending after it.
  const std::string journal_path =
      Join(dir, store::JournalFileName(generation));
  std::string journal_bytes;
  if (fs->FileExists(journal_path)) {
    XMLUP_ASSIGN_OR_RETURN(journal_bytes, fs->ReadFile(journal_path));
  }
  XMLUP_ASSIGN_OR_RETURN(store::JournalScan scan,
                         store::ScanJournal(journal_bytes));
  for (const store::JournalRecord& record : scan.records) {
    XMLUP_RETURN_NOT_OK(store::ReplayJournalRecord(record, &doc));
  }
  if (scan.valid_bytes == 0) {
    // Missing journal or a tail torn inside the header: start fresh.
    XMLUP_ASSIGN_OR_RETURN(
        std::unique_ptr<store::WritableFile> journal,
        fs->OpenWritable(journal_path, store::FileSystem::WriteMode::kTruncate));
    XMLUP_RETURN_NOT_OK(journal->Append(store::JournalFileHeader()));
    XMLUP_RETURN_NOT_OK(journal->Sync());
    XMLUP_RETURN_NOT_OK(fs->SyncDir(dir));
    replica->journal_ = std::move(journal);
    replica->position_ = {generation, store::kJournalHeaderSize, 0};
  } else {
    if (scan.truncated) {
      XMLUP_RETURN_NOT_OK(fs->TruncateFile(journal_path, scan.valid_bytes));
    }
    XMLUP_ASSIGN_OR_RETURN(
        std::unique_ptr<store::WritableFile> journal,
        fs->OpenWritable(journal_path, store::FileSystem::WriteMode::kAppend));
    replica->journal_ = std::move(journal);
    replica->position_ = {generation, scan.valid_bytes, scan.records.size()};
  }
  replica->scheme_name_ = scheme->traits().name;
  replica->doc_ = std::make_unique<core::LabeledDocument>(std::move(doc));
  replica->scheme_ = std::move(scheme);
  return replica;
}

Status ReplicaStore::WriteFileAtomic(const std::string& name,
                                     std::string_view contents) {
  const std::string path = Join(dir_, name);
  const std::string tmp = path + ".tmp";
  XMLUP_ASSIGN_OR_RETURN(
      std::unique_ptr<store::WritableFile> file,
      fs_->OpenWritable(tmp, store::FileSystem::WriteMode::kTruncate));
  XMLUP_RETURN_NOT_OK(file->Append(contents));
  XMLUP_RETURN_NOT_OK(file->Sync());
  XMLUP_RETURN_NOT_OK(file->Close());
  XMLUP_RETURN_NOT_OK(fs_->RenameFile(tmp, path));
  return fs_->SyncDir(dir_);
}

Result<ReplicaStore::LoadedImage> ReplicaStore::LoadImage(
    std::string_view snapshot_bytes) const {
  LoadedImage image;
  XMLUP_ASSIGN_OR_RETURN(
      core::LabeledDocument doc,
      core::LoadSnapshot(snapshot_bytes, &image.scheme,
                         options_.scheme_options));
  image.doc = std::make_unique<core::LabeledDocument>(std::move(doc));
  return image;
}

Status ReplicaStore::CommitGeneration(uint64_t generation, LoadedImage image,
                                      uint64_t previous_generation) {
  // Fresh journal before CURRENT: after the commit rename below is
  // durable (its SyncDir also covers this creation), the directory is a
  // complete generation — the same crash contract as the primary's
  // checkpoint.
  journal_.reset();
  XMLUP_ASSIGN_OR_RETURN(
      std::unique_ptr<store::WritableFile> journal,
      fs_->OpenWritable(Join(dir_, store::JournalFileName(generation)),
                        store::FileSystem::WriteMode::kTruncate));
  XMLUP_RETURN_NOT_OK(journal->Append(store::JournalFileHeader()));
  XMLUP_RETURN_NOT_OK(journal->Sync());
  XMLUP_RETURN_NOT_OK(
      WriteFileAtomic(store::kCurrentFileName,
                      std::to_string(generation) + "\n"));
  if (previous_generation != 0 && previous_generation != generation) {
    // Best-effort: a leftover old generation is garbage, not corruption.
    (void)fs_->DeleteFile(
        Join(dir_, store::JournalFileName(previous_generation)));
    (void)fs_->DeleteFile(
        Join(dir_, store::SnapshotFileName(previous_generation)));
  }

  doc_ = std::move(image.doc);
  scheme_ = std::move(image.scheme);  // after doc_: the old doc referenced it
  scheme_name_ = scheme_->traits().name;
  journal_ = std::move(journal);
  position_ = {generation, store::kJournalHeaderSize, 0};
  return Status::Ok();
}

Status ReplicaStore::InstallSnapshot(uint64_t generation,
                                     std::string_view snapshot_bytes) {
  XMLUP_RETURN_NOT_OK(broken_);
  // Validate before touching disk: a corrupt image must not replace a
  // working generation. The validated document is the one adopted.
  XMLUP_ASSIGN_OR_RETURN(LoadedImage image, LoadImage(snapshot_bytes));
  Status installed = [&] {
    XMLUP_RETURN_NOT_OK(WriteFileAtomic(store::SnapshotFileName(generation),
                                        snapshot_bytes));
    return CommitGeneration(generation, std::move(image),
                            position_.generation);
  }();
  if (!installed.ok()) broken_ = installed;
  return installed;
}

Status ReplicaStore::AppendFrames(uint64_t generation, uint64_t base_bytes,
                                  uint64_t base_records,
                                  std::string_view payload) {
  XMLUP_RETURN_NOT_OK(broken_);
  if (doc_ == nullptr) {
    return Status::Internal("frames before any snapshot was installed");
  }
  if (generation != position_.generation ||
      base_bytes != position_.bytes || base_records != position_.records) {
    // A gap or overlap in the stream. Local state is still consistent —
    // not broken — but this payload cannot be applied.
    return Status::Internal("frames payload does not continue the applied "
                            "position (stream out of sequence)");
  }
  // Validate the whole payload before applying any of it: every frame
  // CRC-checked and decodable, no trailing torn bytes.
  store::JournalScan scan = store::ScanFrames(payload);
  if (scan.truncated || scan.valid_bytes != payload.size()) {
    return Status::ParseError(
        "frames payload is torn or corrupt (CRC mismatch mid-stream)");
  }
  // Memory first: if replay diverges from a recorded outcome, nothing has
  // touched the journal file — but the in-memory document is now partly
  // ahead, so the store is broken and the applier must reopen from disk.
  for (const store::JournalRecord& record : scan.records) {
    Status applied = store::ReplayJournalRecord(record, doc_.get());
    if (!applied.ok()) {
      broken_ = applied;
      return applied;
    }
  }
  // Then disk: the exact payload bytes, so the replica's journal file is
  // byte-identical to the primary's committed prefix.
  Status appended = journal_->Append(payload);
  if (!appended.ok()) {
    broken_ = appended;
    return appended;
  }
  position_.bytes += payload.size();
  position_.records += scan.records.size();
  return Status::Ok();
}

Status ReplicaStore::Roll(uint64_t generation) {
  XMLUP_RETURN_NOT_OK(broken_);
  if (doc_ == nullptr) {
    return Status::Internal("roll before any snapshot was installed");
  }
  // By stream order every frame of the finished generation has been
  // applied, so this document equals the primary's at its checkpoint —
  // and SaveSnapshot is deterministic, so the image written here is
  // bit-identical to the snapshot the primary wrote.
  const std::string snapshot_bytes = core::SaveSnapshot(*doc_);
  Status rolled = [&] {
    // Reload from the image: snapshot restore assigns arena ids in
    // document order, which is exactly the compaction the primary's
    // checkpoint applied — subsequent journal records reference ids in
    // that space.
    XMLUP_ASSIGN_OR_RETURN(LoadedImage image, LoadImage(snapshot_bytes));
    XMLUP_RETURN_NOT_OK(WriteFileAtomic(store::SnapshotFileName(generation),
                                        snapshot_bytes));
    return CommitGeneration(generation, std::move(image),
                            position_.generation);
  }();
  if (!rolled.ok()) broken_ = rolled;
  return rolled;
}

Status ReplicaStore::Sync() {
  XMLUP_RETURN_NOT_OK(broken_);
  if (journal_ == nullptr) return Status::Ok();
  Status synced = journal_->Sync();
  if (!synced.ok()) broken_ = synced;
  return synced;
}

Result<std::shared_ptr<const concurrency::ReadView>> ReplicaStore::BuildView(
    uint64_t epoch) const {
  if (doc_ == nullptr) {
    return Status::Internal("no document to build a view from");
  }
  // The primary's own rebuild path: a deep copy of the live document, not
  // a SaveSnapshot + load round trip.
  XMLUP_ASSIGN_OR_RETURN(
      std::unique_ptr<concurrency::ReadView> view,
      concurrency::ReadView::CloneFromLive(*doc_, options_.scheme_options,
                                           epoch));
  return std::shared_ptr<const concurrency::ReadView>(std::move(view));
}

}  // namespace xmlup::replication
