#ifndef XMLUP_STORE_FILE_H_
#define XMLUP_STORE_FILE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace xmlup::store {

/// An append-only output file. `Append` buffers or writes data; `Sync` is
/// the durability barrier: data is guaranteed to survive a crash only
/// after a successful Sync (mirroring POSIX write/fsync semantics, which
/// the fault-injection file system exploits to simulate torn tails).
class WritableFile {
 public:
  virtual ~WritableFile() = default;

  virtual common::Status Append(std::string_view data) = 0;
  virtual common::Status Sync() = 0;
  virtual common::Status Close() = 0;
};

/// Minimal file-system surface the durable store needs. Two
/// implementations: the real POSIX one and a deterministic in-memory one
/// with fault injection (crash truncation, fsync failures, bitflips) so
/// crash-consistency is testable without actually killing processes.
class FileSystem {
 public:
  enum class WriteMode {
    kTruncate,  ///< Replace any existing file.
    kAppend,    ///< Append to an existing file (create if absent).
  };

  virtual ~FileSystem() = default;

  virtual common::Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path, WriteMode mode) = 0;
  virtual common::Result<std::string> ReadFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  /// Atomic replace (rename(2) semantics): after a crash either the old or
  /// the new content of `to` is visible, never a mix. Like rename(2), the
  /// replacement is durable only after SyncDir on the parent directory.
  virtual common::Status RenameFile(const std::string& from,
                                    const std::string& to) = 0;
  virtual common::Status DeleteFile(const std::string& path) = 0;
  /// Shrinks `path` to `size` bytes in place and syncs the new length
  /// durably (ftruncate + fsync). Bytes before `size` are never rewritten,
  /// so a crash at any point leaves at worst the old tail — never a
  /// destroyed prefix. No-op if the file is already at or below `size`.
  virtual common::Status TruncateFile(const std::string& path,
                                      uint64_t size) = 0;
  /// Creates a directory (and parents). Ok if it already exists.
  virtual common::Status CreateDir(const std::string& path) = 0;
  /// Durability barrier for directory metadata (fsync on the directory):
  /// file creations, renames and deletions inside `path` issued before a
  /// successful SyncDir are guaranteed to survive a crash. Without it
  /// they are unordered — a rename can hit disk after a later unlink, or
  /// an fsync'd file can vanish because its directory entry never did.
  virtual common::Status SyncDir(const std::string& path) = 0;
};

/// The process-wide real file system (stdio + fsync). Never deleted.
FileSystem* PosixFileSystem();

/// Deterministic in-memory file system with fault injection, for crash
/// and corruption tests.
///
/// Data writes distinguish *accepted* bytes (returned Ok to the writer)
/// from *durable* bytes: a write limit on a path silently drops bytes
/// beyond the limit while still reporting success — exactly the lie a
/// kernel page cache tells before a crash.
///
/// Directory metadata is modelled the same way: file creations, renames
/// and deletions apply to the *live* view immediately (the running
/// process observes its own operations) but stay pending until SyncDir,
/// mirroring POSIX, where directory mutations reach disk in no particular
/// order unless the directory is fsync'd. `Crash()` discards the live
/// view and falls back to the durable one; `Crash(mask)` additionally
/// applies an arbitrary subset of the pending operations first, modelling
/// the kernel writing back some — but not all — dirty directory blocks
/// before the crash.
///
/// Thread-safe: all operations (including writes through files it
/// returned) serialise on one internal mutex, matching the atomicity the
/// POSIX implementation gets from stdio locking — the pipelined store
/// appends from its writer thread while the flusher fsyncs the same file.
class MemFileSystem : public FileSystem {
 public:
  common::Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path, WriteMode mode) override;
  common::Result<std::string> ReadFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  common::Status RenameFile(const std::string& from,
                            const std::string& to) override;
  common::Status DeleteFile(const std::string& path) override;
  common::Status TruncateFile(const std::string& path,
                              uint64_t size) override;
  common::Status CreateDir(const std::string& path) override;
  common::Status SyncDir(const std::string& path) override;

  // --- Fault injection ----------------------------------------------------

  /// Caps the durable size of `path` at `bytes`: appends past the cap are
  /// silently discarded (short write at the byte level, reported as
  /// success). Simulates a crash with a torn tail at exactly `bytes`.
  void SetWriteLimit(const std::string& path, uint64_t bytes);
  void ClearWriteLimit(const std::string& path);

  /// The next `count` Sync()/SyncDir() calls fail with kInternal.
  void FailNextSyncs(size_t count);
  /// Lets `skip` Sync()/SyncDir() calls succeed, then fails the following
  /// `count` — pinpoints one sync in a longer deterministic sequence.
  void FailSyncs(size_t skip, size_t count);
  /// Every Sync()/SyncDir() whose path contains `fragment` fails with
  /// kInternal until cleared with an empty fragment: a persistent fault on
  /// one kind of file (say "snapshot-") while every other sync succeeds.
  void FailSyncsContaining(std::string fragment);

  /// Flips bit `bit` (0..7) of the byte at `offset` in `path` — a stored
  /// corruption the journal's CRC framing must catch.
  common::Status FlipBit(const std::string& path, uint64_t offset, int bit);

  // --- Crash simulation ---------------------------------------------------

  /// Directory operations issued since the last successful SyncDir.
  size_t pending_metadata_ops() const;
  /// Reverts the live view to the durable one: all pending directory
  /// operations are lost. File *data* already accepted stays (data
  /// durability is governed by write limits, not by Crash).
  void Crash() { Crash(0); }
  /// Like Crash(), but first applies the pending directory operations
  /// whose bit is set in `mask` (bit i = i-th oldest), in issue order,
  /// skipping any that no longer apply — the kernel may have written back
  /// any subset of dirty directory blocks before the crash.
  void Crash(uint64_t mask);

  /// Direct access for tests: live contents / explicit durable seeding.
  common::Result<std::string> GetFile(const std::string& path);
  void SetFile(const std::string& path, std::string contents);
  uint64_t FileSize(const std::string& path);
  std::vector<std::string> ListFiles() const;
  size_t sync_count() const;

 private:
  class MemFile;
  friend class MemFile;

  struct Inode {
    std::string data;
  };
  using InodePtr = std::shared_ptr<Inode>;
  using Dir = std::map<std::string, InodePtr>;

  struct MetaOp {
    enum class Kind { kCreate, kRename, kDelete, kTruncate };
    Kind kind;
    std::string path;
    std::string to;  ///< Rename target.
    InodePtr inode;  ///< The created inode (kCreate).
    std::string tail;         ///< The bytes a kTruncate cut off.
    uint64_t trunc_size = 0;  ///< The size a kTruncate shrank to.
  };

  // Helpers: callers hold mu_.
  common::Status SyncImpl(const std::string& what);
  /// A successful fsync of `path` makes its pending truncates durable.
  void CommitTruncates(const std::string& path);
  static void ApplyOp(const MetaOp& op, Dir* dir);

  /// Serialises every operation, including MemFile writes/syncs.
  mutable std::mutex mu_;
  Dir live_;
  Dir durable_;
  std::vector<MetaOp> pending_;
  std::map<std::string, uint64_t> write_limits_;
  size_t skip_syncs_ = 0;
  size_t fail_syncs_ = 0;
  std::string fail_syncs_containing_;
  size_t sync_count_ = 0;
};

}  // namespace xmlup::store

#endif  // XMLUP_STORE_FILE_H_
