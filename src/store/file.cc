#include "store/file.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <mutex>

#ifdef _WIN32
#error "the posix file system is, as the name says, posix-only"
#endif
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace xmlup::store {

using common::Result;
using common::Status;

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::Internal(what + " " + path + ": " + std::strerror(errno));
}

std::string Dirname(const std::string& path) {
  size_t slash = path.rfind('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

// --- POSIX --------------------------------------------------------------

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (file_ == nullptr) return Status::Internal("append on closed file");
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Errno("short write to", path_);
    }
    return Status::Ok();
  }

  Status Sync() override {
    if (file_ == nullptr) return Status::Internal("sync on closed file");
    if (std::fflush(file_) != 0) return Errno("fflush", path_);
    if (::fsync(::fileno(file_)) != 0) return Errno("fsync", path_);
    return Status::Ok();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::Ok();
    FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) return Errno("fclose", path_);
    return Status::Ok();
  }

 private:
  FILE* file_;
  std::string path_;
};

class PosixFileSystemImpl : public FileSystem {
 public:
  Result<std::unique_ptr<WritableFile>> OpenWritable(
      const std::string& path, WriteMode mode) override {
    FILE* f = std::fopen(path.c_str(),
                         mode == WriteMode::kTruncate ? "wb" : "ab");
    if (f == nullptr) return Errno("open", path);
    return std::unique_ptr<WritableFile>(
        std::make_unique<PosixWritableFile>(f, path));
  }

  Result<std::string> ReadFile(const std::string& path) override {
    FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      return Status::NotFound("no such file: " + path);
    }
    std::string out;
    char buf[1 << 16];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      out.append(buf, n);
    }
    bool bad = std::ferror(f) != 0;
    std::fclose(f);
    if (bad) return Errno("read", path);
    return out;
  }

  bool FileExists(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::exists(path, ec);
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Errno("rename", from + " -> " + to);
    }
    return Status::Ok();
  }

  Status DeleteFile(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) return Errno("remove", path);
    return Status::Ok();
  }

  Status TruncateFile(const std::string& path, uint64_t size) override {
    int fd = ::open(path.c_str(), O_WRONLY);
    if (fd < 0) return Errno("open", path);
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      Status status = Errno("fstat", path);
      ::close(fd);
      return status;
    }
    if (static_cast<uint64_t>(st.st_size) <= size) {
      ::close(fd);
      return Status::Ok();
    }
    if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
      Status status = Errno("ftruncate", path);
      ::close(fd);
      return status;
    }
    if (::fsync(fd) != 0) {
      Status status = Errno("fsync", path);
      ::close(fd);
      return status;
    }
    if (::close(fd) != 0) return Errno("close", path);
    return Status::Ok();
  }

  Status CreateDir(const std::string& path) override {
    std::error_code ec;
    std::filesystem::create_directories(path, ec);
    if (ec) {
      return Status::Internal("mkdir " + path + ": " + ec.message());
    }
    return Status::Ok();
  }

  Status SyncDir(const std::string& path) override {
    int fd = ::open(path.empty() ? "." : path.c_str(),
                    O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Errno("open dir", path);
    if (::fsync(fd) != 0) {
      Status st = Errno("fsync dir", path);
      ::close(fd);
      return st;
    }
    if (::close(fd) != 0) return Errno("close dir", path);
    return Status::Ok();
  }
};

}  // namespace

FileSystem* PosixFileSystem() {
  static PosixFileSystemImpl* fs = new PosixFileSystemImpl();
  return fs;
}

// --- In-memory with fault injection --------------------------------------

class MemFileSystem::MemFile : public WritableFile {
 public:
  MemFile(MemFileSystem* fs, InodePtr inode, std::string path)
      : fs_(fs), inode_(std::move(inode)), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> lock(fs_->mu_);
    std::string& contents = inode_->data;
    auto limit = fs_->write_limits_.find(path_);
    if (limit != fs_->write_limits_.end()) {
      // Crash simulation: accept the write but only a prefix (possibly
      // none) of it becomes durable.
      if (contents.size() < limit->second) {
        size_t room = limit->second - contents.size();
        contents.append(data.substr(0, std::min<size_t>(room, data.size())));
      }
      return Status::Ok();
    }
    contents.append(data);
    return Status::Ok();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> lock(fs_->mu_);
    Status synced = fs_->SyncImpl(path_);
    // fsync(fd) also flushes a prior ftruncate on the same file.
    if (synced.ok()) fs_->CommitTruncates(path_);
    return synced;
  }

  Status Close() override { return Status::Ok(); }

 private:
  MemFileSystem* fs_;
  InodePtr inode_;
  std::string path_;
};

Status MemFileSystem::SyncImpl(const std::string& what) {
  ++sync_count_;
  if (!fail_syncs_containing_.empty() &&
      what.find(fail_syncs_containing_) != std::string::npos) {
    return Status::Internal("injected fsync failure on " + what);
  }
  if (skip_syncs_ > 0) {
    --skip_syncs_;
    return Status::Ok();
  }
  if (fail_syncs_ > 0) {
    --fail_syncs_;
    return Status::Internal("injected fsync failure on " + what);
  }
  return Status::Ok();
}

void MemFileSystem::ApplyOp(const MetaOp& op, Dir* dir) {
  switch (op.kind) {
    case MetaOp::Kind::kCreate:
      (*dir)[op.path] = op.inode;
      break;
    case MetaOp::Kind::kRename: {
      auto it = dir->find(op.path);
      // Source missing (e.g. its pending creation was not written back
      // before the crash): the rename never reached disk either.
      if (it == dir->end()) break;
      (*dir)[op.to] = std::move(it->second);
      dir->erase(op.path);
      break;
    }
    case MetaOp::Kind::kDelete:
      dir->erase(op.path);
      break;
    case MetaOp::Kind::kTruncate:
      // The shrink already hit the shared inode; "written back" means
      // the cut tail stays gone — nothing to do. The NOT-written-back
      // case (restore the tail) is handled in Crash().
      break;
  }
}

Result<std::unique_ptr<WritableFile>> MemFileSystem::OpenWritable(
    const std::string& path, WriteMode mode) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(path);
  InodePtr inode;
  if (it != live_.end()) {
    inode = it->second;
    // O_TRUNC clears the inode in place; file data durability is governed
    // by write limits, so truncation is visible in both views at once.
    if (mode == WriteMode::kTruncate) inode->data.clear();
  } else {
    inode = std::make_shared<Inode>();
    live_[path] = inode;
    pending_.push_back({MetaOp::Kind::kCreate, path, {}, inode, {}, 0});
  }
  return std::unique_ptr<WritableFile>(
      std::make_unique<MemFile>(this, std::move(inode), path));
}

Result<std::string> MemFileSystem::ReadFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(path);
  if (it == live_.end()) return Status::NotFound("no such file: " + path);
  return it->second->data;
}

bool MemFileSystem::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  return live_.count(path) > 0;
}

Status MemFileSystem::RenameFile(const std::string& from,
                                 const std::string& to) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(from);
  if (it == live_.end()) return Status::NotFound("no such file: " + from);
  live_[to] = std::move(it->second);
  live_.erase(it);
  pending_.push_back({MetaOp::Kind::kRename, from, to, nullptr, {}, 0});
  return Status::Ok();
}

Status MemFileSystem::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  if (live_.erase(path) == 0) {
    return Status::NotFound("no such file: " + path);
  }
  pending_.push_back({MetaOp::Kind::kDelete, path, {}, nullptr, {}, 0});
  return Status::Ok();
}

Status MemFileSystem::TruncateFile(const std::string& path, uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(path);
  if (it == live_.end()) return Status::NotFound("no such file: " + path);
  std::string& data = it->second->data;
  if (data.size() <= size) return SyncImpl(path);
  // The shrink hits the shared inode at once (the running process sees
  // its own ftruncate), but like other metadata it is durable only after
  // a successful fsync of the file: until then the cut tail stays
  // pending so Crash() can decide whether the kernel wrote it back.
  pending_.push_back({MetaOp::Kind::kTruncate, path, {}, nullptr,
                      data.substr(size), size});
  data.resize(size);
  Status synced = SyncImpl(path);
  if (synced.ok()) CommitTruncates(path);
  return synced;
}

void MemFileSystem::CommitTruncates(const std::string& path) {
  pending_.erase(
      std::remove_if(pending_.begin(), pending_.end(),
                     [&](const MetaOp& op) {
                       return op.kind == MetaOp::Kind::kTruncate &&
                              op.path == path;
                     }),
      pending_.end());
}

Status MemFileSystem::CreateDir(const std::string&) { return Status::Ok(); }

Status MemFileSystem::SyncDir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  XMLUP_RETURN_NOT_OK(SyncImpl(path));
  std::vector<MetaOp> kept;
  for (MetaOp& op : pending_) {
    // A directory fsync orders directory entries, not file lengths: a
    // pending truncate needs an fsync of the *file* to become durable.
    bool in_dir = op.kind != MetaOp::Kind::kTruncate &&
                  (Dirname(op.path) == path ||
                   (op.kind == MetaOp::Kind::kRename &&
                    Dirname(op.to) == path));
    if (in_dir) {
      ApplyOp(op, &durable_);
    } else {
      kept.push_back(std::move(op));
    }
  }
  pending_ = std::move(kept);
  return Status::Ok();
}

void MemFileSystem::Crash(uint64_t mask) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (i < 64 && (mask & (uint64_t{1} << i)) != 0) {
      ApplyOp(pending_[i], &durable_);
    }
  }
  // Truncates the kernel did NOT write back: the old tail is still on
  // disk, so put it back — newest first, and only while the file is at
  // exactly the size that truncate shrank it to (a mask that keeps a
  // later truncate durable forecloses restoring an earlier one).
  for (size_t i = pending_.size(); i-- > 0;) {
    const MetaOp& op = pending_[i];
    if (op.kind != MetaOp::Kind::kTruncate) continue;
    if (i < 64 && (mask & (uint64_t{1} << i)) != 0) continue;
    auto it = durable_.find(op.path);
    if (it != durable_.end() && it->second->data.size() == op.trunc_size) {
      it->second->data += op.tail;
    }
  }
  pending_.clear();
  live_ = durable_;
}

void MemFileSystem::SetWriteLimit(const std::string& path, uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  write_limits_[path] = bytes;
}

void MemFileSystem::ClearWriteLimit(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  write_limits_.erase(path);
}

void MemFileSystem::FailNextSyncs(size_t count) { FailSyncs(0, count); }

void MemFileSystem::FailSyncs(size_t skip, size_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  skip_syncs_ = skip;
  fail_syncs_ = count;
}

void MemFileSystem::FailSyncsContaining(std::string fragment) {
  std::lock_guard<std::mutex> lock(mu_);
  fail_syncs_containing_ = std::move(fragment);
}

Status MemFileSystem::FlipBit(const std::string& path, uint64_t offset,
                              int bit) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(path);
  if (it == live_.end()) return Status::NotFound("no such file: " + path);
  std::string& data = it->second->data;
  if (offset >= data.size() || bit < 0 || bit > 7) {
    return Status::OutOfRange("flip target outside file");
  }
  data[offset] = static_cast<char>(static_cast<uint8_t>(data[offset]) ^
                                   (1u << bit));
  return Status::Ok();
}

Result<std::string> MemFileSystem::GetFile(const std::string& path) {
  return ReadFile(path);
}

void MemFileSystem::SetFile(const std::string& path, std::string contents) {
  std::lock_guard<std::mutex> lock(mu_);
  // Test seeding: pre-existing state, durable by construction.
  auto inode = std::make_shared<Inode>();
  inode->data = std::move(contents);
  live_[path] = inode;
  durable_[path] = std::move(inode);
}

uint64_t MemFileSystem::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = live_.find(path);
  return it == live_.end() ? 0 : it->second->data.size();
}

size_t MemFileSystem::pending_metadata_ops() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

size_t MemFileSystem::sync_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sync_count_;
}

std::vector<std::string> MemFileSystem::ListFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(live_.size());
  for (const auto& [path, inode] : live_) {
    (void)inode;
    out.push_back(path);
  }
  return out;
}

}  // namespace xmlup::store
