#include "storage/env.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

namespace mmm {

namespace fs = std::filesystem;

namespace {

/// Env backed by the host filesystem via <filesystem> and stdio.
class PosixEnv : public Env {
 public:
  Status WriteFile(const std::string& path, std::span<const uint8_t> data) override {
    std::FILE* file = std::fopen(path.c_str(), "wb");
    if (file == nullptr) {
      return Status::IOError("cannot open for write: ", path);
    }
    size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), file);
    int close_rc = std::fclose(file);
    if (written != data.size() || close_rc != 0) {
      return Status::IOError("short write to ", path);
    }
    return Status::OK();
  }

  Status AppendToFile(const std::string& path,
                      std::span<const uint8_t> data) override {
    std::FILE* file = std::fopen(path.c_str(), "ab");
    if (file == nullptr) {
      return Status::IOError("cannot open for append: ", path);
    }
    size_t written = data.empty() ? 0 : std::fwrite(data.data(), 1, data.size(), file);
    int close_rc = std::fclose(file);
    if (written != data.size() || close_rc != 0) {
      return Status::IOError("short append to ", path);
    }
    return Status::OK();
  }

  Result<std::vector<uint8_t>> ReadFile(const std::string& path) override {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Status::NotFound("cannot open for read: ", path);
    }
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    std::fseek(file, 0, SEEK_SET);
    std::vector<uint8_t> data(static_cast<size_t>(size < 0 ? 0 : size));
    size_t read = data.empty() ? 0 : std::fread(data.data(), 1, data.size(), file);
    std::fclose(file);
    if (read != data.size()) {
      return Status::IOError("short read from ", path);
    }
    return data;
  }

  Result<std::vector<uint8_t>> ReadFileRange(const std::string& path,
                                             uint64_t offset,
                                             uint64_t length) override {
    std::FILE* file = std::fopen(path.c_str(), "rb");
    if (file == nullptr) {
      return Status::NotFound("cannot open for read: ", path);
    }
    std::fseek(file, 0, SEEK_END);
    long size = std::ftell(file);
    // Overflow-safe form of `offset + length > size` (the sum can wrap in
    // uint64); see the ReadFileRange contract in env.h.
    if (size < 0 || offset > static_cast<uint64_t>(size) ||
        length > static_cast<uint64_t>(size) - offset) {
      std::fclose(file);
      return Status::OutOfRange("range [", offset, ", +", length,
                                ") past end of ", path);
    }
    std::fseek(file, static_cast<long>(offset), SEEK_SET);
    std::vector<uint8_t> data(length);
    size_t read = data.empty() ? 0 : std::fread(data.data(), 1, length, file);
    std::fclose(file);
    if (read != length) {
      return Status::IOError("short ranged read from ", path);
    }
    return data;
  }

  Result<bool> FileExists(const std::string& path) override {
    std::error_code ec;
    bool exists = fs::exists(path, ec);
    if (ec) return Status::IOError("exists(", path, "): ", ec.message());
    return exists;
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::error_code ec;
    uint64_t size = fs::file_size(path, ec);
    if (ec) return Status::IOError("file_size(", path, "): ", ec.message());
    return size;
  }

  Status DeleteFile(const std::string& path) override {
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) return Status::IOError("remove(", path, "): ", ec.message());
    return Status::OK();
  }

  Status CreateDirs(const std::string& path) override {
    std::error_code ec;
    fs::create_directories(path, ec);
    if (ec) return Status::IOError("create_directories(", path, "): ", ec.message());
    return Status::OK();
  }

  Status RemoveDirs(const std::string& path) override {
    std::error_code ec;
    fs::remove_all(path, ec);
    if (ec) return Status::IOError("remove_all(", path, "): ", ec.message());
    return Status::OK();
  }

  Result<std::vector<std::string>> ListDir(const std::string& path) override {
    std::error_code ec;
    std::vector<std::string> names;
    for (const auto& entry : fs::directory_iterator(path, ec)) {
      if (entry.is_regular_file()) names.push_back(entry.path().filename().string());
    }
    if (ec) return Status::IOError("list(", path, "): ", ec.message());
    std::sort(names.begin(), names.end());
    return names;
  }
};

}  // namespace

Env* Env::Default() {
  static PosixEnv env;
  return &env;
}

// ---------------------------------------------------------------------------
// InMemoryEnv

Status InMemoryEnv::WriteFile(const std::string& path,
                              std::span<const uint8_t> data) {
  MutexLock lock(mu_);
  files_[path].assign(data.begin(), data.end());
  return Status::OK();
}

Status InMemoryEnv::AppendToFile(const std::string& path,
                                 std::span<const uint8_t> data) {
  MutexLock lock(mu_);
  std::vector<uint8_t>& contents = files_[path];
  contents.insert(contents.end(), data.begin(), data.end());
  return Status::OK();
}

Result<std::vector<uint8_t>> InMemoryEnv::ReadFile(const std::string& path) {
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("in-memory env: no file ", path);
  }
  return it->second;
}

Result<std::vector<uint8_t>> InMemoryEnv::ReadFileRange(const std::string& path,
                                                        uint64_t offset,
                                                        uint64_t length) {
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("in-memory env: no file ", path);
  }
  const std::vector<uint8_t>& contents = it->second;
  // Overflow-safe form of `offset + length > size`; see env.h.
  if (offset > contents.size() || length > contents.size() - offset) {
    return Status::OutOfRange("range [", offset, ", +", length,
                              ") past end of ", path);
  }
  return std::vector<uint8_t>(contents.begin() + offset,
                              contents.begin() + offset + length);
}

Result<bool> InMemoryEnv::FileExists(const std::string& path) {
  MutexLock lock(mu_);
  return files_.find(path) != files_.end();
}

Result<uint64_t> InMemoryEnv::FileSize(const std::string& path) {
  MutexLock lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return Status::NotFound("in-memory env: no file ", path);
  }
  return static_cast<uint64_t>(it->second.size());
}

Status InMemoryEnv::DeleteFile(const std::string& path) {
  MutexLock lock(mu_);
  files_.erase(path);
  return Status::OK();
}

Status InMemoryEnv::CreateDirs(const std::string&) { return Status::OK(); }

Status InMemoryEnv::RemoveDirs(const std::string& path) {
  MutexLock lock(mu_);
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  auto it = files_.lower_bound(prefix);
  while (it != files_.end() && it->first.starts_with(prefix)) {
    it = files_.erase(it);
  }
  return Status::OK();
}

Result<std::vector<std::string>> InMemoryEnv::ListDir(const std::string& path) {
  MutexLock lock(mu_);
  std::string prefix = path;
  if (!prefix.empty() && prefix.back() != '/') prefix += '/';
  // Paths under `prefix` are contiguous in the map and already sorted.
  std::vector<std::string> names;
  for (auto it = files_.lower_bound(prefix);
       it != files_.end() && it->first.starts_with(prefix); ++it) {
    std::string rest = it->first.substr(prefix.size());
    if (rest.find('/') == std::string::npos) names.push_back(std::move(rest));
  }
  return names;
}

// ---------------------------------------------------------------------------
// Write-order tagging

namespace {
// The active tag of this thread, published by ScopedWriteOrderTag. One level
// is enough: a batch wraps exactly the env write of one staged op.
thread_local const WriteOrderGroup* tls_write_order_group = nullptr;
thread_local size_t tls_write_order_index = 0;
}  // namespace

ScopedWriteOrderTag::ScopedWriteOrderTag(const WriteOrderGroup* group,
                                         size_t index) {
  tls_write_order_group = group;
  tls_write_order_index = index;
}

ScopedWriteOrderTag::~ScopedWriteOrderTag() {
  tls_write_order_group = nullptr;
  tls_write_order_index = 0;
}

// ---------------------------------------------------------------------------
// FaultInjectionEnv

Status FaultInjectionEnv::MaybeFail() {
  int64_t index;
  int64_t fail_after;
  {
    MutexLock lock(mu_);
    const WriteOrderGroup* group = tls_write_order_group;
    if (group != nullptr) {
      int64_t base = group->base_.load(std::memory_order_relaxed);
      if (base < 0) {
        // First member of the group to arrive claims the whole block, so
        // every member's index reflects staging order, not arrival order.
        base = next_index_;
        group->base_.store(base, std::memory_order_relaxed);
        next_index_ += static_cast<int64_t>(group->size());
      }
      index = base + static_cast<int64_t>(tls_write_order_index);
    } else {
      index = next_index_++;
    }
    fail_after = fail_after_;
  }
  if (fail_after >= 0 && index >= fail_after) {
    return Status::IOError("injected write failure (write #", index, ")");
  }
  return Status::OK();
}

Status FaultInjectionEnv::CheckPath(const std::string& path) const {
  MutexLock lock(mu_);
  for (const std::string& prefix : dead_prefixes_) {
    if (path.rfind(prefix, 0) == 0) {
      return Status::IOError("injected shard failure: ", path,
                             " is under dead prefix ", prefix);
    }
  }
  return Status::OK();
}

Status FaultInjectionEnv::WriteFile(const std::string& path,
                                    std::span<const uint8_t> data) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  MMM_RETURN_NOT_OK(MaybeFail());
  return base_->WriteFile(path, data);
}

Status FaultInjectionEnv::AppendToFile(const std::string& path,
                                       std::span<const uint8_t> data) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  MMM_RETURN_NOT_OK(MaybeFail());
  return base_->AppendToFile(path, data);
}

Result<std::vector<uint8_t>> FaultInjectionEnv::ReadFile(const std::string& path) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  return base_->ReadFile(path);
}

Result<std::vector<uint8_t>> FaultInjectionEnv::ReadFileRange(
    const std::string& path, uint64_t offset, uint64_t length) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  return base_->ReadFileRange(path, offset, length);
}

Result<bool> FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Result<uint64_t> FaultInjectionEnv::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

Status FaultInjectionEnv::DeleteFile(const std::string& path) {
  MMM_RETURN_NOT_OK(CheckPath(path));
  return base_->DeleteFile(path);
}

Status FaultInjectionEnv::CreateDirs(const std::string& path) {
  return base_->CreateDirs(path);
}

Status FaultInjectionEnv::RemoveDirs(const std::string& path) {
  return base_->RemoveDirs(path);
}

Result<std::vector<std::string>> FaultInjectionEnv::ListDir(const std::string& path) {
  return base_->ListDir(path);
}

}  // namespace mmm
