#include "storage/file_store.h"

namespace mmm {

FileStore::FileStore(Env* env, std::string root, StoreLatencyModel latency,
                     SimulatedClock* sim_clock)
    : env_(env), root_(std::move(root)), latency_(latency), sim_clock_(sim_clock) {}

Status FileStore::Open() { return env_->CreateDirs(root_); }

Status FileStore::ValidateName(const std::string& name) const {
  if (name.empty()) return Status::InvalidArgument("blob name must not be empty");
  if (name.find('/') != std::string::npos) {
    return Status::InvalidArgument("blob name must not contain '/': ", name);
  }
  return Status::OK();
}

void FileStore::Charge(uint64_t bytes) {
  if (sim_clock_ != nullptr) sim_clock_->Advance(latency_.CostNanos(bytes));
}

Status FileStore::Put(const std::string& name, std::span<const uint8_t> data) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  MMM_RETURN_NOT_OK(env_->WriteFile(root_ + "/" + name, data));
  stats_.AddWrite(data.size());
  Charge(data.size());
  return Status::OK();
}

Status FileStore::PutString(const std::string& name, std::string_view data) {
  return Put(name, std::span<const uint8_t>(
                       reinterpret_cast<const uint8_t*>(data.data()), data.size()));
}

Status FileStore::PutDetached(const std::string& name,
                              std::span<const uint8_t> data, StoreStats* stats,
                              uint64_t* cost_nanos) const {
  MMM_RETURN_NOT_OK(ValidateName(name));
  MMM_RETURN_NOT_OK(env_->WriteFile(root_ + "/" + name, data));
  ++stats->write_ops;
  stats->bytes_written += data.size();
  *cost_nanos = latency_.CostNanos(data.size());
  return Status::OK();
}

void FileStore::MergeBatch(const StoreStats& delta, uint64_t charge_nanos) {
  stats_.Add(delta);
  if (sim_clock_ != nullptr) sim_clock_->Advance(charge_nanos);
}

Result<std::vector<uint8_t>> FileStore::Get(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, env_->ReadFile(root_ + "/" + name));
  stats_.AddRead(data.size());
  Charge(data.size());
  return data;
}

Result<std::string> FileStore::GetString(const std::string& name) {
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data, Get(name));
  return std::string(reinterpret_cast<const char*>(data.data()), data.size());
}

Result<std::vector<uint8_t>> FileStore::GetRange(const std::string& name,
                                                 uint64_t offset,
                                                 uint64_t length) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  MMM_ASSIGN_OR_RETURN(std::vector<uint8_t> data,
                       env_->ReadFileRange(root_ + "/" + name, offset, length));
  stats_.AddRead(data.size());
  Charge(data.size());
  return data;
}

Result<StreamFile> FileStore::OpenStream(const std::string& name,
                                         uint64_t window_bytes) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  const std::string path = root_ + "/" + name;
  auto size = env_->FileSize(path);
  if (!size.ok()) {
    // Report a missing blob the way Get does (PosixEnv's FileSize surfaces
    // a generic IOError for absent files).
    auto exists = env_->FileExists(path);
    if (exists.ok() && !exists.ValueOrDie()) {
      return Status::NotFound("cannot open for read: ", path);
    }
    return size.status();
  }
  // Whole-stream accounting up front; see the cost model in file_store.h.
  stats_.AddRead(size.ValueOrDie());
  Charge(size.ValueOrDie());
  return StreamFile(env_, path, size.ValueOrDie(), window_bytes);
}

Result<uint64_t> FileStore::Size(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  return env_->FileSize(root_ + "/" + name);
}

Result<bool> FileStore::Exists(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  return env_->FileExists(root_ + "/" + name);
}

Status FileStore::Delete(const std::string& name) {
  MMM_RETURN_NOT_OK(ValidateName(name));
  return env_->DeleteFile(root_ + "/" + name);
}

Result<std::vector<std::string>> FileStore::List() { return env_->ListDir(root_); }

}  // namespace mmm
