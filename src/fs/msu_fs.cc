#include "src/fs/msu_fs.h"

#include <algorithm>
#include <cstring>

namespace calliope {

namespace {

uint64_t Fnv1a(const std::byte* data, size_t len) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    hash ^= static_cast<uint64_t>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

int64_t BlocksForSize(Bytes size) {
  return (size.count() + kDataPageSize.count() - 1) / kDataPageSize.count();
}

}  // namespace

MsuFileSystem::MsuFileSystem(std::vector<Disk*> disks) {
  bool first = true;
  for (Disk* disk : disks) {
    volumes_.push_back(std::make_unique<Volume>(*disk, /*reserve_metadata_block=*/first));
    first = false;
  }
}

int MsuFileSystem::EmptiestDisk() const {
  int best = 0;
  for (size_t i = 1; i < volumes_.size(); ++i) {
    if (volumes_[i]->unreserved_free_blocks() > volumes_[static_cast<size_t>(best)]->unreserved_free_blocks()) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

Result<MsuFile*> MsuFileSystem::Create(const std::string& name, Bytes estimated_size, bool striped,
                                       int preferred_disk) {
  if (files_.contains(name)) {
    return AlreadyExistsError("file exists: " + name);
  }
  if (volumes_.empty()) {
    return FailedPreconditionError("no disks");
  }
  const int64_t blocks = std::max<int64_t>(1, BlocksForSize(estimated_size));
  auto file = std::make_unique<MsuFile>();
  file->name_ = name;
  file->striped_ = striped;
  file->reserved_blocks_ = blocks;
  if (striped) {
    // Spread the reservation evenly; disk i gets ceil or floor share.
    const auto n = static_cast<int64_t>(volumes_.size());
    for (int64_t i = 0; i < n; ++i) {
      const int64_t share = blocks / n + (i < blocks % n ? 1 : 0);
      CALLIOPE_RETURN_IF_ERROR(volumes_[static_cast<size_t>(i)]->Reserve(share));
    }
    file->home_disk_ = 0;
  } else {
    const int disk = preferred_disk >= 0 ? preferred_disk : EmptiestDisk();
    if (disk >= static_cast<int>(volumes_.size())) {
      return InvalidArgumentError("no such disk");
    }
    CALLIOPE_RETURN_IF_ERROR(volumes_[static_cast<size_t>(disk)]->Reserve(blocks));
    file->home_disk_ = disk;
  }
  MsuFile* raw = file.get();
  files_[name] = std::move(file);
  metadata_dirty_ = true;
  return raw;
}

Result<MsuFile*> MsuFileSystem::Lookup(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  return it->second.get();
}

Status MsuFileSystem::Delete(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  MsuFile* file = it->second.get();
  for (const BlockAddr& addr : file->blocks_) {
    volumes_[static_cast<size_t>(addr.disk)]->FreeBlock(addr.block);
  }
  // Return any never-written reservation.
  const int64_t leftover = file->reserved_blocks_ - static_cast<int64_t>(file->blocks_.size());
  if (leftover > 0) {
    if (file->striped_) {
      const auto n = static_cast<int64_t>(volumes_.size());
      for (int64_t i = 0; i < n; ++i) {
        volumes_[static_cast<size_t>(i)]->Unreserve(leftover / n + (i < leftover % n ? 1 : 0));
      }
    } else {
      volumes_[static_cast<size_t>(file->home_disk_)]->Unreserve(leftover);
    }
  }
  files_.erase(it);
  metadata_dirty_ = true;
  return OkStatus();
}

Result<BlockAddr> MsuFileSystem::AllocateForPage(MsuFile* file, int64_t page_index) {
  const size_t disk = file->striped_
                          ? static_cast<size_t>(page_index) % volumes_.size()
                          : static_cast<size_t>(file->home_disk_);
  auto& volume = *volumes_[disk];
  CALLIOPE_ASSIGN_OR_RETURN(const int64_t block, volume.AllocateBlock());
  volume.Unreserve(1);  // the reservation converts into a real block
  return BlockAddr{static_cast<int>(disk), block};
}

Co<Status> MsuFileSystem::WriteNextPage(MsuFile* file, int64_t page_index) {
  if (file->committed_) {
    co_return FailedPreconditionError("file already committed: " + file->name_);
  }
  if (page_index != static_cast<int64_t>(file->blocks_.size())) {
    co_return InvalidArgumentError("pages must be written in order");
  }
  auto addr = AllocateForPage(file, page_index);
  if (!addr.ok()) {
    co_return addr.status();
  }
  file->blocks_.push_back(*addr);
  auto& volume = *volumes_[static_cast<size_t>(addr->disk)];
  // One full-block transfer: "the IB-tree writes both data page and internal
  // page using a single disk transfer and seek".
  const bool ok = co_await volume.disk().Write(volume.BlockOffset(addr->block), kDataPageSize);
  if (!ok) {
    // Undo the allocation so the caller can retry this page index: without
    // the rollback the in-order check above would reject the retry without
    // consuming any simulated time.
    file->blocks_.pop_back();
    volume.FreeBlock(addr->block);
    (void)volume.Reserve(1);
    co_return UnavailableError("disk write error on " + file->name_ + " page " +
                               std::to_string(page_index));
  }
  co_return OkStatus();
}

const IbTreeFile& MsuFile::image() const {
  static const IbTreeFile kEmpty;
  return image_ != nullptr ? *image_ : kEmpty;
}

Status MsuFileSystem::CommitRecording(MsuFile* file, std::shared_ptr<const IbTreeFile> image) {
  if (file->committed_) {
    return FailedPreconditionError("file already committed: " + file->name_);
  }
  if (image == nullptr) {
    return InvalidArgumentError("no image to commit for " + file->name_);
  }
  if (image->page_count() != file->blocks_.size()) {
    return InvalidArgumentError("image has " + std::to_string(image->page_count()) +
                                " pages but " + std::to_string(file->blocks_.size()) +
                                " were written");
  }
  const int64_t leftover = file->reserved_blocks_ - static_cast<int64_t>(file->blocks_.size());
  if (leftover > 0) {
    if (file->striped_) {
      const auto n = static_cast<int64_t>(volumes_.size());
      for (int64_t i = 0; i < n; ++i) {
        volumes_[static_cast<size_t>(i)]->Unreserve(leftover / n + (i < leftover % n ? 1 : 0));
      }
    } else {
      volumes_[static_cast<size_t>(file->home_disk_)]->Unreserve(leftover);
    }
  }
  file->reserved_blocks_ = static_cast<int64_t>(file->blocks_.size());
  file->image_ = std::move(image);
  file->committed_ = true;
  metadata_dirty_ = true;
  return OkStatus();
}

Co<Result<const DataPage*>> MsuFileSystem::ReadPage(MsuFile* file, size_t page_index) {
  if (!file->committed_) {
    co_return Result<const DataPage*>(FailedPreconditionError("file not committed"));
  }
  if (page_index >= file->blocks_.size()) {
    co_return Result<const DataPage*>(NotFoundError("page out of range"));
  }
  const BlockAddr addr = file->blocks_[page_index];
  auto& volume = *volumes_[static_cast<size_t>(addr.disk)];
  const bool ok = co_await volume.disk().Read(volume.BlockOffset(addr.block), kDataPageSize);
  if (!ok) {
    // Transient medium error: retryable, unlike the checksum mismatch below.
    co_return Result<const DataPage*>(UnavailableError(
        "disk read error on " + file->name_ + " page " + std::to_string(page_index)));
  }
  // Verify the page's record table (the read happened either way).
  for (size_t corrupt : file->corrupt_pages_) {
    if (corrupt == page_index) {
      co_return Result<const DataPage*>(
          DataLossError("record table checksum mismatch in page " +
                        std::to_string(page_index) + " of " + file->name_));
    }
  }
  co_return Result<const DataPage*>(&file->image_->page(page_index));
}

Co<Result<std::vector<const DataPage*>>> MsuFileSystem::ReadPages(MsuFile* file, size_t first,
                                                                  size_t count) {
  using Pages = std::vector<const DataPage*>;
  if (!file->committed_) {
    co_return Result<Pages>(FailedPreconditionError("file not committed"));
  }
  if (count == 0 || first + count > file->blocks_.size()) {
    co_return Result<Pages>(NotFoundError("page range out of range"));
  }
  if (file->striped_) {
    co_return Result<Pages>(FailedPreconditionError("aggregate read of striped file"));
  }
  const BlockAddr addr = file->blocks_[first];
  auto& volume = *volumes_[static_cast<size_t>(addr.disk)];
  const bool ok = co_await volume.disk().Read(volume.BlockOffset(addr.block),
                                              kDataPageSize * static_cast<int64_t>(count),
                                              /*bulk=*/true);
  if (!ok) {
    co_return Result<Pages>(UnavailableError("disk read error on " + file->name_ + " pages " +
                                             std::to_string(first) + "+" + std::to_string(count)));
  }
  for (size_t corrupt : file->corrupt_pages_) {
    if (corrupt >= first && corrupt < first + count) {
      co_return Result<Pages>(DataLossError("record table checksum mismatch in page " +
                                            std::to_string(corrupt) + " of " + file->name_));
    }
  }
  Pages pages;
  pages.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    pages.push_back(&file->image_->page(first + i));
  }
  co_return Result<Pages>(std::move(pages));
}

void MsuFileSystem::CorruptPageForTesting(MsuFile* file, size_t page_index) {
  file->corrupt_pages_.push_back(page_index);
}

Result<MsuFile*> MsuFileSystem::InstallImage(const std::string& name,
                                             std::shared_ptr<const IbTreeFile> image,
                                             bool striped, int preferred_disk) {
  if (image == nullptr) {
    return InvalidArgumentError("no image to install for " + name);
  }
  const size_t page_count = image->page_count();
  const Bytes size = kDataPageSize * static_cast<int64_t>(page_count);
  CALLIOPE_ASSIGN_OR_RETURN(MsuFile * file, Create(name, size, striped, preferred_disk));
  file->blocks_.reserve(page_count);  // exact: an installed image never grows
  for (size_t i = 0; i < page_count; ++i) {
    auto addr = AllocateForPage(file, static_cast<int64_t>(i));
    if (!addr.ok()) {
      (void)Delete(name);
      return addr.status();
    }
    file->blocks_.push_back(*addr);
  }
  CALLIOPE_RETURN_IF_ERROR(CommitRecording(file, std::move(image)));
  return file;
}

Bytes MsuFileSystem::TotalFreeSpace() const {
  Bytes total;
  for (const auto& volume : volumes_) {
    total += kDataPageSize * volume->unreserved_free_blocks();
  }
  return total;
}

std::vector<std::string> MsuFileSystem::ListFiles() const {
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, file] : files_) {
    names.push_back(name);
  }
  return names;
}

Co<Status> MsuFileSystem::FlushMetadata() {
  if (volumes_.empty()) {
    co_return FailedPreconditionError("no disks");
  }
  if (!metadata_dirty_) {
    co_return OkStatus();
  }
  metadata_dirty_ = false;
  ++metadata_flushes_;
  // One block-sized write to the reserved metadata block; the table itself
  // is far smaller ("the file system meta-data ... can be entirely cached").
  auto& volume = *volumes_.front();
  const bool ok = co_await volume.disk().Write(volume.BlockOffset(0), kDataPageSize);
  if (!ok) {
    metadata_dirty_ = true;  // still needs a flush
    co_return UnavailableError("disk write error flushing metadata");
  }
  co_return OkStatus();
}

std::vector<std::byte> MsuFileSystem::SerializeFileTable() const {
  std::vector<std::byte> out;
  auto put_u32 = [&out](uint32_t v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    out.insert(out.end(), p, p + sizeof(v));
  };
  put_u32(0xCA111073);
  put_u32(static_cast<uint32_t>(files_.size()));
  for (const auto& [name, file] : files_) {
    put_u32(static_cast<uint32_t>(name.size()));
    const auto* p = reinterpret_cast<const std::byte*>(name.data());
    out.insert(out.end(), p, p + name.size());
    put_u32(file->striped_ ? 1 : 0);
    put_u32(static_cast<uint32_t>(file->blocks_.size()));
  }
  const uint64_t checksum = Fnv1a(out.data(), out.size());
  const auto* p = reinterpret_cast<const std::byte*>(&checksum);
  out.insert(out.end(), p, p + sizeof(checksum));
  return out;
}

Result<std::vector<std::string>> MsuFileSystem::ParseFileTableNames(
    const std::vector<std::byte>& bytes) {
  if (bytes.size() < 16) {
    return DataLossError("file table truncated");
  }
  const size_t body = bytes.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, sizeof(stored));
  if (stored != Fnv1a(bytes.data(), body)) {
    return DataLossError("file table checksum mismatch");
  }
  size_t pos = 0;
  auto get_u32 = [&bytes, &pos](uint32_t& v) {
    if (pos + sizeof(v) > bytes.size()) {
      return false;
    }
    std::memcpy(&v, bytes.data() + pos, sizeof(v));
    pos += sizeof(v);
    return true;
  };
  uint32_t magic = 0;
  uint32_t count = 0;
  if (!get_u32(magic) || magic != 0xCA111073 || !get_u32(count)) {
    return DataLossError("file table bad header");
  }
  std::vector<std::string> names;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t len = 0;
    if (!get_u32(len) || pos + len > body) {
      return DataLossError("file table bad entry");
    }
    names.emplace_back(reinterpret_cast<const char*>(bytes.data() + pos), len);
    pos += len;
    uint32_t striped = 0;
    uint32_t blocks = 0;
    if (!get_u32(striped) || !get_u32(blocks)) {
      return DataLossError("file table bad entry tail");
    }
  }
  return names;
}

}  // namespace calliope
