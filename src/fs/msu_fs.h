// The MSU's user-level multimedia file system (§2.3.3).
//
// Design points from the paper, all reproduced here:
//  * simple user-level file system over raw disks — no kernel FFS;
//  * 256 KB file blocks; one IB-tree data page per block;
//  * metadata small enough to live entirely in memory (it is also
//    serializable, with checksums, for the persistence path);
//  * no LRU block cache — multimedia workloads have no useful locality;
//  * recordings reserve space up front from the client's length estimate;
//    unused reservation returns to the system when the recording completes;
//  * optionally, a file may be striped so "consecutive blocks are on
//    'adjacent' disks" and any content can use the full bandwidth of the
//    array (the trade-off §2.3.3 discusses; benchmarked in bench/striping).
//
// The simulated disks carry timing only, so the volume stores each file's
// IB-tree image in memory while reads/writes charge the owning disk.
#ifndef CALLIOPE_SRC_FS_MSU_FS_H_
#define CALLIOPE_SRC_FS_MSU_FS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/fs/volume.h"
#include "src/hw/disk.h"
#include "src/ibtree/ibtree.h"
#include "src/sim/co.h"
#include "src/util/status.h"

namespace calliope {

struct BlockAddr {
  int disk = 0;
  int64_t block = 0;
  bool operator==(const BlockAddr&) const = default;
};

class MsuFile {
 public:
  const std::string& name() const { return name_; }
  bool striped() const { return striped_; }
  bool committed() const { return committed_; }
  const IbTreeFile& image() const;
  // The sealed image itself: replicas and copy installs adopt this pointer
  // rather than copying the image (it is immutable once committed).
  const std::shared_ptr<const IbTreeFile>& shared_image() const { return image_; }
  const std::vector<BlockAddr>& blocks() const { return blocks_; }
  size_t pages_written() const { return blocks_.size(); }
  int64_t reserved_blocks() const { return reserved_blocks_; }
  // Disk the file lives on (non-striped files only).
  int home_disk() const { return home_disk_; }

 private:
  friend class MsuFileSystem;
  std::string name_;
  bool striped_ = false;
  bool committed_ = false;
  std::vector<size_t> corrupt_pages_;
  int home_disk_ = 0;
  int64_t reserved_blocks_ = 0;
  std::vector<BlockAddr> blocks_;
  std::shared_ptr<const IbTreeFile> image_;  // null until committed
};

class MsuFileSystem {
 public:
  explicit MsuFileSystem(std::vector<Disk*> disks);

  MsuFileSystem(const MsuFileSystem&) = delete;
  MsuFileSystem& operator=(const MsuFileSystem&) = delete;

  // Creates a file sized from the recording-length estimate. Non-striped
  // files reserve all blocks on one disk (preferred_disk, or the emptiest);
  // striped files spread the reservation across every disk.
  Result<MsuFile*> Create(const std::string& name, Bytes estimated_size, bool striped,
                          int preferred_disk = -1);

  Result<MsuFile*> Lookup(const std::string& name);
  Status Delete(const std::string& name);

  // Recording path: writes the next page of the file (allocating its block)
  // and charges the owning disk for a full-block transfer. `page` is the
  // just-closed IB-tree page; its index must equal pages_written().
  Co<Status> WriteNextPage(MsuFile* file, int64_t page_index);

  // Seals a recording: attaches the final IB-tree image and releases any
  // unused reservation ("If the client overestimates the length of the
  // recording, the unused space will be returned to the system").
  Status CommitRecording(MsuFile* file, std::shared_ptr<const IbTreeFile> image);

  // Playback path: reads page `page_index`, charging the owning disk.
  // Returns the page contents (valid until the file is deleted).
  Co<Result<const DataPage*>> ReadPage(MsuFile* file, size_t page_index);

  // Flow-mode aggregate read: pages [first, first + count) as one disk
  // reservation ("deliver N bytes over the service window") instead of
  // `count` round-robin requests. Non-striped files only — all pages sit on
  // the home disk, so a single request spanning their blocks is charged.
  // Per-page corruption checks still apply (kDataLoss on the first bad page).
  Co<Result<std::vector<const DataPage*>>> ReadPages(MsuFile* file, size_t first, size_t count);

  // Loads pre-built content directly (admin bulk load / test fixtures):
  // allocates blocks for every page and installs the image without charging
  // simulated time. The image may already back other files (replicas share
  // one sealed image).
  Result<MsuFile*> InstallImage(const std::string& name, std::shared_ptr<const IbTreeFile> image,
                                bool striped, int preferred_disk = -1);

  size_t disk_count() const { return volumes_.size(); }
  Volume& volume(size_t i) { return *volumes_.at(i); }
  Bytes TotalFreeSpace() const;
  std::vector<std::string> ListFiles() const;

  // Metadata persistence. The file table is "entirely cached in main
  // memory" (§2.3.3); mutations mark it dirty and FlushMetadata writes the
  // serialized, checksummed table to disk 0's reserved metadata block.
  std::vector<std::byte> SerializeFileTable() const;
  static Result<std::vector<std::string>> ParseFileTableNames(const std::vector<std::byte>& bytes);
  bool metadata_dirty() const { return metadata_dirty_; }
  int64_t metadata_flushes() const { return metadata_flushes_; }
  Co<Status> FlushMetadata();

  // Fault injection: marks one on-disk page as corrupt; the next ReadPage of
  // it fails the record-table checksum with kDataLoss.
  void CorruptPageForTesting(MsuFile* file, size_t page_index);

 private:
  Result<BlockAddr> AllocateForPage(MsuFile* file, int64_t page_index);
  int EmptiestDisk() const;

  std::vector<std::unique_ptr<Volume>> volumes_;
  std::map<std::string, std::unique_ptr<MsuFile>> files_;
  bool metadata_dirty_ = false;
  int64_t metadata_flushes_ = 0;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_FS_MSU_FS_H_
