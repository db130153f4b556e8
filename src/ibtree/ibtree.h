// The Integrated B-tree (IB-tree) of paper §2.2.1.
//
// Calliope stores a recording's delivery schedule interleaved with its data
// in a single file laid out as a primary B-tree keyed by delivery time. A
// sequential scan of the leaf (data) pages yields packets in delivery order;
// seeks traverse the search tree.
//
// The "integrated" variant embeds internal pages inside data pages: "When an
// internal page fills up, it is copied into the current data page instead of
// being written separately on disk." Data pages are 256 KB; internal pages
// are 28 KB holding up to 1024 keys, so internal pages appear in ~0.1% of
// data pages and cost no extra disk transfer on write and no appreciable
// bandwidth on sequential read.
//
// The topmost level of the search tree (at most 1024 entries) lives in the
// file's metadata, which the MSU file system caches entirely in memory.
//
// Bulk payload bytes are accounted logically (the simulated disks carry
// timing, not data); record tables and internal pages serialize to real
// bytes with checksums, and the seek path decodes internal pages.
#ifndef CALLIOPE_SRC_IBTREE_IBTREE_H_
#define CALLIOPE_SRC_IBTREE_IBTREE_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <type_traits>
#include <vector>

#include "src/media/packet.h"
#include "src/util/status.h"
#include "src/util/units.h"

namespace calliope {

inline constexpr Bytes kDataPageSize = Bytes::KiB(256);
inline constexpr Bytes kInternalPageSize = Bytes::KiB(28);
inline constexpr size_t kMaxInternalEntries = 1024;
// Per-record header in the page's record table: delivery offset (8),
// size (4), flags (4), protocol timestamp (4), reserved (4).
inline constexpr Bytes kRecordOverhead = Bytes(24);
inline constexpr Bytes kDataPageHeaderSize = Bytes(64);

// One key -> child reference in the search tree. A child is either a data
// page (leaf level) or an internal page embedded in some data page.
struct InternalEntry {
  int64_t first_offset_ns;  // smallest delivery offset under this child
  int64_t child_page;       // data page index the child lives in
};

// Serialized internal page: header + entries + checksum, exactly
// kInternalPageSize when written to its data page.
std::vector<std::byte> EncodeInternalPage(const std::vector<InternalEntry>& entries);
Result<std::vector<InternalEntry>> DecodeInternalPage(const std::vector<std::byte>& bytes);

// Serialized record table of a data page (the on-disk header region):
// per-record delivery offset, size, flags and protocol timestamp, with a
// checksum. The byte format fixes what a page costs on disk (kRecordOverhead
// per record); the in-memory page keeps the same fields by column instead.
// Playback does not decode it: MsuFileSystem::ReadPage fails a page only if
// it is on the file's corrupt-page list.
std::vector<std::byte> EncodeRecordTable(const std::vector<MediaPacket>& records);
Result<std::vector<MediaPacket>> DecodeRecordTable(const std::vector<std::byte>& bytes);

// One data page of a sealed image. Its records are held by column (delivery
// offset, size, flags, protocol timestamp), sealed when the builder closes
// the page. A column whose values form an exact integer arithmetic
// progression keeps only (first, step): that is the computed delivery
// schedule of constant-rate content, and the constant sizes of all but a
// file's last page. Any other column is stored in `stored_` in the narrowest
// type the builder accepts: int64 offsets, uint32 sizes and timestamps,
// uint8 flags.
class DataPage {
 public:
  int64_t index = 0;
  // Serialized internal page embedded in this data page, if any.
  std::optional<std::vector<std::byte>> embedded_internal;
  // Which tree level the embedded page belongs to (0 = leaf directory).
  int embedded_level = -1;

  size_t record_count() const { return count_; }
  MediaPacket record(size_t i) const;
  SimTime delivery_offset(size_t i) const { return SimTime(offsets_.At(stored_, i)); }
  // Index of the first record with delivery_offset >= target, or
  // record_count() if there is none.
  size_t LowerBound(SimTime target) const;

  Bytes payload_bytes() const { return Bytes(payload_); }
  Bytes fill_bytes() const;  // header + record table + payload + embedded
  SimTime first_offset() const { return count_ == 0 ? SimTime() : delivery_offset(0); }
  SimTime last_offset() const { return count_ == 0 ? SimTime() : delivery_offset(count_ - 1); }
  // Heap bytes the page owns: stored columns and embedded internal page.
  size_t heap_bytes() const;

 private:
  friend class IbTreeBuilder;

  // (first, step) when the column is a progression; otherwise `stored_at`
  // is the byte offset of its values in `stored_`.
  template <typename T>
  struct Column {
    static constexpr uint32_t kComputed = UINT32_MAX;
    T first{};
    T step{};
    uint32_t stored_at = kComputed;

    T At(const std::vector<std::byte>& stored, size_t i) const {
      using U = std::make_unsigned_t<T>;
      if (stored_at == kComputed) {
        return static_cast<T>(
            static_cast<U>(static_cast<U>(first) + static_cast<U>(step) * static_cast<U>(i)));
      }
      T value{};
      std::memcpy(&value, stored.data() + stored_at + i * sizeof(T), sizeof(T));
      return value;
    }
    // Keeps (first, step) if get(record) is a progression over `records`;
    // otherwise claims the next bytes of the stored buffer (`*stored_bytes`).
    template <typename Get>
    void Fit(const std::vector<MediaPacket>& records, Get get, size_t* stored_bytes);
    // Writes a stored column's values into the (sized) buffer.
    template <typename Get>
    void Store(const std::vector<MediaPacket>& records, Get get,
               std::vector<std::byte>& stored) const;
  };

  // Seals `records` (the page's records, in order) into the columns.
  void Seal(const std::vector<MediaPacket>& records, Bytes payload);

  uint32_t count_ = 0;
  uint32_t payload_ = 0;
  Column<int64_t> offsets_;
  Column<uint32_t> sizes_;
  Column<uint32_t> timestamps_;
  Column<uint8_t> flags_;
  std::vector<std::byte> stored_;
};

// An immutable, fully built IB-tree file image.
class IbTreeFile {
 public:
  struct SeekResult {
    size_t page_index;    // data page holding the target record
    size_t record_index;  // first record with delivery_offset >= target
    // Data pages that had to be read to walk the tree (excluding the leaf);
    // the MSU charges one disk transfer per entry.
    std::vector<int64_t> internal_pages_read;
  };

  size_t page_count() const { return pages_.size(); }
  const DataPage& page(size_t i) const { return pages_.at(i); }
  const std::vector<InternalEntry>& root() const { return root_; }
  int height() const { return height_; }
  SimTime duration() const;
  Bytes total_payload() const;
  int64_t record_count() const;
  size_t internal_page_count() const { return internal_page_count_; }
  // Bytes the image holds in memory: page descriptors, their stored
  // columns and embedded internal pages, and the root.
  size_t resident_bytes() const;
  // Fraction of data pages carrying an embedded internal page (paper: ~0.1%).
  double internal_page_fraction() const;

  // Finds the page/record for the first packet at or after `target`,
  // decoding embedded internal pages along the way. Fails with kDataLoss on
  // checksum mismatch and kNotFound past end of file.
  Result<SeekResult> Seek(SimTime target) const;

 private:
  friend class IbTreeBuilder;
  std::vector<DataPage> pages_;
  std::vector<InternalEntry> root_;
  int height_ = 1;
  size_t internal_page_count_ = 0;
};

// Streaming builder: packets must arrive in non-decreasing delivery order
// (they do — recording appends in arrival order).
class IbTreeBuilder {
 public:
  IbTreeBuilder() = default;

  Status Add(const MediaPacket& packet);
  IbTreeFile Finish();

  // Streaming recording support: pages already closed can be written behind
  // while later packets are still arriving.
  size_t pages_closed() const { return file_.pages_.size(); }
  const DataPage& closed_page(size_t i) const { return file_.pages_.at(i); }

 private:
  void CloseDataPage();
  // Adds a directory entry at `level`, spilling filled internal pages into
  // the current data page.
  void AddEntry(int level, InternalEntry entry);

  IbTreeFile file_;
  // The open page: its records stay a plain vector (reused from page to
  // page) until CloseDataPage seals them into current_'s columns.
  DataPage current_;
  std::vector<MediaPacket> open_records_;
  Bytes open_payload_;
  bool current_dirty_ = false;
  SimTime last_offset_;
  std::vector<std::vector<InternalEntry>> levels_;  // levels_[0] = leaf directory
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_IBTREE_IBTREE_H_
