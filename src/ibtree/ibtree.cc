#include "src/ibtree/ibtree.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace calliope {

namespace {

constexpr uint32_t kInternalMagic = 0x1B7EE000;

uint64_t Fnv1a(const std::byte* data, size_t len) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    hash ^= static_cast<uint64_t>(data[i]);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

template <typename T>
void PutRaw(std::vector<std::byte>& out, const T& value) {
  const auto* p = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <typename T>
bool GetRaw(const std::vector<std::byte>& in, size_t& pos, T& value) {
  if (pos + sizeof(T) > in.size()) {
    return false;
  }
  std::memcpy(&value, in.data() + pos, sizeof(T));
  pos += sizeof(T);
  return true;
}

}  // namespace

std::vector<std::byte> EncodeInternalPage(const std::vector<InternalEntry>& entries) {
  assert(entries.size() <= kMaxInternalEntries);
  std::vector<std::byte> out;
  out.reserve(static_cast<size_t>(kInternalPageSize.count()));
  PutRaw(out, kInternalMagic);
  PutRaw(out, static_cast<uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    PutRaw(out, entry.first_offset_ns);
    PutRaw(out, entry.child_page);
  }
  const uint64_t checksum = Fnv1a(out.data(), out.size());
  PutRaw(out, checksum);
  out.resize(static_cast<size_t>(kInternalPageSize.count()));  // zero padding
  return out;
}

Result<std::vector<InternalEntry>> DecodeInternalPage(const std::vector<std::byte>& bytes) {
  size_t pos = 0;
  uint32_t magic = 0;
  uint32_t count = 0;
  if (!GetRaw(bytes, pos, magic) || magic != kInternalMagic) {
    return DataLossError("internal page: bad magic");
  }
  if (!GetRaw(bytes, pos, count) || count > kMaxInternalEntries) {
    return DataLossError("internal page: bad entry count");
  }
  std::vector<InternalEntry> entries;
  entries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    InternalEntry entry{};
    if (!GetRaw(bytes, pos, entry.first_offset_ns) || !GetRaw(bytes, pos, entry.child_page)) {
      return DataLossError("internal page: truncated entries");
    }
    entries.push_back(entry);
  }
  const uint64_t expected = Fnv1a(bytes.data(), pos);
  uint64_t stored = 0;
  if (!GetRaw(bytes, pos, stored) || stored != expected) {
    return DataLossError("internal page: checksum mismatch");
  }
  return entries;
}

namespace {
constexpr uint32_t kRecordTableMagic = 0x1B7EE0D1;
}  // namespace

std::vector<std::byte> EncodeRecordTable(const std::vector<MediaPacket>& records) {
  std::vector<std::byte> out;
  out.reserve(records.size() * static_cast<size_t>(kRecordOverhead.count()) + 16);
  PutRaw(out, kRecordTableMagic);
  PutRaw(out, static_cast<uint32_t>(records.size()));
  for (const MediaPacket& record : records) {
    PutRaw(out, record.delivery_offset.nanos());
    PutRaw(out, static_cast<uint32_t>(record.size.count()));
    PutRaw(out, record.flags);
    PutRaw(out, record.protocol_timestamp);
  }
  const uint64_t checksum = Fnv1a(out.data(), out.size());
  PutRaw(out, checksum);
  return out;
}

Result<std::vector<MediaPacket>> DecodeRecordTable(const std::vector<std::byte>& bytes) {
  size_t pos = 0;
  uint32_t magic = 0;
  uint32_t count = 0;
  if (!GetRaw(bytes, pos, magic) || magic != kRecordTableMagic) {
    return DataLossError("record table: bad magic");
  }
  if (!GetRaw(bytes, pos, count)) {
    return DataLossError("record table: truncated header");
  }
  std::vector<MediaPacket> records;
  records.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    int64_t offset_ns = 0;
    uint32_t size = 0;
    MediaPacket record;
    if (!GetRaw(bytes, pos, offset_ns) || !GetRaw(bytes, pos, size) ||
        !GetRaw(bytes, pos, record.flags) || !GetRaw(bytes, pos, record.protocol_timestamp)) {
      return DataLossError("record table: truncated entries");
    }
    record.delivery_offset = SimTime(offset_ns);
    record.size = Bytes(size);
    records.push_back(record);
  }
  const uint64_t expected = Fnv1a(bytes.data(), pos);
  uint64_t stored = 0;
  if (!GetRaw(bytes, pos, stored) || stored != expected) {
    return DataLossError("record table: checksum mismatch");
  }
  return records;
}

Bytes DataPage::payload_bytes() const {
  Bytes total;
  for (const auto& record : records) {
    total += record.size;
  }
  return total;
}

Bytes DataPage::fill_bytes() const {
  Bytes fill = kDataPageHeaderSize + payload_bytes() +
               kRecordOverhead * static_cast<int64_t>(records.size());
  if (embedded_internal.has_value()) {
    fill += kInternalPageSize;
  }
  return fill;
}

SimTime IbTreeFile::duration() const {
  if (pages_.empty()) {
    return SimTime();
  }
  // Trailer pages hold no records; scan back for the last page with records.
  for (auto it = pages_.rbegin(); it != pages_.rend(); ++it) {
    if (!it->records.empty()) {
      return it->last_offset();
    }
  }
  return SimTime();
}

Bytes IbTreeFile::total_payload() const {
  Bytes total;
  for (const auto& page : pages_) {
    total += page.payload_bytes();
  }
  return total;
}

int64_t IbTreeFile::record_count() const {
  int64_t count = 0;
  for (const auto& page : pages_) {
    count += static_cast<int64_t>(page.records.size());
  }
  return count;
}

double IbTreeFile::internal_page_fraction() const {
  if (pages_.empty()) {
    return 0.0;
  }
  size_t with_internal = 0;
  for (const auto& page : pages_) {
    if (page.embedded_internal.has_value()) {
      ++with_internal;
    }
  }
  return static_cast<double>(with_internal) / static_cast<double>(pages_.size());
}

Result<IbTreeFile::SeekResult> IbTreeFile::Seek(SimTime target) const {
  if (pages_.empty() || root_.empty()) {
    return NotFoundError("seek in empty file");
  }
  if (target > duration()) {
    return NotFoundError("seek past end of recording");
  }

  auto pick_child = [target](const std::vector<InternalEntry>& entries) {
    // Last entry whose first offset is <= target (or the first entry).
    size_t chosen = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
      if (SimTime(entries[i].first_offset_ns) <= target) {
        chosen = i;
      } else {
        break;
      }
    }
    return entries[chosen];
  };

  SeekResult result;
  std::vector<InternalEntry> const* level_entries = &root_;
  std::vector<InternalEntry> decoded;
  for (int level = height_ - 1; level > 0; --level) {
    const InternalEntry entry = pick_child(*level_entries);
    const auto& holder = pages_.at(static_cast<size_t>(entry.child_page));
    result.internal_pages_read.push_back(entry.child_page);
    if (!holder.embedded_internal.has_value()) {
      return DataLossError("expected embedded internal page in data page " +
                           std::to_string(entry.child_page));
    }
    CALLIOPE_ASSIGN_OR_RETURN(decoded, DecodeInternalPage(*holder.embedded_internal));
    level_entries = &decoded;
    if (level_entries->empty()) {
      return DataLossError("empty internal page");
    }
  }

  const InternalEntry leaf = pick_child(*level_entries);
  const auto& page = pages_.at(static_cast<size_t>(leaf.child_page));
  const auto it = std::lower_bound(
      page.records.begin(), page.records.end(), target,
      [](const MediaPacket& record, SimTime t) { return record.delivery_offset < t; });
  result.page_index = static_cast<size_t>(leaf.child_page);
  result.record_index = static_cast<size_t>(it - page.records.begin());
  if (it == page.records.end()) {
    // Target falls between this page's last record and the next page's
    // first; advance to the next page with records.
    for (size_t next = result.page_index + 1; next < pages_.size(); ++next) {
      if (!pages_[next].records.empty()) {
        result.page_index = next;
        result.record_index = 0;
        return result;
      }
    }
    return NotFoundError("seek past end of recording");
  }
  return result;
}

Status IbTreeBuilder::Add(const MediaPacket& packet) {
  if (packet.delivery_offset < last_offset_) {
    return InvalidArgumentError("packets must be added in delivery order");
  }
  if (packet.size + kRecordOverhead + kDataPageHeaderSize + kInternalPageSize > kDataPageSize) {
    return InvalidArgumentError("packet larger than a data page");
  }
  last_offset_ = packet.delivery_offset;
  const Bytes needed = kRecordOverhead + packet.size;
  if (current_dirty_ && current_.fill_bytes() + needed > kDataPageSize) {
    CloseDataPage();
  }
  current_.records.push_back(packet);
  current_dirty_ = true;
  return OkStatus();
}

void IbTreeBuilder::CloseDataPage() {
  current_.index = static_cast<int64_t>(file_.pages_.size());
  const bool had_records = !current_.records.empty();
  const InternalEntry entry{current_.first_offset().nanos(), current_.index};
  file_.pages_.push_back(std::move(current_));
  current_ = DataPage{};
  current_dirty_ = false;
  if (had_records) {
    AddEntry(0, entry);
  }
}

void IbTreeBuilder::AddEntry(int level, InternalEntry entry) {
  if (static_cast<size_t>(level) >= levels_.size()) {
    levels_.resize(static_cast<size_t>(level) + 1);
  }
  auto& entries = levels_[static_cast<size_t>(level)];
  entries.push_back(entry);
  if (entries.size() < kMaxInternalEntries) {
    return;
  }
  // Level full: copy it into the current (fresh) data page — the integrated
  // write that saves the extra seek — and index it one level up.
  if (current_.embedded_internal.has_value()) {
    // Extremely rare (two levels filling together): flush the open page
    // first so each data page carries at most one internal page.
    CloseDataPage();
  }
  const InternalEntry up{entries.front().first_offset_ns,
                         static_cast<int64_t>(file_.pages_.size())};
  current_.embedded_internal = EncodeInternalPage(entries);
  current_.embedded_level = level;
  current_dirty_ = true;
  ++file_.internal_page_count_;
  entries.clear();
  AddEntry(level + 1, up);
}

IbTreeFile IbTreeBuilder::Finish() {
  if (current_dirty_) {
    CloseDataPage();
  }
  if (levels_.empty()) {
    file_.height_ = 1;
    return std::move(file_);
  }
  // Flush leftover partial levels bottom-up as trailer pages; the topmost
  // level becomes the in-memory root.
  for (size_t level = 0; level + 1 < levels_.size(); ++level) {
    if (levels_[level].empty()) {
      continue;
    }
    DataPage trailer;
    trailer.index = static_cast<int64_t>(file_.pages_.size());
    trailer.embedded_internal = EncodeInternalPage(levels_[level]);
    trailer.embedded_level = static_cast<int>(level);
    ++file_.internal_page_count_;
    const InternalEntry up{levels_[level].front().first_offset_ns, trailer.index};
    file_.pages_.push_back(std::move(trailer));
    levels_[level].clear();
    levels_[level + 1].push_back(up);
  }
  file_.root_ = std::move(levels_.back());
  file_.height_ = static_cast<int>(levels_.size());
  // The sealed image never grows again: drop push_back's capacity slack.
  // (The early return above only sees an image with no pages.)
  file_.pages_.shrink_to_fit();
  return std::move(file_);
}

}  // namespace calliope
