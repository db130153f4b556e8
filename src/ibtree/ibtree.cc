#include "src/ibtree/ibtree.h"

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

// The progression test runs value by value in the column type's modular
// arithmetic, so a timestamp run that wraps past 2^32 still counts.
template <typename T>
template <typename Get>
void DataPage::Column<T>::Fit(const std::vector<MediaPacket>& records, Get get,
                              size_t* stored_bytes) {
  using U = std::make_unsigned_t<T>;
  *this = Column{};
  if (records.empty()) {
    return;
  }
  const auto head = static_cast<U>(get(records.front()));
  const auto delta =
      records.size() > 1 ? static_cast<U>(static_cast<U>(get(records[1])) - head) : U{0};
  U expected = head;
  for (const MediaPacket& record : records) {
    if (static_cast<U>(get(record)) != expected) {
      stored_at = static_cast<uint32_t>(*stored_bytes);
      *stored_bytes += records.size() * sizeof(T);
      return;
    }
    expected = static_cast<U>(expected + delta);
  }
  first = static_cast<T>(head);
  step = static_cast<T>(delta);
}

template <typename T>
template <typename Get>
void DataPage::Column<T>::Store(const std::vector<MediaPacket>& records, Get get,
                                std::vector<std::byte>& stored) const {
  if (stored_at == kComputed) {
    return;
  }
  std::byte* out = stored.data() + stored_at;
  for (const MediaPacket& record : records) {
    const auto value = static_cast<T>(get(record));
    std::memcpy(out, &value, sizeof(T));
    out += sizeof(T);
  }
}

void DataPage::Seal(const std::vector<MediaPacket>& records, Bytes payload) {
  count_ = static_cast<uint32_t>(records.size());
  payload_ = static_cast<uint32_t>(payload.count());
  const auto offset = [](const MediaPacket& r) { return r.delivery_offset.nanos(); };
  const auto size = [](const MediaPacket& r) { return r.size.count(); };
  const auto timestamp = [](const MediaPacket& r) { return r.protocol_timestamp; };
  const auto flags = [](const MediaPacket& r) { return r.flags; };
  // Fit every column first, so the stored ones take one exact allocation.
  size_t stored_bytes = 0;
  offsets_.Fit(records, offset, &stored_bytes);
  sizes_.Fit(records, size, &stored_bytes);
  timestamps_.Fit(records, timestamp, &stored_bytes);
  flags_.Fit(records, flags, &stored_bytes);
  stored_ = std::vector<std::byte>(stored_bytes);
  offsets_.Store(records, offset, stored_);
  sizes_.Store(records, size, stored_);
  timestamps_.Store(records, timestamp, stored_);
  flags_.Store(records, flags, stored_);
}

MediaPacket DataPage::record(size_t i) const {
  assert(i < count_);
  MediaPacket packet;
  packet.delivery_offset = delivery_offset(i);
  packet.size = Bytes(sizes_.At(stored_, i));
  packet.flags = flags_.At(stored_, i);
  packet.protocol_timestamp = timestamps_.At(stored_, i);
  return packet;
}

size_t DataPage::LowerBound(SimTime target) const {
  size_t lo = 0;
  size_t hi = count_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (delivery_offset(mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Bytes DataPage::fill_bytes() const {
  Bytes fill =
      kDataPageHeaderSize + payload_bytes() + kRecordOverhead * static_cast<int64_t>(count_);
  if (embedded_internal.has_value()) {
    fill += kInternalPageSize;
  }
  return fill;
}

size_t DataPage::heap_bytes() const {
  return stored_.capacity() + (embedded_internal.has_value() ? embedded_internal->capacity() : 0);
}

SimTime IbTreeFile::duration() const {
  if (pages_.empty()) {
    return SimTime();
  }
  // Trailer pages hold no records; scan back for the last page with records.
  for (auto it = pages_.rbegin(); it != pages_.rend(); ++it) {
    if (it->record_count() != 0) {
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
    count += static_cast<int64_t>(page.record_count());
  }
  return count;
}

size_t IbTreeFile::resident_bytes() const {
  size_t bytes = sizeof(IbTreeFile) + pages_.capacity() * sizeof(DataPage) +
                 root_.capacity() * sizeof(InternalEntry);
  for (const auto& page : pages_) {
    bytes += page.heap_bytes();
  }
  return bytes;
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
  result.page_index = static_cast<size_t>(leaf.child_page);
  result.record_index = page.LowerBound(target);
  if (result.record_index == page.record_count()) {
    // Target falls between this page's last record and the next page's
    // first; advance to the next page with records.
    for (size_t next = result.page_index + 1; next < pages_.size(); ++next) {
      if (pages_[next].record_count() != 0) {
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
  if (packet.size < Bytes(0)) {
    return InvalidArgumentError("negative packet size");
  }
  if (packet.size + kRecordOverhead + kDataPageHeaderSize + kInternalPageSize > kDataPageSize) {
    return InvalidArgumentError("packet larger than a data page");
  }
  if (packet.flags > 0xFF) {
    return InvalidArgumentError("packet flags wider than 8 bits");
  }
  last_offset_ = packet.delivery_offset;
  // Running fill of the open page, the same sum DataPage::fill_bytes makes
  // once the page is sealed.
  Bytes fill = kDataPageHeaderSize + open_payload_ +
               kRecordOverhead * static_cast<int64_t>(open_records_.size());
  if (current_.embedded_internal.has_value()) {
    fill += kInternalPageSize;
  }
  if (current_dirty_ && fill + kRecordOverhead + packet.size > kDataPageSize) {
    CloseDataPage();
  }
  open_records_.push_back(packet);
  open_payload_ += packet.size;
  current_dirty_ = true;
  return OkStatus();
}

void IbTreeBuilder::CloseDataPage() {
  current_.index = static_cast<int64_t>(file_.pages_.size());
  current_.Seal(open_records_, open_payload_);
  open_records_.clear();
  open_payload_ = Bytes();
  const bool had_records = current_.record_count() != 0;
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
