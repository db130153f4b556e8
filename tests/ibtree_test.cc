// Unit and property tests for the Integrated B-tree (§2.2.1).
#include <gtest/gtest.h>

#include <algorithm>

#include "src/ibtree/ibtree.h"
#include "src/media/mpeg.h"
#include "src/media/sources.h"
#include "src/util/rng.h"

namespace calliope {
namespace {

PacketSequence CbrPackets(SimTime duration) { return GenerateCbr(CbrSourceConfig{}, duration); }

IbTreeFile Build(const PacketSequence& packets) {
  IbTreeBuilder builder;
  for (const MediaPacket& packet : packets) {
    EXPECT_TRUE(builder.Add(packet).ok());
  }
  return builder.Finish();
}

// Constant-rate MPEG-1 content as the installation loads it: 4 KB packets,
// the last one short.
PacketSequence MpegPackets(SimTime duration) {
  return PacketizeCbr(EncodeMpeg(MpegEncoderConfig{}, duration, /*seed=*/7), Bytes::KiB(4));
}

std::vector<MediaPacket> PageRecords(const DataPage& page) {
  std::vector<MediaPacket> records;
  for (size_t r = 0; r < page.record_count(); ++r) {
    records.push_back(page.record(r));
  }
  return records;
}

// Every record read back from the sealed pages equals its input packet,
// field by field, and every page's record table encodes to the same bytes
// as the input packets it holds.
void ExpectRecordsMatch(const IbTreeFile& file, const PacketSequence& packets) {
  size_t next = 0;
  for (size_t p = 0; p < file.page_count(); ++p) {
    const DataPage& page = file.page(p);
    ASSERT_LE(next + page.record_count(), packets.size()) << "page " << p;
    const auto begin = packets.begin() + static_cast<std::ptrdiff_t>(next);
    const std::vector<MediaPacket> input(
        begin, begin + static_cast<std::ptrdiff_t>(page.record_count()));
    for (size_t r = 0; r < page.record_count(); ++r) {
      const MediaPacket got = page.record(r);
      const MediaPacket& want = input[r];
      ASSERT_EQ(got.delivery_offset, want.delivery_offset) << "page " << p << " record " << r;
      ASSERT_EQ(page.delivery_offset(r), want.delivery_offset) << "page " << p << " record " << r;
      ASSERT_EQ(got.size, want.size) << "page " << p << " record " << r;
      ASSERT_EQ(got.flags, want.flags) << "page " << p << " record " << r;
      ASSERT_EQ(got.protocol_timestamp, want.protocol_timestamp)
          << "page " << p << " record " << r;
    }
    ASSERT_EQ(EncodeRecordTable(PageRecords(page)), EncodeRecordTable(input)) << "page " << p;
    next += page.record_count();
  }
  EXPECT_EQ(next, packets.size());
  EXPECT_EQ(file.record_count(), static_cast<int64_t>(packets.size()));
  EXPECT_EQ(file.total_payload(), TotalBytes(packets));
}

// Seeded irregular content: every column of most pages breaks the
// progression somewhere.
PacketSequence IrregularPackets(uint64_t seed, size_t count) {
  Rng rng(seed);
  PacketSequence packets;
  SimTime offset;
  for (size_t i = 0; i < count; ++i) {
    MediaPacket packet;
    // Mostly regular spacing, with 1-2 ns steps and gaps longer than a
    // 32-bit nanosecond count (4.29 s).
    const uint64_t kind = rng.NextBelow(20);
    if (kind == 0) {
      offset = offset + SimTime::Seconds(rng.NextInRange(5, 60));
    } else if (kind == 1) {
      offset = offset + SimTime::Nanos(rng.NextInRange(1, 2));
    } else {
      offset = offset + SimTime::Millis(20);
    }
    packet.delivery_offset = offset;
    packet.size = Bytes(rng.NextInRange(1, 8) * 512);
    packet.flags = static_cast<uint32_t>(rng.NextBelow(0x100));
    packet.protocol_timestamp = static_cast<uint32_t>(rng.NextU64());
    packets.push_back(packet);
  }
  return packets;
}

// A fixed-rate run of `count` packets: every column a progression.
PacketSequence RegularPackets(size_t count) {
  PacketSequence packets;
  for (size_t i = 0; i < count; ++i) {
    MediaPacket packet;
    packet.delivery_offset = SimTime::Millis(20) * static_cast<int64_t>(i);
    packet.size = Bytes(4096);
    packet.flags = kPacketFrameStart;
    packet.protocol_timestamp = static_cast<uint32_t>(1800 * i);
    packets.push_back(packet);
  }
  return packets;
}

TEST(IbTreeTest, EmptyFileHasNoPages) {
  IbTreeBuilder builder;
  IbTreeFile file = builder.Finish();
  EXPECT_EQ(file.page_count(), 0u);
  EXPECT_FALSE(file.Seek(SimTime()).ok());
}

TEST(IbTreeTest, SinglePacketFile) {
  IbTreeBuilder builder;
  MediaPacket packet;
  packet.delivery_offset = SimTime::Millis(5);
  packet.size = Bytes(1000);
  ASSERT_TRUE(builder.Add(packet).ok());
  IbTreeFile file = builder.Finish();
  EXPECT_EQ(file.page_count(), 1u);
  EXPECT_EQ(file.record_count(), 1);
  auto seek = file.Seek(SimTime::Millis(1));
  ASSERT_TRUE(seek.ok());
  EXPECT_EQ(seek->page_index, 0u);
  EXPECT_EQ(seek->record_index, 0u);
}

TEST(IbTreeTest, RejectsOutOfOrderPackets) {
  IbTreeBuilder builder;
  MediaPacket packet;
  packet.delivery_offset = SimTime::Millis(10);
  packet.size = Bytes(100);
  ASSERT_TRUE(builder.Add(packet).ok());
  packet.delivery_offset = SimTime::Millis(5);
  EXPECT_EQ(builder.Add(packet).code(), StatusCode::kInvalidArgument);
}

TEST(IbTreeTest, RejectsOversizedPacket) {
  IbTreeBuilder builder;
  MediaPacket packet;
  packet.size = kDataPageSize;  // cannot fit beside header + internal reserve
  EXPECT_EQ(builder.Add(packet).code(), StatusCode::kInvalidArgument);
}

TEST(IbTreeTest, PagesRespectCapacity) {
  IbTreeFile file = Build(CbrPackets(SimTime::Seconds(120)));
  ASSERT_GT(file.page_count(), 1u);
  for (size_t p = 0; p < file.page_count(); ++p) {
    EXPECT_LE(file.page(p).fill_bytes().count(), kDataPageSize.count());
  }
}

TEST(IbTreeTest, PacketsPerPageMatchPaperArithmetic) {
  // "a 256 KByte buffer contains only about one second of 1.5 Mbit/sec
  // MPEG-1 video" — about 63 four-KB packets per page.
  IbTreeFile file = Build(CbrPackets(SimTime::Seconds(60)));
  const DataPage& page = file.page(0);
  EXPECT_GE(page.record_count(), 60u);
  EXPECT_LE(page.record_count(), 66u);
  EXPECT_NEAR(page.last_offset().seconds() - page.first_offset().seconds(), 1.37, 0.15);
}

TEST(IbTreeTest, RecordsTotalPreserved) {
  const PacketSequence packets = CbrPackets(SimTime::Seconds(90));
  IbTreeFile file = Build(packets);
  EXPECT_EQ(file.record_count(), static_cast<int64_t>(packets.size()));
  EXPECT_EQ(file.total_payload(), TotalBytes(packets));
  EXPECT_EQ(file.duration(), packets.back().delivery_offset);
}

TEST(IbTreeTest, SequentialScanYieldsDeliveryOrder) {
  IbTreeFile file = Build(GenerateVbr(Graph2File(0), SimTime::Seconds(60)));
  SimTime last = SimTime::Nanos(-1);
  for (size_t p = 0; p < file.page_count(); ++p) {
    for (size_t r = 0; r < file.page(p).record_count(); ++r) {
      EXPECT_GE(file.page(p).delivery_offset(r), last);
      last = file.page(p).delivery_offset(r);
    }
  }
}

TEST(IbTreeTest, InternalPageRoundTrip) {
  std::vector<InternalEntry> entries;
  for (int i = 0; i < 700; ++i) {
    entries.push_back(InternalEntry{i * 1000, i});
  }
  auto encoded = EncodeInternalPage(entries);
  EXPECT_EQ(encoded.size(), static_cast<size_t>(kInternalPageSize.count()));
  auto decoded = DecodeInternalPage(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*decoded)[i].first_offset_ns, entries[i].first_offset_ns);
    EXPECT_EQ((*decoded)[i].child_page, entries[i].child_page);
  }
}

TEST(IbTreeTest, CorruptInternalPageDetected) {
  std::vector<InternalEntry> entries = {{0, 0}, {100, 1}};
  auto encoded = EncodeInternalPage(entries);
  encoded[10] = static_cast<std::byte>(0xFF);
  auto decoded = DecodeInternalPage(encoded);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss);
}

TEST(IbTreeTest, TruncatedInternalPageDetected) {
  std::vector<InternalEntry> entries = {{0, 0}};
  auto encoded = EncodeInternalPage(entries);
  encoded.resize(8);
  EXPECT_FALSE(DecodeInternalPage(encoded).ok());
}

TEST(IbTreeTest, LargeFileGrowsTreeAndEmbedsInternalPages) {
  // A two-hour movie: ~5300 data pages => second-level tree, several
  // embedded internal pages, fraction near the paper's 0.1%.
  IbTreeFile file = Build(CbrPackets(SimTime::Seconds(7200)));
  EXPECT_GT(file.page_count(), 5000u);
  EXPECT_EQ(file.height(), 2);
  EXPECT_GE(file.internal_page_count(), 5u);
  EXPECT_LT(file.internal_page_fraction(), 0.0021);  // "0.1% of the data pages"
  EXPECT_GT(file.internal_page_fraction(), 0.0005);
}

TEST(IbTreeTest, SeekPastEndFails) {
  IbTreeFile file = Build(CbrPackets(SimTime::Seconds(10)));
  EXPECT_EQ(file.Seek(SimTime::Seconds(11)).status().code(), StatusCode::kNotFound);
}

TEST(IbTreeTest, SeekOnSmallFileTouchesNoInternalPages) {
  IbTreeFile file = Build(CbrPackets(SimTime::Seconds(60)));
  auto seek = file.Seek(SimTime::Seconds(30));
  ASSERT_TRUE(seek.ok());
  EXPECT_TRUE(seek->internal_pages_read.empty());  // root is cached in memory
}

TEST(IbTreeTest, SeekOnLargeFileReadsOneInternalPage) {
  IbTreeFile file = Build(CbrPackets(SimTime::Seconds(7200)));
  auto seek = file.Seek(SimTime::Seconds(3600));
  ASSERT_TRUE(seek.ok());
  EXPECT_EQ(seek->internal_pages_read.size(), 1u);
}

TEST(IbTreeTest, RejectsFlagsWiderThanEightBits) {
  IbTreeBuilder builder;
  MediaPacket packet;
  packet.size = Bytes(100);
  packet.flags = 0xFF;
  ASSERT_TRUE(builder.Add(packet).ok());
  packet.flags = 0x100;
  EXPECT_EQ(builder.Add(packet).code(), StatusCode::kInvalidArgument);
}

TEST(IbTreeColumnsTest, IrregularSequencesRoundTrip) {
  for (uint64_t seed : {1, 2, 3, 42, 1996}) {
    SCOPED_TRACE(seed);
    const PacketSequence packets = IrregularPackets(seed, 3000);
    ExpectRecordsMatch(Build(packets), packets);
  }
}

TEST(IbTreeColumnsTest, GapLongerThanFourSecondsInsidePage) {
  PacketSequence packets = RegularPackets(40);
  for (size_t i = 20; i < packets.size(); ++i) {
    packets[i].delivery_offset = packets[i].delivery_offset + SimTime::Millis(4300);
    if (i >= 30) {
      packets[i].delivery_offset = packets[i].delivery_offset + SimTime::Seconds(3600);
    }
  }
  const IbTreeFile file = Build(packets);
  ASSERT_EQ(file.page_count(), 1u);
  ExpectRecordsMatch(file, packets);
}

TEST(IbTreeColumnsTest, ProgressionBrokenByOneNanosecond) {
  PacketSequence packets = RegularPackets(50);
  packets[17].delivery_offset = packets[17].delivery_offset + SimTime::Nanos(1);
  ExpectRecordsMatch(Build(packets), packets);
  packets = RegularPackets(50);
  packets.back().delivery_offset = packets.back().delivery_offset - SimTime::Nanos(1);
  ExpectRecordsMatch(Build(packets), packets);
}

TEST(IbTreeColumnsTest, SizeDiffersOnlyInLastRecord) {
  PacketSequence packets = RegularPackets(50);
  packets.back().size = Bytes(700);
  const IbTreeFile file = Build(packets);
  ExpectRecordsMatch(file, packets);
  EXPECT_EQ(file.page(0).payload_bytes(), TotalBytes(packets));
}

TEST(IbTreeColumnsTest, TimestampsWrap) {
  // A progression that wraps past 2^32 stays a progression; a wrap that
  // breaks the step is stored.
  PacketSequence packets = RegularPackets(50);
  for (size_t i = 0; i < packets.size(); ++i) {
    packets[i].protocol_timestamp = 0xFFFFF000u + static_cast<uint32_t>(1800 * i);
  }
  ExpectRecordsMatch(Build(packets), packets);
  packets[25].protocol_timestamp = 3;
  ExpectRecordsMatch(Build(packets), packets);
}

TEST(IbTreeColumnsTest, MixedFlags) {
  PacketSequence packets = RegularPackets(50);
  for (size_t i = 0; i < packets.size(); i += 3) {
    packets[i].flags = kPacketKeyframe | kPacketFrameStart;
    if (i % 2 == 0) {
      packets[i].flags |= kPacketControl;
    }
  }
  packets.back().flags = 0xFF;
  ExpectRecordsMatch(Build(packets), packets);
}

TEST(IbTreeColumnsTest, VbrFileRoundTrips) {
  const PacketSequence packets = GenerateVbr(Graph2File(1), SimTime::Seconds(120));
  ExpectRecordsMatch(Build(packets), packets);
}

TEST(IbTreeColumnsTest, PacketizedCbrFileRoundTrips) {
  const PacketSequence packets = MpegPackets(SimTime::Seconds(215));
  ASSERT_LT(packets.back().size, Bytes::KiB(4));  // the short last packet
  ExpectRecordsMatch(Build(packets), packets);
}

TEST(IbTreeColumnsTest, ConstantRateImageCostsAtMostEightBytesPerRecord) {
  // 24-byte records in a vector cost 24 B each; a constant-rate page
  // computes offsets and sizes and stores only flags and timestamps.
  const IbTreeFile file = Build(MpegPackets(SimTime::Seconds(215)));
  const double per_record =
      static_cast<double>(file.resident_bytes()) / static_cast<double>(file.record_count());
  EXPECT_LE(per_record, 8.0) << file.resident_bytes() << " B for " << file.record_count()
                             << " records";
}

// Seek agrees with a linear scan over the original packets at and around
// every page's first, middle and last record.
void ExpectSeekMatchesLinearScan(const PacketSequence& packets) {
  const IbTreeFile file = Build(packets);
  std::vector<size_t> first_global(file.page_count() + 1, 0);
  for (size_t p = 0; p < file.page_count(); ++p) {
    first_global[p + 1] = first_global[p] + file.page(p).record_count();
  }
  std::vector<SimTime> targets;
  for (size_t p = 0; p < file.page_count(); ++p) {
    const DataPage& page = file.page(p);
    if (page.record_count() == 0) {
      continue;
    }
    for (size_t r : {size_t{0}, page.record_count() / 2, page.record_count() - 1}) {
      const SimTime at = page.delivery_offset(r);
      targets.push_back(at - SimTime::Nanos(1));
      targets.push_back(at);
      targets.push_back(at + SimTime::Nanos(1));
    }
  }
  std::sort(targets.begin(), targets.end());
  size_t scan = 0;  // first packet at or after the target (targets ascend)
  for (SimTime target : targets) {
    while (scan < packets.size() && packets[scan].delivery_offset < target) {
      ++scan;
    }
    auto seek = file.Seek(target);
    if (scan == packets.size()) {
      EXPECT_EQ(seek.status().code(), StatusCode::kNotFound) << target.ToString();
      continue;
    }
    ASSERT_TRUE(seek.ok()) << target.ToString() << ": " << seek.status().ToString();
    ASSERT_EQ(first_global[seek->page_index] + seek->record_index, scan) << target.ToString();
  }
}

TEST(IbTreeColumnsTest, SeekMatchesLinearScanOnEveryPage) {
  ExpectSeekMatchesLinearScan(MpegPackets(SimTime::Seconds(215)));
  ExpectSeekMatchesLinearScan(IrregularPackets(11, 4000));
}

TEST(IbTreeColumnsTest, SeekMatchesLinearScanWithEmbeddedInternalPages) {
  const PacketSequence packets = MpegPackets(SimTime::Seconds(7200));
  ASSERT_GT(Build(packets).internal_page_count(), 0u);
  ExpectSeekMatchesLinearScan(packets);
}

TEST(RecordTableTest, RoundTrip) {
  PacketSequence records = CbrPackets(SimTime::Seconds(2));
  records[3].flags = kPacketKeyframe | kPacketFrameStart;
  auto encoded = EncodeRecordTable(records);
  auto decoded = DecodeRecordTable(encoded);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ((*decoded)[i], records[i]) << i;
  }
}

TEST(RecordTableTest, DetectsBitFlipAndTruncation) {
  auto encoded = EncodeRecordTable(CbrPackets(SimTime::Seconds(1)));
  auto flipped = encoded;
  flipped[12] ^= std::byte{0x40};
  EXPECT_EQ(DecodeRecordTable(flipped).status().code(), StatusCode::kDataLoss);
  encoded.resize(encoded.size() / 2);
  EXPECT_EQ(DecodeRecordTable(encoded).status().code(), StatusCode::kDataLoss);
}

// Property: for a sweep of seek targets, the located record is the first one
// at or after the target, and its predecessor (if any) is strictly before.
class IbTreeSeekProperty : public ::testing::TestWithParam<int64_t> {};

TEST_P(IbTreeSeekProperty, SeekFindsFirstRecordAtOrAfterTarget) {
  static const IbTreeFile file = Build(CbrPackets(SimTime::Seconds(3600)));
  const SimTime target = SimTime::Millis(GetParam());
  auto seek = file.Seek(target);
  ASSERT_TRUE(seek.ok()) << target.ToString();
  const DataPage& page = file.page(seek->page_index);
  ASSERT_LT(seek->record_index, page.record_count());
  EXPECT_GE(page.delivery_offset(seek->record_index), target);
  if (seek->record_index > 0) {
    EXPECT_LT(page.delivery_offset(seek->record_index - 1), target);
  } else if (seek->page_index > 0) {
    // Find the previous page holding records.
    for (size_t p = seek->page_index; p-- > 0;) {
      if (file.page(p).record_count() != 0) {
        EXPECT_LT(file.page(p).last_offset(), target);
        break;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeekSweep, IbTreeSeekProperty,
                         ::testing::Values(0, 1, 17, 999, 10000, 59999, 600000, 1800000, 2345678,
                                           3599000, 3599900));

}  // namespace
}  // namespace calliope
