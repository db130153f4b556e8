// Tests for the MSU user-level file system (§2.3.3).
#include <gtest/gtest.h>

#include "src/fs/msu_fs.h"
#include "src/hw/machine.h"
#include "src/media/sources.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

struct FsFixture {
  Simulator sim;
  MachineParams params;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<MsuFileSystem> fs;

  explicit FsFixture(std::vector<int> disks_per_hba = {2}) {
    params = MicronP66();
    params.disks_per_hba = std::move(disks_per_hba);
    machine = std::make_unique<Machine>(sim, params, "msu");
    std::vector<Disk*> disks;
    for (size_t i = 0; i < machine->disk_count(); ++i) {
      disks.push_back(&machine->disk(i));
    }
    fs = std::make_unique<MsuFileSystem>(std::move(disks));
  }

  std::shared_ptr<const IbTreeFile> MakeImage(SimTime duration) {
    IbTreeBuilder builder;
    for (const MediaPacket& packet : GenerateCbr(CbrSourceConfig{}, duration)) {
      (void)builder.Add(packet);
    }
    return std::make_shared<const IbTreeFile>(builder.Finish());
  }
};

TEST(VolumeTest, AllocatesSequentiallyAndFrees) {
  Simulator sim;
  MachineParams params = MicronP66();
  params.disks_per_hba = {1};
  Machine machine(sim, params, "m");
  Volume volume(machine.disk(0));
  EXPECT_EQ(volume.total_blocks(), 8192);  // 2 GiB / 256 KiB
  auto a = volume.AllocateBlock();
  auto b = volume.AllocateBlock();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*b, *a + 1);  // next-fit: sequential files stay contiguous
  volume.FreeBlock(*a);
  EXPECT_EQ(volume.free_blocks(), volume.total_blocks() - 1);
}

TEST(VolumeTest, ReservationLimitsNewReservations) {
  Simulator sim;
  MachineParams params = MicronP66();
  params.disks_per_hba = {1};
  Machine machine(sim, params, "m");
  Volume volume(machine.disk(0));
  ASSERT_TRUE(volume.Reserve(volume.total_blocks()).ok());
  EXPECT_EQ(volume.Reserve(1).code(), StatusCode::kResourceExhausted);
  volume.Unreserve(10);
  EXPECT_TRUE(volume.Reserve(10).ok());
}

TEST(FsTest, CreateLookupDelete) {
  FsFixture fx;
  auto file = fx.fs->Create("movie", Bytes::MiB(10), false);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(fx.fs->Lookup("movie").ok());
  EXPECT_EQ(fx.fs->Create("movie", Bytes::MiB(1), false).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(fx.fs->Delete("movie").ok());
  EXPECT_EQ(fx.fs->Lookup("movie").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(fx.fs->Delete("movie").code(), StatusCode::kNotFound);
}

TEST(FsTest, CreateReservesSpaceAndDeleteReturnsIt) {
  FsFixture fx({1});
  const Bytes before = fx.fs->TotalFreeSpace();
  auto file = fx.fs->Create("movie", Bytes::MiB(100), false);
  ASSERT_TRUE(file.ok());
  EXPECT_EQ((before - fx.fs->TotalFreeSpace()).count(), Bytes::MiB(100).count());
  ASSERT_TRUE(fx.fs->Delete("movie").ok());
  EXPECT_EQ(fx.fs->TotalFreeSpace(), before);
}

TEST(FsTest, CreateFailsWhenDiskFull) {
  FsFixture fx({1});
  auto big = fx.fs->Create("big", Bytes::GiB(2) - kDataPageSize, false);  // all but the metadata block
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(fx.fs->Create("more", Bytes::MiB(1), false).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(FsTest, InstallImageMakesContentReadable) {
  FsFixture fx;
  auto image = fx.MakeImage(SimTime::Seconds(30));
  const size_t pages = image->page_count();
  auto file = fx.fs->InstallImage("movie", std::move(image), false, 0);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->committed());
  EXPECT_EQ((*file)->pages_written(), pages);

  CoResult<Result<const DataPage*>> page;
  Collect(fx.fs->ReadPage(*file, 0), &page);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return page.done(); }, SimTime::Seconds(2)));
  ASSERT_TRUE(page.value->ok());
  EXPECT_NE((**page.value)->record_count(), 0u);
}

TEST(FsTest, ReadPageOutOfRangeFails) {
  FsFixture fx;
  auto file = fx.fs->InstallImage("movie", fx.MakeImage(SimTime::Seconds(5)), false, 0);
  ASSERT_TRUE(file.ok());
  CoResult<Result<const DataPage*>> page;
  Collect(fx.fs->ReadPage(*file, 10000), &page);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return page.done(); }, SimTime::Seconds(2)));
  EXPECT_EQ(page.value->status().code(), StatusCode::kNotFound);
}

TEST(FsTest, WritePagesInOrderThenCommit) {
  FsFixture fx;
  auto image = fx.MakeImage(SimTime::Seconds(10));
  const Bytes estimated = kDataPageSize * static_cast<int64_t>(image->page_count() + 5);
  auto file = fx.fs->Create("rec", estimated, false, 0);
  ASSERT_TRUE(file.ok());

  for (size_t p = 0; p < image->page_count(); ++p) {
    CoResult<Status> wrote;
    Collect(fx.fs->WriteNextPage(*file, static_cast<int64_t>(p)), &wrote);
    ASSERT_TRUE(RunUntil(fx.sim, [&] { return wrote.done(); }, SimTime::Seconds(5)));
    ASSERT_TRUE(wrote.value->ok());
  }
  // Out-of-order write refused.
  CoResult<Status> bad;
  Collect(fx.fs->WriteNextPage(*file, 99), &bad);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return bad.done(); }, SimTime::Seconds(2)));
  EXPECT_EQ(bad.value->code(), StatusCode::kInvalidArgument);

  const Bytes free_before_commit = fx.fs->TotalFreeSpace();
  ASSERT_TRUE(fx.fs->CommitRecording(*file, std::move(image)).ok());
  // The 5-block over-estimate returned to the pool.
  EXPECT_EQ((fx.fs->TotalFreeSpace() - free_before_commit).count(),
            (kDataPageSize * 5).count());
  EXPECT_TRUE((*file)->committed());
  // Double commit refused.
  EXPECT_EQ(fx.fs->CommitRecording(*file, std::make_shared<const IbTreeFile>()).code(),
            StatusCode::kFailedPrecondition);
}

TEST(FsTest, CommitRejectsPageCountMismatch) {
  FsFixture fx;
  auto image = fx.MakeImage(SimTime::Seconds(10));
  auto file = fx.fs->Create("rec", Bytes::MiB(50), false, 0);
  ASSERT_TRUE(file.ok());
  // No pages written but image has pages.
  EXPECT_EQ(fx.fs->CommitRecording(*file, std::move(image)).code(),
            StatusCode::kInvalidArgument);
}

TEST(FsTest, StripedFilesSpreadAcrossDisks) {
  FsFixture fx({2, 2});
  auto file = fx.fs->InstallImage("movie", fx.MakeImage(SimTime::Seconds(60)), /*striped=*/true);
  ASSERT_TRUE(file.ok());
  ASSERT_GE((*file)->blocks().size(), 8u);
  // "consecutive blocks are on 'adjacent' disks"
  for (size_t i = 0; i < (*file)->blocks().size(); ++i) {
    EXPECT_EQ((*file)->blocks()[i].disk, static_cast<int>(i % 4));
  }
}

TEST(FsTest, NonStripedFileStaysOnOneDisk) {
  FsFixture fx({2});
  auto file = fx.fs->InstallImage("movie", fx.MakeImage(SimTime::Seconds(30)), false, 1);
  ASSERT_TRUE(file.ok());
  for (const BlockAddr& addr : (*file)->blocks()) {
    EXPECT_EQ(addr.disk, 1);
  }
}

TEST(FsTest, SequentialReadIsFasterThanScatteredFiles) {
  // Contiguous allocation means a file streams near media rate.
  FsFixture fx({1});
  auto file = fx.fs->InstallImage("movie", fx.MakeImage(SimTime::Seconds(120)), false, 0);
  ASSERT_TRUE(file.ok());
  const size_t pages = (*file)->pages_written();
  const SimTime start = fx.sim.Now();
  bool done = false;
  [](MsuFileSystem* fs, MsuFile* f, size_t n, bool* flag) -> Task {
    for (size_t p = 0; p < n; ++p) {
      co_await fs->ReadPage(f, p);
    }
    *flag = true;
  }(fx.fs.get(), *file, pages, &done);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return done; }, SimTime::Seconds(60)));
  const double seconds = (fx.sim.Now() - start).seconds();
  const double mbps = (kDataPageSize * static_cast<int64_t>(pages)).megabytes() / seconds;
  EXPECT_GT(mbps, 4.5);  // sequential: ~media rate, well above the 3.6 random
}

TEST(FsTest, FileTableSerializationRoundTripsAndDetectsCorruption) {
  FsFixture fx;
  (void)fx.fs->InstallImage("alpha", fx.MakeImage(SimTime::Seconds(5)), false, 0);
  (void)fx.fs->InstallImage("beta", fx.MakeImage(SimTime::Seconds(5)), false, 1);
  auto bytes = fx.fs->SerializeFileTable();
  auto names = MsuFileSystem::ParseFileTableNames(bytes);
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"alpha", "beta"}));
  bytes[4] ^= std::byte{0x1};
  EXPECT_EQ(MsuFileSystem::ParseFileTableNames(bytes).status().code(), StatusCode::kDataLoss);
}

TEST(FsTest, MetadataDirtyTrackingAndFlush) {
  FsFixture fx({1});
  EXPECT_FALSE(fx.fs->metadata_dirty());
  auto file = fx.fs->InstallImage("movie", fx.MakeImage(SimTime::Seconds(5)), false, 0);
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE(fx.fs->metadata_dirty());

  const int64_t ios_before = fx.machine->disk(0).completed();
  CoResult<Status> flushed;
  Collect(fx.fs->FlushMetadata(), &flushed);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return flushed.done(); }, SimTime::Seconds(2)));
  ASSERT_TRUE(flushed.value->ok());
  EXPECT_FALSE(fx.fs->metadata_dirty());
  EXPECT_EQ(fx.fs->metadata_flushes(), 1);
  EXPECT_EQ(fx.machine->disk(0).completed(), ios_before + 1);  // one block write

  // Clean flush is free.
  CoResult<Status> again;
  Collect(fx.fs->FlushMetadata(), &again);
  RunUntil(fx.sim, [&] { return again.done(); }, SimTime::Seconds(2));
  EXPECT_EQ(fx.fs->metadata_flushes(), 1);
  EXPECT_EQ(fx.machine->disk(0).completed(), ios_before + 1);

  // Deleting re-dirties.
  ASSERT_TRUE(fx.fs->Delete("movie").ok());
  EXPECT_TRUE(fx.fs->metadata_dirty());
}

TEST(FsTest, MetadataBlockIsNeverAllocatedToFiles) {
  FsFixture fx({1});
  auto file = fx.fs->InstallImage("movie", fx.MakeImage(SimTime::Seconds(30)), false, 0);
  ASSERT_TRUE(file.ok());
  for (const BlockAddr& addr : (*file)->blocks()) {
    EXPECT_FALSE(addr.disk == 0 && addr.block == 0);
  }
}

}  // namespace
}  // namespace calliope
