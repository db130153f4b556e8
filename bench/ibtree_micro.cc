// Micro-benchmarks for the Integrated B-tree (§2.2.1), using
// google-benchmark: build throughput, sequential-scan cost with and without
// embedded internal pages, and seek cost. Also verifies the paper's claim
// that internal pages appear in ~0.1% of data pages, and reports the
// in-memory bytes per record of a constant-rate and a variable-rate image
// (the `bytes_per_record` counter), so a page-layout change shows its
// memory effect here.
#include <benchmark/benchmark.h>

#include "src/ibtree/ibtree.h"
#include "src/media/mpeg.h"
#include "src/media/sources.h"

namespace calliope {
namespace {

PacketSequence MakeCbrPackets(SimTime duration) {
  return GenerateCbr(CbrSourceConfig{}, duration);
}

IbTreeFile BuildFile(const PacketSequence& packets) {
  IbTreeBuilder builder;
  for (const MediaPacket& packet : packets) {
    (void)builder.Add(packet);
  }
  return builder.Finish();
}

// Content the installation loads: packetized MPEG-1 (4 KB packets, frame
// flags, 90 kHz timestamps) and an NV-like variable-rate file.
PacketSequence MakeMpegPackets(SimTime duration) {
  return PacketizeCbr(EncodeMpeg(MpegEncoderConfig{}, duration, /*seed=*/7), Bytes::KiB(4));
}

PacketSequence MakeVbrPackets(SimTime duration) {
  return GenerateVbr(Graph2File(0), duration);
}

void ReportBytesPerRecord(benchmark::State& state, const IbTreeFile& file) {
  state.counters["bytes_per_record"] =
      static_cast<double>(file.resident_bytes()) / static_cast<double>(file.record_count());
  state.counters["pages"] = static_cast<double>(file.page_count());
}

void BM_IbTreeBuild(benchmark::State& state) {
  const PacketSequence packets = MakeCbrPackets(SimTime::Seconds(state.range(0)));
  for (auto _ : state) {
    IbTreeFile file = BuildFile(packets);
    benchmark::DoNotOptimize(file.page_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_IbTreeBuild)->Arg(60)->Arg(600);

// Build throughput and resident bytes per record for the two content kinds:
// the constant-rate image computes offsets and sizes, the variable-rate one
// stores its delivery schedule.
void BM_IbTreeBuildContent(benchmark::State& state, PacketSequence (*make)(SimTime)) {
  const PacketSequence packets = make(SimTime::Seconds(215));
  for (auto _ : state) {
    IbTreeFile file = BuildFile(packets);
    benchmark::DoNotOptimize(file.page_count());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(packets.size()));
  ReportBytesPerRecord(state, BuildFile(packets));
}
BENCHMARK_CAPTURE(BM_IbTreeBuildContent, mpeg, &MakeMpegPackets);
BENCHMARK_CAPTURE(BM_IbTreeBuildContent, vbr, &MakeVbrPackets);

// Playback's access pattern: every record of every page, in order, read
// back from the columns.
void BM_IbTreeSequentialScan(benchmark::State& state) {
  const IbTreeFile file = BuildFile(MakeMpegPackets(SimTime::Seconds(600)));
  for (auto _ : state) {
    int64_t records = 0;
    Bytes payload;
    for (size_t p = 0; p < file.page_count(); ++p) {
      // Sequential reads take internal pages in as part of the data page but
      // ignore them — no decode on this path.
      const DataPage& page = file.page(p);
      for (size_t r = 0; r < page.record_count(); ++r) {
        payload += page.record(r).size;
      }
      records += static_cast<int64_t>(page.record_count());
    }
    benchmark::DoNotOptimize(records);
    benchmark::DoNotOptimize(payload.count());
  }
  state.SetItemsProcessed(state.iterations() * file.record_count());
  ReportBytesPerRecord(state, file);
}
BENCHMARK(BM_IbTreeSequentialScan);

void BM_IbTreeSeek(benchmark::State& state) {
  const IbTreeFile file = BuildFile(MakeCbrPackets(SimTime::Seconds(state.range(0))));
  const SimTime duration = file.duration();
  uint64_t x = 12345;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const SimTime target = SimTime(static_cast<int64_t>(x % static_cast<uint64_t>(
                                        duration.nanos() > 0 ? duration.nanos() : 1)));
    auto result = file.Seek(target);
    benchmark::DoNotOptimize(result.ok());
  }
  state.SetLabel("height=" + std::to_string(file.height()));
}
BENCHMARK(BM_IbTreeSeek)->Arg(60)->Arg(3600);

void BM_InternalPageEncodeDecode(benchmark::State& state) {
  std::vector<InternalEntry> entries;
  for (size_t i = 0; i < kMaxInternalEntries; ++i) {
    entries.push_back(InternalEntry{static_cast<int64_t>(i) * 1000000, static_cast<int64_t>(i)});
  }
  for (auto _ : state) {
    auto encoded = EncodeInternalPage(entries);
    auto decoded = DecodeInternalPage(encoded);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_InternalPageEncodeDecode);

// Not a timing benchmark: checks the 0.1% embedded-internal-page claim on a
// two-hour-movie-sized file and reports it as a counter.
void BM_InternalPageFraction(benchmark::State& state) {
  const IbTreeFile file = BuildFile(MakeCbrPackets(SimTime::Seconds(7200)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(file.internal_page_fraction());
  }
  state.counters["pages"] = static_cast<double>(file.page_count());
  state.counters["internal_fraction_pct"] = file.internal_page_fraction() * 100.0;
  // Paper: internal pages "only appear in 0.1% of the data pages".
}
BENCHMARK(BM_InternalPageFraction)->Iterations(1);

}  // namespace
}  // namespace calliope

BENCHMARK_MAIN();
