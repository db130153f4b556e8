// MSU-level tests: stream mechanics driven directly through the MSU's
// control surface, without a Coordinator in the loop.
#include <gtest/gtest.h>

#include "src/calliope/calliope.h"
#include "src/msu/msu.h"
#include "src/util/backoff.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

// Harness: one MSU with its node on a network, driven locally.
struct MsuFixture {
  Simulator sim;
  Network network{sim};
  std::unique_ptr<Machine> machine;
  std::unique_ptr<Machine> client_machine;
  NetNode* msu_node;
  NetNode* client_node;
  std::unique_ptr<Msu> msu;

  explicit MsuFixture(MsuParams params = MsuParams()) {
    MachineParams machine_params = MicronP66();
    machine = std::make_unique<Machine>(sim, machine_params, "msu0");
    msu_node = network.AddNode("msu0", machine.get(), /*on_intra=*/true);
    client_machine = std::make_unique<Machine>(sim, DisklessHost(), "client");
    client_node = network.AddNode("client", client_machine.get(), /*on_intra=*/false);
    msu = std::make_unique<Msu>(*machine, *msu_node, params);
  }

  // Installs a movie and returns its record count.
  int64_t InstallCbr(const std::string& name, SimTime duration, int disk) {
    IbTreeBuilder builder;
    for (const MediaPacket& packet : GenerateCbr(CbrSourceConfig{}, duration)) {
      (void)builder.Add(packet);
    }
    IbTreeFile image = builder.Finish();
    const int64_t records = image.record_count();
    EXPECT_TRUE(msu->fs().InstallImage(name, std::move(image), false, disk).ok());
    return records;
  }

  MsuStartStream PlayRequest(const std::string& file, StreamId stream, GroupId group) {
    MsuStartStream request;
    request.group = group;
    request.stream = stream;
    request.file = file;
    request.protocol = "raw-cbr";
    request.rate = DataRate::MegabitsPerSec(1.5);
    request.client_node = "client";
    request.client_udp_port = 9000;
    request.open_control_conn = false;  // drive the stream object directly
    return request;
  }

  // Issues a start request and returns whether the MSU accepted.
  bool Start(const MsuStartStream& request) {
    CoResult<MessageBody> response;
    Collect(msu->HandleStartStream(request), &response);
    RunUntil(sim, [&] { return response.done(); }, SimTime::Seconds(5));
    const auto* ack = std::get_if<MsuStartStreamResponse>(&*response.value);
    return ack != nullptr && ack->ok;
  }
};

TEST(MsuTest, PlaybackDeliversPacketsToClientPort) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(30), 0);
  int64_t received = 0;
  ASSERT_TRUE(fx.client_node->BindUdp(9000, [&](const Datagram&) { ++received; }).ok());
  ASSERT_TRUE(fx.Start(fx.PlayRequest("movie", 1, 1)));
  fx.sim.RunFor(SimTime::Seconds(10));
  EXPECT_NEAR(static_cast<double>(received), 458, 25);  // ~45.8 pkt/s
}

TEST(MsuTest, DoubleBufferingKeepsAtMostTwoPagesAhead) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(60), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  ASSERT_TRUE(fx.Start(fx.PlayRequest("movie", 1, 1)));
  fx.sim.RunFor(SimTime::Seconds(10));
  // ~10 s of playback covers ~7 pages; the disk must not have raced ahead
  // more than the double-buffer depth.
  MsuStream* stream = fx.msu->FindStream(1);
  ASSERT_NE(stream, nullptr);
  const auto pages_read = stream->bytes_moved() / kDataPageSize;
  EXPECT_LE(pages_read, 7 + 2);
  EXPECT_GE(pages_read, 7);
}

TEST(MsuTest, DutyCycleRefusesStreamsBeyondSlotCapacity) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(30), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  const int capacity = fx.msu->duty_cycle().CapacityPerDisk(DataRate::MegabitsPerSec(1.5));
  int admitted = 0;
  for (int i = 0; i < capacity + 3; ++i) {
    if (fx.Start(fx.PlayRequest("movie", 100 + i, 100 + i))) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, capacity);  // the disk's cycle is full
}

TEST(MsuTest, BufferPoolLimitsConcurrentStreams) {
  MsuParams params;
  params.buffer_count = 5;  // room for two streams (2 buffers each) + 1 spare
  MsuFixture fx(params);
  fx.InstallCbr("movie", SimTime::Seconds(30), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  int admitted = 0;
  for (int i = 0; i < 4; ++i) {
    if (fx.Start(fx.PlayRequest("movie", 200 + i, 200 + i))) {
      ++admitted;
    }
  }
  EXPECT_EQ(admitted, 2);
}

TEST(MsuTest, PauseHaltsDiskServiceToo) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(60), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  ASSERT_TRUE(fx.Start(fx.PlayRequest("movie", 1, 1)));
  fx.sim.RunFor(SimTime::Seconds(5));
  MsuStream* stream = fx.msu->FindStream(1);
  ASSERT_NE(stream, nullptr);
  ASSERT_TRUE(stream->Pause().ok());
  const Bytes at_pause = stream->bytes_moved();
  fx.sim.RunFor(SimTime::Seconds(10));
  EXPECT_EQ(stream->bytes_moved(), at_pause);  // paused streams get no slots
  ASSERT_TRUE(stream->Resume().ok());
  fx.sim.RunFor(SimTime::Seconds(5));
  EXPECT_GT(stream->bytes_moved(), at_pause);
}

TEST(MsuTest, SeekChargesInternalPageReads) {
  MsuFixture fx;
  // A two-hour file has a two-level tree: seeks read one internal page.
  fx.InstallCbr("long", SimTime::Seconds(7200), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  ASSERT_TRUE(fx.Start(fx.PlayRequest("long", 1, 1)));
  fx.sim.RunFor(SimTime::Seconds(3));
  MsuStream* stream = fx.msu->FindStream(1);
  const int64_t ios_before = fx.machine->disk(0).completed();
  CoResult<Status> sought;
  Collect(stream->SeekTo(SimTime::Seconds(3600)), &sought);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return sought.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(sought.value->ok());
  // The tree walk performed at least the internal-page read before the
  // playback loop resumed (plus possibly the refill of the target page).
  EXPECT_GE(fx.machine->disk(0).completed(), ios_before + 1);
  fx.sim.RunFor(SimTime::Seconds(2));
  EXPECT_NEAR(stream->CurrentMediaOffset().seconds(), 3602, 3);
}

TEST(MsuTest, QuitReleasesSlotAndBuffers) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(30), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  ASSERT_TRUE(fx.Start(fx.PlayRequest("movie", 1, 1)));
  fx.sim.RunFor(SimTime::Seconds(2));
  EXPECT_EQ(fx.msu->duty_cycle().active_streams(0), 1);
  MsuStream* stream = fx.msu->FindStream(1);
  CoResult<Status> quit;
  Collect(stream->Quit(), &quit);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return quit.done(); }, SimTime::Seconds(5)));
  EXPECT_EQ(fx.msu->duty_cycle().active_streams(0), 0);
  EXPECT_EQ(fx.msu->active_stream_count(), 0);
}

TEST(MsuTest, StreamEndsItselfAtEndOfContent) {
  MsuFixture fx;
  fx.InstallCbr("short", SimTime::Seconds(3), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  ASSERT_TRUE(fx.Start(fx.PlayRequest("short", 1, 1)));
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return fx.msu->active_stream_count() == 0; },
                       SimTime::Seconds(20)));
}

TEST(MsuTest, RecordingBuildsCommittedFileWithStoredSchedule) {
  MsuFixture fx;
  MsuStartStream request = fx.PlayRequest("rec.dat", 1, 1);
  request.record = true;
  request.protocol = "rtp";
  request.estimated_length = SimTime::Seconds(60);
  ASSERT_TRUE(fx.Start(request));

  // Push packets straight into the stream, as the UDP demux would.
  MsuStream* stream = fx.msu->FindStream(1);
  ASSERT_NE(stream, nullptr);
  const PacketSequence packets = GenerateVbr(Graph2File(0), SimTime::Seconds(8));
  [](Simulator* sim, MsuStream* s, const PacketSequence* media) -> Task {
    const SimTime start = sim->Now();
    for (const MediaPacket& packet : *media) {
      const SimTime when = start + packet.delivery_offset;
      if (when > sim->Now()) {
        co_await sim->Delay(when - sim->Now());
      }
      MediaPacket arriving = packet;
      s->OnRecordedPacket(arriving);
    }
  }(&fx.sim, stream, &packets);
  fx.sim.RunFor(SimTime::Seconds(9));

  CoResult<Status> quit;
  Collect(stream->Quit(), &quit);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return quit.done(); }, SimTime::Seconds(10)));
  ASSERT_TRUE(quit.value->ok()) << quit.value->ToString();

  auto file = fx.msu->fs().Lookup("rec.dat");
  ASSERT_TRUE(file.ok());
  EXPECT_TRUE((*file)->committed());
  // Data packets are all there, plus interleaved RTP control packets.
  EXPECT_GE((*file)->image().record_count(), static_cast<int64_t>(packets.size()));
  EXPECT_NEAR((*file)->image().duration().seconds(), 8.0, 1.0);
  int64_t control = 0;
  for (size_t p = 0; p < (*file)->image().page_count(); ++p) {
    for (const MediaPacket& record : (*file)->image().page(p).records) {
      if (record.flags & kPacketControl) {
        ++control;
      }
    }
  }
  EXPECT_GE(control, 1);  // RTCP-style reports every ~5 s
}

TEST(MsuTest, FastBackwardMapsPositionsBothWays) {
  MsuFixture fx;
  // Install the movie plus offline-filtered variants (15x).
  const MpegStream stream = EncodeMpeg(MpegEncoderConfig{}, SimTime::Seconds(300), 3);
  auto install = [&](const std::string& name, const MpegStream& s) {
    IbTreeBuilder builder;
    for (const MediaPacket& packet : PacketizeCbr(s, Bytes::KiB(4))) {
      (void)builder.Add(packet);
    }
    ASSERT_TRUE(fx.msu->fs().InstallImage(name, builder.Finish(), false, 0).ok());
  };
  install("movie", stream);
  install("movie.ff", FilterFastForward(stream, 15));
  install("movie.fb", FilterFastBackward(stream, 15));
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});

  MsuStartStream request = fx.PlayRequest("movie", 1, 1);
  request.fast_forward_file = "movie.ff";
  request.fast_backward_file = "movie.fb";
  ASSERT_TRUE(fx.Start(request));
  fx.sim.RunFor(SimTime::Seconds(30));
  MsuStream* s = fx.msu->FindStream(1);
  ASSERT_NE(s, nullptr);
  EXPECT_NEAR(s->CurrentMediaOffset().seconds(), 30, 3);

  // Rewind: 30 s into the movie maps to 18 s into the 20 s fb file.
  CoResult<Status> fb;
  Collect(s->SwitchVariant(MsuStream::Variant::kFastBackward), &fb);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return fb.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(fb.value->ok()) << fb.value->ToString();
  EXPECT_EQ(s->variant(), MsuStream::Variant::kFastBackward);
  EXPECT_NEAR(s->CurrentMediaOffset().seconds(), 18, 1.0);

  // One second of fb playback covers ~15 s of content backwards; switching
  // to normal rate lands near the 15 s mark.
  fx.sim.RunFor(SimTime::Seconds(1));
  CoResult<Status> normal;
  Collect(s->SwitchVariant(MsuStream::Variant::kNormal), &normal);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return normal.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(normal.value->ok());
  EXPECT_NEAR(s->CurrentMediaOffset().seconds(), 15, 3.0);
}

TEST(MsuTest, FastBackwardAtStartEndsTheStream) {
  MsuFixture fx;
  const MpegStream stream = EncodeMpeg(MpegEncoderConfig{}, SimTime::Seconds(150), 3);
  IbTreeBuilder movie_builder, fb_builder;
  for (const MediaPacket& packet : PacketizeCbr(stream, Bytes::KiB(4))) {
    (void)movie_builder.Add(packet);
  }
  for (const MediaPacket& packet :
       PacketizeCbr(FilterFastBackward(stream, 15), Bytes::KiB(4))) {
    (void)fb_builder.Add(packet);
  }
  ASSERT_TRUE(fx.msu->fs().InstallImage("movie", movie_builder.Finish(), false, 0).ok());
  ASSERT_TRUE(fx.msu->fs().InstallImage("movie.fb", fb_builder.Finish(), false, 0).ok());
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});

  MsuStartStream request = fx.PlayRequest("movie", 1, 1);
  request.fast_backward_file = "movie.fb";
  ASSERT_TRUE(fx.Start(request));
  fx.sim.RunFor(SimTime::Seconds(15));
  MsuStream* s = fx.msu->FindStream(1);
  CoResult<Status> fb;
  Collect(s->SwitchVariant(MsuStream::Variant::kFastBackward), &fb);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return fb.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(fb.value->ok());
  // Rewinding from 15 s covers the remaining 1 s of fb file and ends.
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return fx.msu->active_stream_count() == 0; },
                       SimTime::Seconds(20)));
}

TEST(MsuTest, GroupVcrFansOutToAllMembers) {
  MsuFixture fx;
  fx.InstallCbr("a", SimTime::Seconds(60), 0);
  fx.InstallCbr("b", SimTime::Seconds(60), 1);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  ASSERT_TRUE(fx.Start(fx.PlayRequest("a", 1, 77)));
  ASSERT_TRUE(fx.Start(fx.PlayRequest("b", 2, 77)));  // same group
  fx.sim.RunFor(SimTime::Seconds(2));

  VcrCommand pause;
  pause.op = VcrCommand::Op::kPause;
  pause.group = 77;
  CoResult<MessageBody> ack;
  Collect(fx.msu->HandleVcr(pause), &ack);
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return ack.done(); }, SimTime::Seconds(5)));
  EXPECT_TRUE(std::get<VcrAck>(*ack.value).ok);
  EXPECT_EQ(fx.msu->FindStream(1)->state(), MsuStream::State::kPaused);
  EXPECT_EQ(fx.msu->FindStream(2)->state(), MsuStream::State::kPaused);
}

TEST(MsuTest, CrashStopsStreamsAndRestartKeepsContent) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(30), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  ASSERT_TRUE(fx.Start(fx.PlayRequest("movie", 1, 1)));
  fx.sim.RunFor(SimTime::Seconds(2));
  fx.msu->Crash();
  EXPECT_EQ(fx.msu->active_stream_count(), 0);
  EXPECT_TRUE(fx.msu_node->down());
  // Content survives the process crash (it lives on disk).
  fx.msu_node->SetDown(false);
  fx.msu->fs();
  EXPECT_TRUE(fx.msu->fs().Lookup("movie").ok());
}

// Regression: Crash() cleared groups_ while HandleStartStream was suspended
// in the client control connect; when the connect completed it wrote the new
// connection into the freed Group (heap-use-after-free under ASan).
TEST(MsuTest, CrashDuringControlConnectDropsTheConnection) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(30), 0);
  (void)fx.client_node->BindUdp(9000, [](const Datagram&) {});
  TcpConn* accepted = nullptr;
  ASSERT_TRUE(fx.client_node->ListenTcp(9001, [&](TcpConn* conn) { accepted = conn; }).ok());
  MsuStartStream request = fx.PlayRequest("movie", 1, 1);
  request.open_control_conn = true;
  request.client_control_port = 9001;
  CoResult<MessageBody> response;
  Collect(fx.msu->HandleStartStream(request), &response);
  ASSERT_FALSE(response.done());  // suspended in the control connect
  fx.msu->Crash();
  ASSERT_TRUE(RunUntil(fx.sim, [&] { return response.done(); }, SimTime::Seconds(5)));
  // The handshake was already on the wire, so the connect completed after the
  // crash had erased the group it was dialed for.
  EXPECT_NE(accepted, nullptr);
  EXPECT_EQ(fx.msu->active_stream_count(), 0);
}

TEST(MsuTest, UnknownProtocolRefused) {
  MsuFixture fx;
  fx.InstallCbr("movie", SimTime::Seconds(10), 0);
  MsuStartStream request = fx.PlayRequest("movie", 1, 1);
  request.protocol = "h264";
  EXPECT_FALSE(fx.Start(request));
}

TEST(MsuTest, MissingContentRefused) {
  MsuFixture fx;
  EXPECT_FALSE(fx.Start(fx.PlayRequest("ghost", 1, 1)));
}

// The redial schedule the MSU (and client) use after losing the Coordinator:
// capped exponential growth with seeded jitter. Determinism matters — a chaos
// run must replay bit-identically — so two Backoffs with equal params + seed
// must produce equal schedules, and the jitter must stay inside the
// documented [1-j, 1+j] envelope around the clamped geometric base.
TEST(MsuTest, RedialBackoffIsCappedExponentialWithSeededJitter) {
  BackoffParams params;
  params.initial = SimTime::Millis(100);
  params.max = SimTime::Seconds(2);
  params.multiplier = 2.0;
  params.jitter_fraction = 0.2;

  Backoff a(params, 7);
  Backoff b(params, 7);
  Backoff c(params, 8);

  bool any_seed_difference = false;
  for (int i = 0; i < 12; ++i) {
    const SimTime delay_a = a.Next();
    const SimTime delay_b = b.Next();
    const SimTime delay_c = c.Next();
    // Same seed => identical schedule.
    EXPECT_EQ(delay_a.nanos(), delay_b.nanos()) << "attempt " << i;
    if (delay_a.nanos() != delay_c.nanos()) any_seed_difference = true;

    // Envelope: jitter scales the clamped geometric base by [0.8, 1.2].
    double base_ns = static_cast<double>(params.initial.nanos());
    for (int k = 0; k < i; ++k) base_ns *= params.multiplier;
    const double cap_ns = static_cast<double>(params.max.nanos());
    if (base_ns > cap_ns) base_ns = cap_ns;
    EXPECT_GE(delay_a.nanos(), static_cast<int64_t>(base_ns * 0.8) - 1)
        << "attempt " << i;
    EXPECT_LE(delay_a.nanos(), static_cast<int64_t>(base_ns * 1.2) + 1)
        << "attempt " << i;
  }
  // Different seed => different jitter stream (somewhere in 12 draws).
  EXPECT_TRUE(any_seed_difference);
  EXPECT_EQ(a.attempts(), 12);

  // Reset returns to the initial delay band but keeps consuming the same
  // jitter stream, so the twin that mirrors the call sequence stays equal.
  a.Reset();
  b.Reset();
  const SimTime after_reset_a = a.Next();
  const SimTime after_reset_b = b.Next();
  EXPECT_EQ(after_reset_a.nanos(), after_reset_b.nanos());
  EXPECT_GE(after_reset_a.nanos(), SimTime::Millis(80).nanos() - 1);
  EXPECT_LE(after_reset_a.nanos(), SimTime::Millis(120).nanos() + 1);
}

}  // namespace
}  // namespace calliope
