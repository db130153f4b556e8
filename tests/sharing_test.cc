// System tests for popularity-aware stream sharing (DESIGN §5.6): shared
// delivery groups formed by batch-window coalescing, the per-MSU
// interval/prefix page cache, VCR splits, the cache-memory ledger column,
// and the Zipf capacity claim (shared mode admits at least twice the viewers
// of the unique-stream baseline on the same topology).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

// Seed for the Zipf title picks and the fault-timing jitter; ctest sweeps it
// through CALLIOPE_CHAOS_SEED exactly like the chaos harness.
uint64_t SharingSeed() {
  const char* env = std::getenv("CALLIOPE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1996;
}

InstallationConfig SharingConfigFor(int msu_count) {
  InstallationConfig config;
  config.msu_count = msu_count;
  config.coordinator.sharing.enabled = true;
  config.msu.cache_memory = Bytes::MiB(32);
  return config;
}

int64_t CounterValue(TestCluster& cluster, const std::string& name) {
  return cluster.installation().metrics().counter(name).value();
}

// Two viewers asking for one title within the batch window ride a single
// disk stream; a third viewer of a different title gets its own delivery
// group. The ledger charges one disk-bandwidth hold per *title*, not per
// viewer.
TEST(SharingTest, BatchWindowCoalescesSameTitleRequests) {
  TestCluster cluster(SharingConfigFor(1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m1", SimTime::Seconds(10), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "m0", "tv0");
  auto b = PlayOn(cluster.sim(), **client, "m0", "tv1");
  auto c = PlayOn(cluster.sim(), **client, "m1", "tv2");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->group, b->group);  // every viewer keeps its own group id

  // Let both batch windows close and the deliveries start.
  cluster.sim().RunFor(SimTime::Seconds(2));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.formed"), 2);
  EXPECT_EQ(CounterValue(cluster, "coord.groups.members"), 3);
  // Delivery streams + member bookkeeping: m0's delivery + 2 members, m1's
  // delivery + 1 member.
  EXPECT_EQ(cluster.coordinator().active_stream_count(), 5u);
  // Exactly two disk streams worth of bandwidth across the MSU's disks.
  const DataRate mpeg1 = DataRate::MegabitsPerSec(1.5);
  DataRate reserved;
  for (int d = 0; d < 2; ++d) {
    reserved = reserved + cluster.coordinator().DiskLoad("msu0", d);
  }
  EXPECT_EQ(reserved, mpeg1 + mpeg1);

  // Every viewer actually receives media despite the shared disk stream.
  cluster.sim().RunFor(SimTime::Seconds(2));
  for (const char* port : {"tv0", "tv1", "tv2"}) {
    ClientDisplayPort* p = (*client)->FindPort(port);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->packets_received(), 0) << port;
    EXPECT_EQ(p->out_of_order(), 0) << port;
  }

  // Play to the end: all groups terminate and the ledger fully drains —
  // member holds (NIC-only) and delivery holds (disk) both come back.
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(a->group) &&
                                (*client)->GroupTerminated(b->group) &&
                                (*client)->GroupTerminated(c->group);
                       },
                       SimTime::Seconds(20)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_EQ(cluster.coordinator().ledger().TotalReserved(), DataRate());
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
}

// A viewer arriving after the batch window but within the cache horizon
// attaches as a cache-fed solo stream: no additional disk bandwidth, and its
// reads hit the interval cache the leading delivery stream fills.
TEST(SharingTest, TrailingViewerRidesIntervalCache) {
  TestCluster cluster(SharingConfigFor(1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(12), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto leader = PlayOn(cluster.sim(), **client, "m0", "lead");
  ASSERT_TRUE(leader.ok());
  cluster.sim().RunFor(SimTime::Seconds(3));  // delivery under way, pages cached

  const DataRate mpeg1 = DataRate::MegabitsPerSec(1.5);
  DataRate before;
  for (int d = 0; d < 2; ++d) {
    before = before + cluster.coordinator().DiskLoad("msu0", d);
  }
  EXPECT_EQ(before, mpeg1);  // one disk stream for the leader

  auto trailer = PlayOn(cluster.sim(), **client, "m0", "trail");
  ASSERT_TRUE(trailer.ok());
  cluster.sim().RunFor(SimTime::Seconds(2));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.attaches"), 1);
  // The trailing viewer consumed no disk bandwidth...
  DataRate after;
  for (int d = 0; d < 2; ++d) {
    after = after + cluster.coordinator().DiskLoad("msu0", d);
  }
  EXPECT_EQ(after, mpeg1);
  // ...because its reads come from the interval cache.
  EXPECT_GT(CounterValue(cluster, "sim.cache.insertions"), 0);
  EXPECT_GT(CounterValue(cluster, "sim.cache.interval_hits"), 0);

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(leader->group) &&
                                (*client)->GroupTerminated(trailer->group);
                       },
                       SimTime::Seconds(30)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));
  // Both viewers saw the whole title.
  ClientDisplayPort* lead = (*client)->FindPort("lead");
  ClientDisplayPort* trail = (*client)->FindPort("trail");
  ASSERT_NE(lead, nullptr);
  ASSERT_NE(trail, nullptr);
  EXPECT_EQ(lead->bytes_received().count(), trail->bytes_received().count());
  EXPECT_EQ(trail->out_of_order(), 0);
  // Cache-memory ledger column fully refunded.
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
}

// A VCR op from one member splits it out of the shared group without
// disturbing the other member, and the split viewer ends up with exactly the
// bytes a solo (never-shared) viewer of the same title receives.
TEST(SharingTest, VcrSplitDeliversSameBytesAsSoloStream) {
  // Reference run: sharing disabled, one viewer, pause/resume mid-play.
  int64_t solo_bytes = 0;
  {
    InstallationConfig config;
    config.msu_count = 1;
    TestCluster cluster(config);
    ASSERT_TRUE(cluster.Boot().ok());
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
    auto client = cluster.AddConnectedClient("c");
    ASSERT_TRUE(client.ok());
    auto play = PlayOn(cluster.sim(), **client, "m0", "tv");
    ASSERT_TRUE(play.ok());
    cluster.sim().RunFor(SimTime::Seconds(4));
    ASSERT_TRUE(VcrOp(cluster.sim(), **client, play->group, VcrCommand::Op::kPause).ok());
    cluster.sim().RunFor(SimTime::Seconds(2));
    ASSERT_TRUE(VcrOp(cluster.sim(), **client, play->group, VcrCommand::Op::kPlay).ok());
    ASSERT_TRUE(RunUntil(cluster.sim(),
                         [&] { return (*client)->GroupTerminated(play->group); },
                         SimTime::Seconds(30)));
    ClientDisplayPort* p = (*client)->FindPort("tv");
    ASSERT_NE(p, nullptr);
    solo_bytes = p->bytes_received().count();
    ASSERT_GT(solo_bytes, 0);
  }

  // Shared run: two members; one pauses mid-delivery and is split into its
  // own stream (resumed paused at the split offset), then resumes.
  TestCluster cluster(SharingConfigFor(1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto stay = PlayOn(cluster.sim(), **client, "m0", "stay");
  auto split = PlayOn(cluster.sim(), **client, "m0", "split");
  ASSERT_TRUE(stay.ok());
  ASSERT_TRUE(split.ok());
  cluster.sim().RunFor(SimTime::Seconds(4));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.formed"), 1);

  ASSERT_TRUE(VcrOp(cluster.sim(), **client, split->group, VcrCommand::Op::kPause).ok());
  cluster.sim().RunFor(SimTime::Seconds(1));
  EXPECT_EQ(CounterValue(cluster, "coord.groups.splits"), 1);
  // The staying member keeps receiving while the split one is paused.
  ClientDisplayPort* stay_port = (*client)->FindPort("stay");
  ASSERT_NE(stay_port, nullptr);
  const int64_t stay_mark = stay_port->packets_received();
  cluster.sim().RunFor(SimTime::Seconds(1));
  EXPECT_GT(stay_port->packets_received(), stay_mark);

  ASSERT_TRUE(VcrOp(cluster.sim(), **client, split->group, VcrCommand::Op::kPlay).ok());
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(stay->group) &&
                                (*client)->GroupTerminated(split->group);
                       },
                       SimTime::Seconds(30)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));

  ClientDisplayPort* split_port = (*client)->FindPort("split");
  ASSERT_NE(split_port, nullptr);
  // Byte identity: the split member received exactly what a solo viewer
  // doing the same pause/resume receives — nothing lost or duplicated across
  // the detach + re-admission.
  EXPECT_EQ(split_port->bytes_received().count(), solo_bytes);
  EXPECT_EQ(stay_port->bytes_received().count(), solo_bytes);
  EXPECT_EQ(split_port->out_of_order(), 0);
  EXPECT_EQ(stay_port->out_of_order(), 0);
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
}

// Pauses `stream` at a sweep of instants just after each resume. A resumed
// stream sends its first packet at once, so the sweep lands pauses before,
// during and after that send: some arrive while SendUdp is in flight.
void PauseAcrossFirstSend(Simulator& sim, MsuStream& stream) {
  for (int i = 0; i < 60; ++i) {
    sim.RunFor(SimTime::Micros(25 * i));
    ASSERT_TRUE(stream.Pause().ok());
    sim.RunFor(SimTime::Millis(2));
    ASSERT_TRUE(stream.Resume().ok());
  }
}

MsuStream* FindLiveStream(Msu& msu, bool shared) {
  StreamId id = 0;
  msu.ForEachStream([&](const MsuStream& stream, bool finished) {
    if (!finished && stream.shared() == shared) {
      id = stream.id();
    }
  });
  return id == 0 ? nullptr : msu.FindStream(id);
}

// Regression: a VCR op landing while a media datagram was in flight made the
// playback loop skip the sequence-number advance (solo: the send_seq_
// increment; shared fan-out: the member's seq), so the next datagram reused
// the number already on the wire and the client counted it out of order.
TEST(SharingTest, VcrOpDuringSendKeepsSequenceNumbersFresh) {
  {
    InstallationConfig config;
    config.msu_count = 1;
    TestCluster cluster(config);
    ASSERT_TRUE(cluster.Boot().ok());
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
    auto client = cluster.AddConnectedClient("c");
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(PlayOn(cluster.sim(), **client, "m0", "tv").ok());
    cluster.sim().RunFor(SimTime::Seconds(1));
    MsuStream* solo = FindLiveStream(cluster.msu(0), /*shared=*/false);
    ASSERT_NE(solo, nullptr);
    PauseAcrossFirstSend(cluster.sim(), *solo);
    cluster.sim().RunFor(SimTime::Seconds(1));
    ClientDisplayPort* port = (*client)->FindPort("tv");
    ASSERT_NE(port, nullptr);
    EXPECT_GT(port->packets_received(), 0);
    EXPECT_EQ(port->out_of_order(), 0);
  }

  TestCluster cluster(SharingConfigFor(1));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(10), 0, false).ok());
  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(PlayOn(cluster.sim(), **client, "m0", "tv0").ok());
  ASSERT_TRUE(PlayOn(cluster.sim(), **client, "m0", "tv1").ok());
  cluster.sim().RunFor(SimTime::Seconds(2));
  MsuStream* shared = FindLiveStream(cluster.msu(0), /*shared=*/true);
  ASSERT_NE(shared, nullptr);
  ASSERT_EQ(shared->members().size(), 2u);
  PauseAcrossFirstSend(cluster.sim(), *shared);
  cluster.sim().RunFor(SimTime::Seconds(1));
  for (const char* name : {"tv0", "tv1"}) {
    ClientDisplayPort* port = (*client)->FindPort(name);
    ASSERT_NE(port, nullptr);
    EXPECT_GT(port->packets_received(), 0) << name;
    EXPECT_EQ(port->out_of_order(), 0) << name;
  }
}

// Crash the MSU serving a shared delivery group mid-play (chaos for the
// cache-memory ledger column): members fail over individually as unique
// streams on the replica holder, the delivery stream's disk hold and every
// member's NIC/cache hold are released exactly once, and after a restart +
// another round of shared viewing the ledger still balances.
TEST(SharingTest, SharedGroupFailoverKeepsLedgerInvariants) {
  TestCluster cluster(SharingConfigFor(2));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(15), 0, false).ok());
  ASSERT_TRUE(cluster.installation().ReplicateContent("m0", 1).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "m0", "tv0");
  auto b = PlayOn(cluster.sim(), **client, "m0", "tv1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Seed-jittered crash point so the ctest seed sweep kills the delivery at
  // different offsets within the title.
  cluster.sim().RunFor(SimTime::Seconds(4) + SimTime::Millis(static_cast<int64_t>(SharingSeed() % 997)));
  ASSERT_EQ(CounterValue(cluster, "coord.groups.formed"), 1);

  // Find and kill the serving MSU.
  const int serving = cluster.msu(0).active_stream_count() > 0 ? 0 : 1;
  const int survivor = 1 - serving;
  cluster.msu(static_cast<size_t>(serving)).Crash();

  // Both members resume as unique streams on the survivor.
  ASSERT_TRUE(RunUntil(
      cluster.sim(),
      [&] { return cluster.msu(static_cast<size_t>(survivor)).active_stream_count() == 2; },
      SimTime::Seconds(15)));
  EXPECT_FALSE((*client)->GroupTerminated(a->group));
  EXPECT_FALSE((*client)->GroupTerminated(b->group));

  // Restart the crashed MSU and run another shared round on it while the
  // failed-over viewers play out.
  CoResult<Status> restarted;
  Collect(cluster.msu(static_cast<size_t>(serving)).Restart("coordinator"), &restarted);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return restarted.done(); }, SimTime::Seconds(20)));
  ASSERT_TRUE(restarted.value->ok());
  auto c = PlayOn(cluster.sim(), **client, "m0", "tv2");
  auto d = PlayOn(cluster.sim(), **client, "m0", "tv3");
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         for (GroupId g : {a->group, b->group, c->group, d->group}) {
                           if (!(*client)->GroupTerminated(g)) {
                             return false;
                           }
                         }
                         return true;
                       },
                       SimTime::Seconds(45)));
  ASSERT_TRUE(cluster.WaitForIdle(SimTime::Seconds(10)));
  // The ledger survived crash + failover + restart + a second shared round.
  EXPECT_TRUE(cluster.coordinator().ledger().CheckInvariants().ok());
  EXPECT_EQ(cluster.coordinator().ledger().outstanding_holds(), 0u);
  EXPECT_EQ(cluster.coordinator().ledger().TotalReserved(), DataRate());
  for (const char* port : {"tv0", "tv1", "tv2", "tv3"}) {
    ClientDisplayPort* p = (*client)->FindPort(port);
    ASSERT_NE(p, nullptr);
    EXPECT_GT(p->packets_received(), 0) << port;
    EXPECT_EQ(p->out_of_order(), 0) << port;
  }
}

// Regression (satellite 5): when a shared group's disk stream fails over
// mid-delivery, no member's receive gap exceeds the failover budget (MSU
// death detection + re-placement + restart, all well under 10 s of media
// time at 2 s progress-report staleness).
TEST(SharingTest, SharedGroupFailoverBoundsMaxGap) {
  TestCluster cluster(SharingConfigFor(2));
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(15), 0, false).ok());
  ASSERT_TRUE(cluster.installation().ReplicateContent("m0", 1).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto a = PlayOn(cluster.sim(), **client, "m0", "tv0");
  auto b = PlayOn(cluster.sim(), **client, "m0", "tv1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  cluster.sim().RunFor(SimTime::Seconds(5) + SimTime::Millis(static_cast<int64_t>(SharingSeed() % 997)));
  const int serving = cluster.msu(0).active_stream_count() > 0 ? 0 : 1;
  cluster.msu(static_cast<size_t>(serving)).Crash();

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         return (*client)->GroupTerminated(a->group) &&
                                (*client)->GroupTerminated(b->group);
                       },
                       SimTime::Seconds(40)));
  const ClusterReport report = cluster.installation().BuildClusterReport();
  int ports_checked = 0;
  for (const auto& port : report.ports) {
    if (port.port != "tv0" && port.port != "tv1") {
      continue;
    }
    ++ports_checked;
    EXPECT_GT(port.max_gap_us, 0) << port.port;
    // The failover hole: progress staleness (<=2 s) + conn-break detection +
    // re-admission. Anything near 10 s would mean a member restarted from
    // zero or was forgotten until its group timed out.
    EXPECT_LT(port.max_gap_us, 6'000'000) << port.port;
  }
  EXPECT_EQ(ports_checked, 2);
}

// The capacity claim behind the whole subsystem: under a Zipf(1.0) title
// popularity distribution, shared mode concurrently serves at least twice
// the viewers per MSU that the unique-stream baseline admits on the same
// topology (same titles, same arrival schedule, same disk budget).
TEST(SharingTest, ZipfWorkloadSharedModeDoublesAdmittedViewers) {
  constexpr int kViewers = 24;
  constexpr int kTitles = 4;
  const SimTime kMovieLength = SimTime::Seconds(25);

  // Title picks are derived from a fixed seed so both runs see the identical
  // request sequence.
  std::vector<int> picks;
  {
    Rng rng(SharingSeed());
    ZipfDistribution zipf(kTitles, 1.0);
    for (int i = 0; i < kViewers; ++i) {
      picks.push_back(static_cast<int>(zipf.Sample(rng)));
    }
  }

  auto viewers_served = [&](bool sharing) -> int {
    InstallationConfig config;
    config.msu_count = 1;
    config.coordinator.sharing.enabled = sharing;
    if (sharing) {
      config.msu.cache_memory = Bytes::MiB(32);
    }
    // Tight disk budget: 4 unique mpeg1 streams per disk, 8 per MSU.
    config.coordinator.disk_budget = DataRate::MegabitsPerSec(6);
    TestCluster cluster(config);
    EXPECT_TRUE(cluster.Boot().ok());
    for (int t = 0; t < kTitles; ++t) {
      EXPECT_TRUE(cluster.installation()
                      .LoadMpegMovie("m" + std::to_string(t), kMovieLength, 0, false)
                      .ok());
    }
    auto client = cluster.AddConnectedClient("c");
    EXPECT_TRUE(client.ok());
    if (!client.ok()) {
      return 0;
    }
    std::vector<std::string> ports;
    for (int i = 0; i < kViewers; ++i) {
      const std::string port = "tv" + std::to_string(i);
      auto play = PlayOn(cluster.sim(), **client, "m" + std::to_string(picks[static_cast<size_t>(i)]),
                         port);
      EXPECT_TRUE(play.ok());
      ports.push_back(port);
    }
    // Past the batch window and into steady-state delivery, but well before
    // any title finishes: whoever has received media by now is being served
    // concurrently.
    cluster.sim().RunFor(SimTime::Seconds(6));
    int served = 0;
    for (const std::string& port : ports) {
      ClientDisplayPort* p = (*client)->FindPort(port);
      if (p != nullptr && p->packets_received() > 0) {
        ++served;
      }
    }
    return served;
  };

  const int baseline = viewers_served(false);
  const int shared = viewers_served(true);
  // The baseline saturates the disk budget; sharing coalesces the Zipf head
  // onto a handful of delivery streams and serves everyone.
  EXPECT_LE(baseline, 8);
  EXPECT_GT(baseline, 0);
  EXPECT_GE(shared, 2 * baseline) << "shared=" << shared << " baseline=" << baseline;
}

}  // namespace
}  // namespace calliope
