// Unit tests for the Coordinator's database and scheduling logic (§2.2).
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/coord/admission_queue.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

TEST(CatalogTest, StandardTypesPresent) {
  Catalog catalog = Catalog::WithStandardTypes();
  ASSERT_TRUE(catalog.FindType("mpeg1").ok());
  ASSERT_TRUE(catalog.FindType("rtp-video").ok());
  ASSERT_TRUE(catalog.FindType("vat-audio").ok());
  auto seminar = catalog.FindType("seminar");
  ASSERT_TRUE(seminar.ok());
  EXPECT_TRUE((*seminar)->is_composite());
  EXPECT_EQ((*seminar)->components, (std::vector<std::string>{"rtp-video", "vat-audio"}));
  EXPECT_EQ(catalog.FindType("h264").status().code(), StatusCode::kNotFound);
}

TEST(CatalogTest, CompositeTypesMustReferenceAtomicTypes) {
  Catalog catalog = Catalog::WithStandardTypes();
  ContentType bad;
  bad.name = "super";
  bad.components = {"seminar"};  // composite of composite: rejected
  EXPECT_EQ(catalog.AddType(std::move(bad)).code(), StatusCode::kInvalidArgument);
  ContentType unknown;
  unknown.name = "mystery";
  unknown.components = {"nope"};
  EXPECT_EQ(catalog.AddType(std::move(unknown)).code(), StatusCode::kNotFound);
}

TEST(CatalogTest, SeparateBandwidthAndStorageRates) {
  // §2.2: "the content type table contains separate rates for disk space and
  // bandwidth consumption" — VBR types reserve more than they store.
  Catalog catalog = Catalog::WithStandardTypes();
  auto rtp = catalog.FindType("rtp-video");
  ASSERT_TRUE(rtp.ok());
  EXPECT_GT((*rtp)->bandwidth_rate, (*rtp)->storage_rate);
  auto mpeg = catalog.FindType("mpeg1");
  ASSERT_TRUE(mpeg.ok());
  EXPECT_EQ((*mpeg)->bandwidth_rate, (*mpeg)->storage_rate);  // CBR: equal
}

TEST(CatalogTest, CustomerAuthentication) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddCustomer(Customer{"eve", "secret", false}).ok());
  EXPECT_TRUE(catalog.Authenticate("eve", "secret").ok());
  EXPECT_EQ(catalog.Authenticate("eve", "wrong").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(catalog.Authenticate("mallory", "x").status().code(),
            StatusCode::kPermissionDenied);
  EXPECT_EQ(catalog.AddCustomer(Customer{"eve", "other", false}).code(),
            StatusCode::kAlreadyExists);
}

TEST(CoordinatorTest, RejectsBadCredentialsAndUnknownContent) {
  Installation calliope;
  ASSERT_TRUE(calliope.Boot().ok());
  CalliopeClient& client = calliope.AddClient("c");

  CoResult<Status> bad_connect;
  Collect(client.Connect("bob", "wrong-key"), &bad_connect);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return bad_connect.done(); }, SimTime::Seconds(5)));
  EXPECT_EQ(bad_connect.value->code(), StatusCode::kPermissionDenied);

  CoResult<Status> good_connect;
  Collect(client.Connect("bob", "bob-key"), &good_connect);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return good_connect.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(good_connect.value->ok());

  CoResult<Result<ClientDisplayPort*>> port;
  Collect(client.RegisterPort("tv", "mpeg1"), &port);
  RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5));

  CoResult<Result<CalliopeClient::StartResult>> play;
  Collect(client.Play("no-such-movie", "tv"), &play);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return play.done(); }, SimTime::Seconds(5)));
  EXPECT_FALSE(play.value->ok());
}

TEST(CoordinatorTest, TypeMismatchBetweenPortAndContentRejected) {
  Installation calliope;
  ASSERT_TRUE(calliope.Boot().ok());
  ASSERT_TRUE(calliope.LoadMpegMovie("movie", SimTime::Seconds(10), 0, false).ok());
  CalliopeClient& client = calliope.AddClient("c");
  CoResult<Status> connected;
  Collect(client.Connect("bob", "bob-key"), &connected);
  RunUntil(calliope.sim(), [&] { return connected.done(); }, SimTime::Seconds(5));
  CoResult<Result<ClientDisplayPort*>> port;
  Collect(client.RegisterPort("audio-port", "vat-audio"), &port);
  RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5));

  // "Calliope checks that the port and the content have the same type."
  CoResult<Result<CalliopeClient::StartResult>> play;
  Collect(client.Play("movie", "audio-port"), &play);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return play.done(); }, SimTime::Seconds(5)));
  EXPECT_FALSE(play.value->ok());
}

TEST(CoordinatorTest, RecordingRequiresLengthEstimate) {
  Installation calliope;
  ASSERT_TRUE(calliope.Boot().ok());
  CalliopeClient& client = calliope.AddClient("c");
  CoResult<Status> connected;
  Collect(client.Connect("bob", "bob-key"), &connected);
  RunUntil(calliope.sim(), [&] { return connected.done(); }, SimTime::Seconds(5));
  CoResult<Result<ClientDisplayPort*>> port;
  Collect(client.RegisterPort("cam", "rtp-video"), &port);
  RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5));

  CoResult<Result<CalliopeClient::StartResult>> record;
  Collect(client.Record("clip", "rtp-video", "cam", SimTime()), &record);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return record.done(); }, SimTime::Seconds(5)));
  EXPECT_FALSE(record.value->ok());
}

TEST(CoordinatorTest, RecordingDebitsSpaceByStorageRateAndRefundsOverestimate) {
  Installation calliope;
  ASSERT_TRUE(calliope.Boot().ok());
  CalliopeClient& client = calliope.AddClient("c");
  CoResult<Status> connected;
  Collect(client.Connect("bob", "bob-key"), &connected);
  RunUntil(calliope.sim(), [&] { return connected.done(); }, SimTime::Seconds(5));
  CoResult<Result<ClientDisplayPort*>> port;
  Collect(client.RegisterPort("cam", "rtp-video"), &port);
  RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5));

  const Bytes before = calliope.coordinator().MsuFreeSpace("msu0");
  CoResult<Result<CalliopeClient::StartResult>> record;
  Collect(client.Record("clip", "rtp-video", "cam", SimTime::Seconds(100)), &record);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return record.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(record.value->ok());

  // Debit = storage_rate * estimate (700 Kbit/s * 100 s = 8.75 MB).
  const Bytes debit = before - calliope.coordinator().MsuFreeSpace("msu0");
  const Bytes expected =
      calliope.coordinator().catalog().FindType("rtp-video").value()->storage_rate.BytesIn(
          SimTime::Seconds(100));
  EXPECT_EQ(debit.count(), expected.count());

  // Record only ~4 seconds, quit, and most of the estimate comes back.
  const PacketSequence packets = GenerateVbr(Graph2File(0), SimTime::Seconds(4));
  CoResult<Result<int64_t>> sent;
  Collect(client.SendRecording((*record.value)->group, 0, packets), &sent);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return sent.done(); }, SimTime::Seconds(20)));
  CoResult<Status> quit;
  Collect(client.Quit((*record.value)->group), &quit);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return quit.done(); }, SimTime::Seconds(10)));
  const Bytes after = calliope.coordinator().MsuFreeSpace("msu0");
  EXPECT_GT(after.count(), before.count() - expected.count() / 4);
  EXPECT_LT(after.count(), before.count());  // the real recording stays charged
}

TEST(CoordinatorTest, SessionDropDeallocatesPorts) {
  Installation calliope;
  ASSERT_TRUE(calliope.Boot().ok());
  ASSERT_TRUE(calliope.LoadMpegMovie("movie", SimTime::Seconds(10), 0, false).ok());
  CalliopeClient& client = calliope.AddClient("c");
  CoResult<Status> connected;
  Collect(client.Connect("bob", "bob-key"), &connected);
  RunUntil(calliope.sim(), [&] { return connected.done(); }, SimTime::Seconds(5));
  CoResult<Result<ClientDisplayPort*>> port;
  Collect(client.RegisterPort("tv", "mpeg1"), &port);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5)));
  const SessionId session = client.session();

  // "When this session is dropped, the Coordinator deallocates its local
  // representation of the ports": a play against the dead session fails.
  client.Disconnect();
  calliope.sim().RunFor(SimTime::Seconds(1));

  CoResult<Status> reconnect;
  Collect(client.Connect("bob", "bob-key"), &reconnect);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return reconnect.done(); }, SimTime::Seconds(5)));
  EXPECT_NE(client.session(), session);  // a fresh session
}

TEST(CoordinatorTest, PlacementPrefersMsuHoldingTheContent) {
  InstallationConfig config;
  config.msu_count = 2;
  Installation calliope(config);
  ASSERT_TRUE(calliope.Boot().ok());
  ASSERT_TRUE(calliope.LoadMpegMovie("only-on-msu1", SimTime::Seconds(30), 1, false).ok());

  CalliopeClient& client = calliope.AddClient("c");
  CoResult<Status> connected;
  Collect(client.Connect("bob", "bob-key"), &connected);
  RunUntil(calliope.sim(), [&] { return connected.done(); }, SimTime::Seconds(5));
  CoResult<Result<ClientDisplayPort*>> port;
  Collect(client.RegisterPort("tv", "mpeg1"), &port);
  RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5));
  CoResult<Result<CalliopeClient::StartResult>> play;
  Collect(client.Play("only-on-msu1", "tv"), &play);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return play.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(play.value->ok());
  calliope.sim().RunFor(SimTime::Seconds(1));
  EXPECT_EQ(calliope.msu(1).active_stream_count(), 1);
  EXPECT_EQ(calliope.msu(0).active_stream_count(), 0);
}

TEST(CoordinatorTest, ContentUnavailableWhileItsMsuIsDown) {
  InstallationConfig config;
  config.msu_count = 2;
  Installation calliope(config);
  ASSERT_TRUE(calliope.Boot().ok());
  ASSERT_TRUE(calliope.LoadMpegMovie("movie", SimTime::Seconds(30), 0, false).ok());
  calliope.msu(0).Crash();
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return !calliope.coordinator().MsuUp("msu0"); },
                       SimTime::Seconds(5)));

  CalliopeClient& client = calliope.AddClient("c");
  CoResult<Status> connected;
  Collect(client.Connect("bob", "bob-key"), &connected);
  RunUntil(calliope.sim(), [&] { return connected.done(); }, SimTime::Seconds(5));
  CoResult<Result<ClientDisplayPort*>> port;
  Collect(client.RegisterPort("tv", "mpeg1"), &port);
  RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5));

  // The only copy is on a down MSU: the request is queued, not failed.
  CoResult<Result<CalliopeClient::StartResult>> play;
  Collect(client.Play("movie", "tv"), &play);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return play.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(play.value->ok());
  EXPECT_TRUE((*play.value)->queued);

  // When the MSU returns, the queued request starts.
  CoResult<Status> restarted;
  Collect(calliope.msu(0).Restart("coordinator"), &restarted);
  ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return restarted.done(); }, SimTime::Seconds(10)));
  ASSERT_TRUE(RunUntil(calliope.sim(),
                       [&] { return calliope.coordinator().pending_request_count() == 0; },
                       SimTime::Seconds(10)));
  calliope.sim().RunFor(SimTime::Seconds(3));
  EXPECT_GT(client.FindPort("tv")->packets_received(), 0);
}

TEST(CoordinatorTest, ReplicatedContentSpreadsAcrossMsus) {
  InstallationConfig config;
  config.msu_count = 2;
  Installation calliope(config);
  ASSERT_TRUE(calliope.Boot().ok());
  ASSERT_TRUE(calliope.LoadMpegMovie("hit", SimTime::Seconds(60), 0, false).ok());
  // "we can make copies of popular content": a second copy on msu1.
  ASSERT_TRUE(calliope.ReplicateContent("hit", 1).ok());

  CalliopeClient& client = calliope.AddClient("c");
  CoResult<Status> connected;
  Collect(client.Connect("bob", "bob-key"), &connected);
  RunUntil(calliope.sim(), [&] { return connected.done(); }, SimTime::Seconds(5));
  for (int i = 0; i < 8; ++i) {
    CoResult<Result<ClientDisplayPort*>> port;
    Collect(client.RegisterPort("tv" + std::to_string(i), "mpeg1"), &port);
    RunUntil(calliope.sim(), [&] { return port.done(); }, SimTime::Seconds(5));
    CoResult<Result<CalliopeClient::StartResult>> play;
    Collect(client.Play("hit", "tv" + std::to_string(i)), &play);
    ASSERT_TRUE(RunUntil(calliope.sim(), [&] { return play.done(); }, SimTime::Seconds(5)));
    ASSERT_TRUE(play.value->ok());
  }
  calliope.sim().RunFor(SimTime::Seconds(2));
  // Least-loaded placement alternates between the two copies.
  EXPECT_EQ(calliope.msu(0).active_stream_count(), 4);
  EXPECT_EQ(calliope.msu(1).active_stream_count(), 4);
}

// coord.requests_lost: a queued request whose session disappears before
// resources free up is dropped during the retry pass and counted — the
// counter is the audit trail for requests the server consciously gave up on.
TEST(CoordinatorTest, DeadSessionQueuedRequestCountsAsLost) {
  InstallationConfig config;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  for (const std::string name : {"a", "b"}) {
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie(name, SimTime::Seconds(60), 0, false, 0).ok());
  }
  auto keeper = cluster.AddConnectedClient("keeper");
  auto leaver = cluster.AddConnectedClient("leaver");
  ASSERT_TRUE(keeper.ok());
  ASSERT_TRUE(leaver.ok());

  auto play_a = PlayOn(cluster.sim(), **keeper, "a", "tva");
  ASSERT_TRUE(play_a.ok());
  EXPECT_FALSE(play_a->queued);
  auto play_b = PlayOn(cluster.sim(), **leaver, "b", "tvb");
  ASSERT_TRUE(play_b.ok());
  EXPECT_TRUE(play_b->queued);
  EXPECT_EQ(cluster.coordinator().requests_lost(), 0);

  (*leaver)->Disconnect();
  cluster.sim().RunFor(SimTime::Seconds(1));
  EXPECT_TRUE(QuitGroup(cluster.sim(), **keeper, play_a->group).ok());
  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().pending_request_count() == 0; },
                       SimTime::Seconds(10)));
  EXPECT_EQ(cluster.coordinator().requests_lost(), 1);
}

// A queued request that fails permanently (its content was deleted while
// waiting) is counted lost AND the waiting client is pushed a
// PendingRequestFailed over the session connection, so it stops waiting for
// a stream that will never start.
TEST(CoordinatorTest, PermanentlyFailedQueuedRequestNotifiesClient) {
  InstallationConfig config;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  for (const std::string name : {"a", "b"}) {
    ASSERT_TRUE(
        cluster.installation().LoadMpegMovie(name, SimTime::Seconds(60), 0, false, 0).ok());
  }
  auto viewer = cluster.AddConnectedClient("viewer");
  auto admin = cluster.AddConnectedClient("adminhost", "alice", "alice-key");
  ASSERT_TRUE(viewer.ok());
  ASSERT_TRUE(admin.ok());

  auto play_a = PlayOn(cluster.sim(), **viewer, "a", "tva");
  ASSERT_TRUE(play_a.ok());
  EXPECT_FALSE(play_a->queued);
  auto play_b = PlayOn(cluster.sim(), **viewer, "b", "tvb");
  ASSERT_TRUE(play_b.ok());
  EXPECT_TRUE(play_b->queued);

  CoResult<Status> erase;
  Collect((*admin)->DeleteContent("b"), &erase);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return erase.done(); }, SimTime::Seconds(5)));
  EXPECT_TRUE(erase.value->ok()) << erase.value->ToString();

  ASSERT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().pending_request_count() == 0; },
                       SimTime::Seconds(10)));
  EXPECT_EQ(cluster.coordinator().requests_lost(), 1);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return (*viewer)->GroupTerminated(play_b->group); },
                       SimTime::Seconds(5)));
  // The admitted stream is untouched by the failed neighbor.
  EXPECT_FALSE((*viewer)->GroupTerminated(play_a->group));
}


// ---- AdmissionQueue: the pending queue and its policy (DESIGN §5.9) ----

PendingPlayRequest Queued(GroupId group, AdmissionClass klass, bool record = false,
                          const std::string& content = "m") {
  PendingPlayRequest request;
  request.group = group;
  request.admission_class = klass;
  request.record = record;
  request.content = content;
  return request;
}

std::vector<GroupId> Order(const AdmissionQueue& queue) {
  std::vector<GroupId> groups;
  for (const PendingPlayRequest& request : queue.requests()) {
    groups.push_back(request.group);
  }
  return groups;
}

// Traffic control on: interactive first, bulk last, per-class caps/deadlines.
AdmissionQueue::Policies ClassPolicies() {
  AdmissionQueue::Policies policies;
  policies[static_cast<size_t>(AdmissionClass::kInteractive)] = {0, 2, SimTime::Seconds(10)};
  policies[static_cast<size_t>(AdmissionClass::kStandard)] = {1, 2, SimTime::Seconds(30)};
  policies[static_cast<size_t>(AdmissionClass::kBulk)] = {2, 1, SimTime::Seconds(120)};
  return policies;
}

TEST(AdmissionQueueTest, OneClassRetriesInArrivalOrderWhateverTheClass) {
  // Traffic control off: a bulk record queued before a standard play is
  // retried first — what keeps traffic-off runs byte-identical.
  AdmissionQueue queue(AdmissionQueue::OneClass(SimTime::Seconds(600)));
  const SimTime now = SimTime::Seconds(1);
  ASSERT_TRUE(queue.Push(Queued(1, AdmissionClass::kBulk, /*record=*/true), now));
  ASSERT_TRUE(queue.Push(Queued(2, AdmissionClass::kStandard), now));
  ASSERT_TRUE(queue.Push(Queued(3, AdmissionClass::kInteractive), now));
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(queue.Push(Queued(10 + i, AdmissionClass::kBulk), now)) << "no cap";
  }
  queue.SortForRetry();
  EXPECT_EQ(queue.PopFront().group, 1);
  EXPECT_EQ(queue.PopFront().group, 2);
  EXPECT_EQ(queue.PopFront().group, 3);
  EXPECT_EQ(queue.count(AdmissionClass::kBulk), 100u);
  // Every class shares the one deadline.
  EXPECT_EQ(queue.NextExpiry(), SimTime::Seconds(601));
}

TEST(AdmissionQueueTest, ClassesRetryInRankOrderStableWithinAClass) {
  AdmissionQueue::Policies policies = ClassPolicies();
  for (AdmissionClassPolicy& policy : policies) {
    policy.cap = 0;
  }
  AdmissionQueue queue(policies);
  const SimTime now = SimTime::Seconds(1);
  for (const auto& [group, klass] : std::vector<std::pair<GroupId, AdmissionClass>>{
           {1, AdmissionClass::kBulk},
           {2, AdmissionClass::kStandard},
           {3, AdmissionClass::kInteractive},
           {4, AdmissionClass::kStandard},
           {5, AdmissionClass::kBulk},
           {6, AdmissionClass::kInteractive}}) {
    ASSERT_TRUE(queue.Push(Queued(group, klass), now));
  }
  queue.SortForRetry();
  EXPECT_EQ(Order(queue), (std::vector<GroupId>{3, 6, 2, 4, 1, 5}));
}

TEST(AdmissionQueueTest, FullClassRefusesButARequeueKeepsItsSlotAndStamp) {
  AdmissionQueue queue(ClassPolicies());
  ASSERT_TRUE(queue.Push(Queued(1, AdmissionClass::kBulk), SimTime::Seconds(5)));
  // The bulk class (cap 1) is full; other classes still have room.
  EXPECT_FALSE(queue.Push(Queued(2, AdmissionClass::kBulk), SimTime::Seconds(6)));
  EXPECT_TRUE(queue.Push(Queued(3, AdmissionClass::kStandard), SimTime::Seconds(6)));
  EXPECT_EQ(queue.size(), 2u);

  // A retry pops the request and puts it back: no cap check, and the first
  // enqueue stamp survives, so its deadline does not restart.
  PendingPlayRequest retried = queue.PopFront();
  EXPECT_EQ(retried.enqueued_at, SimTime::Seconds(5));
  ASSERT_TRUE(queue.Push(Queued(4, AdmissionClass::kBulk), SimTime::Seconds(7)));
  ASSERT_TRUE(queue.Push(retried, SimTime::Seconds(8), /*requeue=*/true));
  EXPECT_EQ(queue.count(AdmissionClass::kBulk), 2u);
  EXPECT_EQ(queue.requests().back().group, 1);
  EXPECT_EQ(queue.requests().back().enqueued_at, SimTime::Seconds(5));
}

TEST(AdmissionQueueTest, ReportsAndTakesTheEarliestDeadlines) {
  AdmissionQueue queue(ClassPolicies());
  EXPECT_FALSE(queue.NextExpiry().has_value());
  ASSERT_TRUE(queue.Push(Queued(1, AdmissionClass::kBulk), SimTime::Seconds(1)));  // t=121
  ASSERT_TRUE(queue.Push(Queued(2, AdmissionClass::kStandard), SimTime::Seconds(2)));  // 32
  ASSERT_TRUE(queue.Push(Queued(3, AdmissionClass::kInteractive), SimTime::Seconds(25)));  // 35
  ASSERT_TRUE(queue.Push(Queued(4, AdmissionClass::kInteractive), SimTime::Seconds(3)));  // 13
  EXPECT_EQ(queue.NextExpiry(), SimTime::Seconds(13));

  EXPECT_TRUE(queue.TakeExpired(SimTime::Seconds(12)).empty());
  std::vector<PendingPlayRequest> expired = queue.TakeExpired(SimTime::Seconds(32));
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].group, 2);
  EXPECT_EQ(expired[1].group, 4);
  EXPECT_EQ(queue.NextExpiry(), SimTime::Seconds(35));

  // Zero deadline: nothing ever expires; an unstamped request never does.
  AdmissionQueue forever(AdmissionQueue::OneClass(SimTime()));
  ASSERT_TRUE(forever.Push(Queued(5, AdmissionClass::kStandard), SimTime::Seconds(1)));
  EXPECT_FALSE(forever.NextExpiry().has_value());
  AdmissionQueue stamped(AdmissionQueue::OneClass(SimTime::Seconds(5)));
  ASSERT_TRUE(stamped.Push(Queued(6, AdmissionClass::kStandard), SimTime()));
  EXPECT_FALSE(stamped.NextExpiry().has_value());
}

TEST(AdmissionQueueTest, ShedsNewestFirstBulkBeforeStandardNeverInteractive) {
  AdmissionQueue::Policies policies = ClassPolicies();
  for (AdmissionClassPolicy& policy : policies) {
    policy.cap = 0;
  }
  AdmissionQueue queue(policies);
  const SimTime now = SimTime::Seconds(1);
  ASSERT_TRUE(queue.Push(Queued(1, AdmissionClass::kStandard), now));
  ASSERT_TRUE(queue.Push(Queued(2, AdmissionClass::kBulk), now));
  ASSERT_TRUE(queue.Push(Queued(3, AdmissionClass::kInteractive), now));
  ASSERT_TRUE(queue.Push(Queued(4, AdmissionClass::kStandard), now));
  ASSERT_TRUE(queue.Push(Queued(5, AdmissionClass::kBulk), now));

  std::vector<GroupId> shed;
  for (AdmissionClass klass : kShedOrder) {
    while (std::optional<PendingPlayRequest> victim = queue.TakeNewest(klass)) {
      shed.push_back(victim->group);
    }
  }
  EXPECT_EQ(shed, (std::vector<GroupId>{5, 2, 4, 1}));
  EXPECT_EQ(Order(queue), (std::vector<GroupId>{3}));
}

TEST(AdmissionQueueTest, CountsByClassAndTitle) {
  AdmissionQueue queue;
  const SimTime now = SimTime::Seconds(1);
  ASSERT_TRUE(queue.Push(Queued(1, AdmissionClass::kStandard, false, "a"), now));
  ASSERT_TRUE(queue.Push(Queued(2, AdmissionClass::kBulk, /*record=*/true, "a"), now));
  ASSERT_TRUE(queue.Push(Queued(3, AdmissionClass::kStandard, false, "b"), now));
  ASSERT_TRUE(queue.Push(Queued(4, AdmissionClass::kStandard, false, "a"), now));
  EXPECT_EQ(queue.QueuedPlays("a"), 2u);  // the recording does not count
  EXPECT_EQ(queue.QueuedPlays("b"), 1u);
  EXPECT_EQ(queue.QueuedPlays("c"), 0u);
  EXPECT_EQ(queue.count(AdmissionClass::kStandard), 3u);
  EXPECT_EQ(queue.count(AdmissionClass::kInteractive), 0u);
  EXPECT_TRUE(queue.Contains(3));
  EXPECT_FALSE(queue.Contains(7));
}

TEST(AdmissionQueueTest, StandbyParksResolvesAndRequeuesAtTakeover) {
  // The standby mirrors the primary's records: pushes, pops for a retry
  // (parked until the outcome is logged), and drops.
  AdmissionQueue queue;
  for (GroupId group = 1; group <= 5; ++group) {
    PendingPlayRequest request = Queued(group, AdmissionClass::kStandard);
    request.enqueued_at = SimTime::Seconds(group);
    queue.Mirror(request);
  }
  EXPECT_EQ(queue.requests().front().enqueued_at, SimTime::Seconds(1));  // as shipped
  for (GroupId group = 1; group <= 4; ++group) {
    queue.Park(group);
  }
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_EQ(queue.parked_count(), 4u);

  queue.Unpark(1);  // group 1's retry started its stream
  PendingPlayRequest requeued = Queued(2, AdmissionClass::kStandard);
  requeued.enqueued_at = SimTime::Seconds(2);
  queue.Mirror(requeued);  // group 2's retry found no room: back in line
  queue.Forget(3);         // group 3's retry failed for good
  queue.Forget(5);         // group 5 expired while queued
  EXPECT_EQ(Order(queue), (std::vector<GroupId>{2}));
  EXPECT_EQ(queue.parked_count(), 1u);

  // Takeover: only the unresolved retry (group 4) comes back.
  queue.RequeueParked();
  EXPECT_EQ(Order(queue), (std::vector<GroupId>{2, 4}));
  EXPECT_EQ(queue.parked_count(), 0u);

  queue.Park(2);
  queue.Clear();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.parked_count(), 0u);
}

}  // namespace
}  // namespace calliope
