// Overload-control suite (DESIGN §5.9): the deterministic workload
// generator, the bounded/deadlined pending queue, admission-class priority,
// and the SLO-driven saturation governor.
//
//   * schedule generation is a pure function of the config (equal seeds,
//     equal bytes);
//   * queued requests expire after their queue deadline with an explicit
//     client notification (regression for the unbounded-wait bug — this part
//     is on by default, independent of the class machinery);
//   * with traffic control on, freed capacity goes to interactive requests
//     before bulk ones;
//   * the chaos composition (workload generator x random fault plan) yields
//     byte-identical ClusterReports per seed (CALLIOPE_CHAOS_SEED sweep);
//   * the acceptance scenario: offered load at ~2x capacity with shedding
//     keeps interactive sessions served on time and sheds only lower
//     classes, with explicit notices; the same seed without shedding shows
//     the pending-depth SLO breaching.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "src/fault/fault.h"
#include "src/load/workload.h"
#include "src/obs/report_diff.h"
#include "tests/test_util.h"

namespace calliope {
namespace {

uint64_t ChaosSeed() {
  const char* env = std::getenv("CALLIOPE_CHAOS_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

std::string ScheduleToString(const std::vector<SessionPlan>& schedule) {
  std::string out;
  for (const SessionPlan& plan : schedule) {
    out += SessionKindName(plan.kind);
    out += " t=" + plan.start.ToString() + " title=" + std::to_string(plan.title) +
           " host=" + std::to_string(plan.client_host) + " hold=" + plan.hold.ToString() +
           " ops=" + std::to_string(plan.ops_seed) + "\n";
  }
  return out;
}

// ---- schedule generation ----------------------------------------------------

TEST(LoadTest, ScheduleIsPureFunctionOfConfig) {
  WorkloadConfig config;
  config.seed = 42;
  config.phases = {WorkloadPhase(SimTime::Seconds(20), 2.0)};
  const std::vector<SessionPlan> a = BuildWorkloadSchedule(config);
  const std::vector<SessionPlan> b = BuildWorkloadSchedule(config);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(ScheduleToString(a), ScheduleToString(b));

  config.seed = 43;
  const std::vector<SessionPlan> c = BuildWorkloadSchedule(config);
  EXPECT_NE(ScheduleToString(a), ScheduleToString(c));

  // Every arrival lands inside the schedule horizon, in time order.
  const SimTime horizon = WorkloadHorizon(config);
  SimTime last;
  for (const SessionPlan& plan : c) {
    EXPECT_LT(plan.start, horizon);
    EXPECT_GE(plan.start, last);
    last = plan.start;
  }
}

TEST(LoadTest, PhasesShapeTheArrivalRate) {
  WorkloadConfig config;
  config.seed = 7;
  config.phases = FlashCrowdPhases(/*base=*/0.5, /*spike=*/8.0, SimTime::Seconds(10),
                                   SimTime::Seconds(5), SimTime::Seconds(10));
  const std::vector<SessionPlan> schedule = BuildWorkloadSchedule(config);
  int before = 0;
  int burst = 0;
  int after = 0;
  for (const SessionPlan& plan : schedule) {
    if (plan.start < SimTime::Seconds(10)) {
      ++before;
    } else if (plan.start < SimTime::Seconds(15)) {
      ++burst;
    } else {
      ++after;
    }
  }
  // The 5 s burst at 16x the base rate dominates both 10 s shoulders.
  EXPECT_GT(burst, before + after);

  // A diurnal day has a quiet trough and a busy peak.
  WorkloadConfig diurnal;
  diurnal.seed = 7;
  diurnal.phases = DiurnalPhases(/*trough=*/0.2, /*peak=*/6.0, SimTime::Seconds(40));
  int trough_arrivals = 0;
  int peak_arrivals = 0;
  for (const SessionPlan& plan : BuildWorkloadSchedule(diurnal)) {
    if (plan.start < SimTime::Seconds(10)) {
      ++trough_arrivals;
    } else if (plan.start >= SimTime::Seconds(20) && plan.start < SimTime::Seconds(30)) {
      ++peak_arrivals;
    }
  }
  EXPECT_GT(peak_arrivals, trough_arrivals);
}

TEST(LoadTest, SessionKindsMapToAdmissionClasses) {
  EXPECT_EQ(ClassForSession(SessionPlan::Kind::kSurfer), AdmissionClass::kInteractive);
  EXPECT_EQ(ClassForSession(SessionPlan::Kind::kViewer), AdmissionClass::kStandard);
  EXPECT_EQ(ClassForSession(SessionPlan::Kind::kArchive), AdmissionClass::kBulk);
  EXPECT_EQ(ClassForSession(SessionPlan::Kind::kRecorder), AdmissionClass::kBulk);
}

// ---- queue deadlines (on by default; regression for the unbounded wait) -----

TEST(LoadTest, QueuedRequestExpiresAfterDeadlineWithExplicitNotice) {
  InstallationConfig config;
  config.msu_count = 1;
  config.msu_machine.disks_per_hba = {1};
  // One MPEG-1 viewer fits; the second queues.
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  config.coordinator.pending_deadline = SimTime::Seconds(5);
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(
      cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto first = PlayOn(cluster.sim(), **client, "m0", "tv0");
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->queued);
  auto second = PlayOn(cluster.sim(), **client, "m0", "tv1");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->queued);
  EXPECT_EQ(cluster.coordinator().pending_request_count(), 1u);

  // Nothing frees up; the queue deadline must fire, not wait forever.
  cluster.sim().RunFor(SimTime::Seconds(6));
  EXPECT_EQ(cluster.coordinator().pending_request_count(), 0u);
  EXPECT_EQ(cluster.coordinator().requests_expired(), 1);
  EXPECT_EQ(cluster.installation().metrics().counter("coord.requests.expired").value(), 1);
  // The client was told explicitly — no silent starvation.
  EXPECT_TRUE((*client)->GroupTerminated(second->group));
  EXPECT_NE((*client)->GroupFailure(second->group).find("deadline"), std::string::npos)
      << (*client)->GroupFailure(second->group);
  // The first viewer is untouched.
  EXPECT_FALSE((*client)->GroupTerminated(first->group));
}

TEST(LoadTest, QueuedRequestSurvivesWellInsideDeadline) {
  InstallationConfig config;
  config.msu_count = 1;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  // Default (generous) deadline: a queued request must still be waiting
  // after a capacity blip shorter than the deadline, and must start once
  // capacity frees.
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(
      cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(20), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto first = PlayOn(cluster.sim(), **client, "m0", "tv0");
  ASSERT_TRUE(first.ok());
  auto second = PlayOn(cluster.sim(), **client, "m0", "tv1");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->queued);

  cluster.sim().RunFor(SimTime::Seconds(3));
  EXPECT_EQ(cluster.coordinator().requests_expired(), 0);
  EXPECT_EQ(cluster.coordinator().pending_request_count(), 1u);

  ASSERT_TRUE(QuitGroup(cluster.sim(), **client, first->group).ok());
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] { return cluster.coordinator().pending_request_count() == 0; },
                       SimTime::Seconds(10)));
  EXPECT_EQ(cluster.coordinator().requests_expired(), 0);
  EXPECT_FALSE((*client)->GroupTerminated(second->group));
}

// ---- class priority ---------------------------------------------------------

TEST(LoadTest, FreedCapacityGoesToInteractiveBeforeBulk) {
  InstallationConfig config;
  config.msu_count = 1;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  config.coordinator.traffic.enabled = true;
  config.coordinator.traffic.interactive_deadline = SimTime::Seconds(60);
  config.coordinator.traffic.bulk_deadline = SimTime::Seconds(60);
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(
      cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto holder = PlayOn(cluster.sim(), **client, "m0", "tv0");
  ASSERT_TRUE(holder.ok());
  EXPECT_FALSE(holder->queued);

  // Bulk queues first, interactive second: FIFO would hand the freed slot to
  // bulk; class priority must hand it to the surfer.
  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "tv1", "mpeg1").ok());
  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "tv2", "mpeg1").ok());
  CoResult<Result<CalliopeClient::StartResult>> bulk_play;
  Collect((*client)->Play("m0", "tv1", AdmissionClass::kBulk), &bulk_play);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return bulk_play.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(bulk_play.value->ok());
  EXPECT_TRUE((*bulk_play.value)->queued);
  CoResult<Result<CalliopeClient::StartResult>> surf_play;
  Collect((*client)->Play("m0", "tv2", AdmissionClass::kInteractive), &surf_play);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return surf_play.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(surf_play.value->ok());
  EXPECT_TRUE((*surf_play.value)->queued);
  EXPECT_EQ(cluster.coordinator().pending_count_for(AdmissionClass::kBulk), 1u);
  EXPECT_EQ(cluster.coordinator().pending_count_for(AdmissionClass::kInteractive), 1u);

  ASSERT_TRUE(QuitGroup(cluster.sim(), **client, holder->group).ok());
  // Exactly one slot frees: the interactive request must take it.
  EXPECT_TRUE(RunUntil(cluster.sim(),
                       [&] {
                         ClientDisplayPort* port = (*client)->FindPort("tv2");
                         return port != nullptr && port->packets_received() > 0;
                       },
                       SimTime::Seconds(10)));
  EXPECT_EQ(cluster.coordinator().pending_count_for(AdmissionClass::kBulk), 1u);
  EXPECT_EQ(cluster.coordinator().pending_count_for(AdmissionClass::kInteractive), 0u);
  ClientDisplayPort* bulk_port = (*client)->FindPort("tv1");
  ASSERT_NE(bulk_port, nullptr);
  EXPECT_EQ(bulk_port->packets_received(), 0);
}

TEST(LoadTest, FullClassQueueRejectsNewestExplicitly) {
  InstallationConfig config;
  config.msu_count = 1;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);
  config.coordinator.traffic.enabled = true;
  config.coordinator.traffic.bulk_queue_cap = 1;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());
  ASSERT_TRUE(
      cluster.installation().LoadMpegMovie("m0", SimTime::Seconds(60), 0, false).ok());

  auto client = cluster.AddConnectedClient("c");
  ASSERT_TRUE(client.ok());
  auto holder = PlayOn(cluster.sim(), **client, "m0", "tv0");
  ASSERT_TRUE(holder.ok());

  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "tv1", "mpeg1").ok());
  ASSERT_TRUE(RegisterClientPort(cluster.sim(), **client, "tv2", "mpeg1").ok());
  CoResult<Result<CalliopeClient::StartResult>> queued;
  Collect((*client)->Play("m0", "tv1", AdmissionClass::kBulk), &queued);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return queued.done(); }, SimTime::Seconds(5)));
  ASSERT_TRUE(queued.value->ok());
  EXPECT_TRUE((*queued.value)->queued);

  // The bulk queue (cap 1) is full: the next bulk request is refused at
  // submit, not silently parked.
  CoResult<Result<CalliopeClient::StartResult>> overflow;
  Collect((*client)->Play("m0", "tv2", AdmissionClass::kBulk), &overflow);
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return overflow.done(); }, SimTime::Seconds(5)));
  EXPECT_FALSE(overflow.value->ok());
  EXPECT_EQ(cluster.coordinator().pending_count_for(AdmissionClass::kBulk), 1u);
  EXPECT_GE(
      cluster.installation().metrics().counter("coord.admission.bulk.shed").value(), 1);
}

// Regression: with sharing on, every eligible request is batched and the
// client told queued=false; when the batch cannot be placed the Coordinator
// parks its requests in the pending queue (StartSharedGroup's degraded exit).
// A parked request whose ready wait then timed out was booked as a submit
// refusal (load.requests.rejected). It was accepted at submit and never
// started, so it is a failure (load.requests.failed).
TEST(LoadTest, ReadyTimeoutAfterAcceptedSubmitCountsAsFailed) {
  InstallationConfig config;
  config.msu_count = 1;
  config.msu_machine.disks_per_hba = {1};
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(0.2);  // one viewer fits
  config.coordinator.sharing.enabled = true;
  TestCluster cluster(config);
  ASSERT_TRUE(cluster.Boot().ok());

  WorkloadConfig workload;
  workload.seed = 5;
  workload.titles = 2;
  workload.archive_titles = 0;
  workload.client_hosts = 1;
  workload.mix.viewer = 1;
  workload.mix.surfer = 0;
  workload.mix.archive = 0;
  workload.mix.recorder = 0;
  workload.phases = {WorkloadPhase(SimTime::Seconds(6), 1.0)};
  workload.viewer_hold_mean = SimTime::Seconds(20);
  workload.ready_timeout = SimTime::Seconds(3);
  WorkloadDriver driver(cluster.installation(), workload);
  ASSERT_TRUE(driver.Prepare().ok());
  driver.Start();
  ASSERT_TRUE(RunUntil(cluster.sim(), [&] { return driver.done(); }, SimTime::Seconds(120)));

  const WorkloadStats& stats = driver.stats();
  EXPECT_GT(stats.started, 0);
  EXPECT_GT(stats.failed, 0);
  EXPECT_EQ(stats.rejected, 0);
  EXPECT_EQ(stats.started + stats.failed, stats.arrivals);
  MetricsRegistry& metrics = cluster.installation().metrics();
  EXPECT_EQ(metrics.counter("load.requests.failed").value(), stats.failed);
  EXPECT_EQ(metrics.counter("load.requests.rejected").value(), 0);
}

// ---- chaos composition: workload generator x random faults ------------------

struct LoadChaosResult {
  LoadChaosResult() = default;

  std::string schedule;
  std::string report;
  ClusterReport cluster_report;
  WorkloadStats stats;
};

LoadChaosResult RunLoadChaos(uint64_t seed) {
  LoadChaosResult result;
  InstallationConfig config;
  config.seed = seed;
  config.msu_count = 2;
  config.sampler.period = SimTime::Millis(250);
  SloSpec depth;
  depth.name = "queue-depth";
  depth.signal = SloSpec::Signal::kPendingDepth;
  depth.threshold = 4;
  depth.min_breach_windows = 2;
  config.slos.push_back(depth);
  config.coordinator.traffic.enabled = true;
  TestCluster cluster(config);
  EXPECT_TRUE(cluster.Boot().ok());

  WorkloadConfig workload;
  workload.seed = seed;
  workload.titles = 3;
  workload.archive_titles = 1;
  workload.client_hosts = 2;
  workload.phases = {WorkloadPhase(SimTime::Seconds(8), 1.5)};
  workload.viewer_hold_mean = SimTime::Seconds(3);
  workload.surfer_hold_mean = SimTime::Seconds(2);
  workload.recording_length = SimTime::Seconds(2);
  workload.ready_timeout = SimTime::Seconds(15);
  WorkloadDriver driver(cluster.installation(), workload);
  result.schedule = ScheduleToString(driver.schedule());
  EXPECT_TRUE(driver.Prepare().ok());

  FaultPlanOptions options;
  options.msu_nodes = {"msu0", "msu1"};
  options.horizon = SimTime::Seconds(12);
  options.include_coordinator_restart = false;  // sessions need not re-open
  FaultPlan plan = FaultPlan::Random(seed, options);
  EXPECT_TRUE(cluster.installation().ApplyFaultPlan(plan).ok());

  driver.Start();
  EXPECT_TRUE(RunUntil(cluster.sim(), [&] { return driver.done(); }, SimTime::Seconds(90)));
  EXPECT_TRUE(cluster.WaitForIdle(SimTime::Seconds(60)));
  EXPECT_EQ(driver.stats().arrivals, static_cast<int64_t>(driver.schedule().size()));
  EXPECT_EQ(driver.stats().finished, driver.stats().arrivals);

  result.cluster_report = cluster.installation().BuildClusterReport();
  result.report = result.cluster_report.ToJson();
  result.stats = driver.stats();
  return result;
}

TEST(LoadTest, ChaosWorkloadIsByteIdenticalPerSeed) {
  const uint64_t seed = ChaosSeed();
  const LoadChaosResult a = RunLoadChaos(seed);
  const LoadChaosResult b = RunLoadChaos(seed);
  EXPECT_EQ(a.schedule, b.schedule);
  EXPECT_EQ(a.report, b.report)
      << DiffClusterReports(a.cluster_report, b.cluster_report).ToText();
  EXPECT_GT(a.stats.started, 0);
}

// ---- the acceptance scenario: ~2x capacity, shed on vs off ------------------

struct SaturationResult {
  SaturationResult() = default;

  std::string report;
  int64_t interactive_shed = 0;
  int64_t standard_shed = 0;
  int64_t bulk_shed = 0;
  int64_t shed_rejected = 0;
  int64_t shed_episodes = 0;
  int64_t breach_episodes = 0;  // pending-depth SLO
  int64_t worst_depth = 0;
  int64_t interactive_started = 0;
  int64_t interactive_refused = 0;
  int64_t lower_refused = 0;
  int64_t explicit_failures = 0;
  int64_t interactive_worst_p99_us = 0;
  bool timed_out = false;
};

SaturationResult RunSaturation(uint64_t seed, bool shedding) {
  SaturationResult result;
  InstallationConfig config;
  config.seed = seed;
  config.msu_count = 1;
  config.msu_machine.disks_per_hba = {1};
  // Five concurrent MPEG-1 viewers fit on the single disk.
  config.coordinator.disk_budget = DataRate::MegabytesPerSec(1.0);
  config.sampler.period = SimTime::Millis(250);
  SloSpec depth;
  depth.name = "queue-depth";
  depth.signal = SloSpec::Signal::kPendingDepth;
  depth.threshold = 3;
  depth.min_breach_windows = 2;
  config.slos.push_back(depth);
  SloSpec lateness;
  lateness.name = "lateness-p99";
  lateness.signal = SloSpec::Signal::kLatenessP99;
  lateness.threshold = SimTime::Millis(20).micros();
  lateness.min_breach_windows = 2;
  config.slos.push_back(lateness);
  if (shedding) {
    config.coordinator.traffic.enabled = true;
    // Queue deadlines stay out of the way so the governor's shedding (not
    // expiry) is what bounds the backlog.
    config.coordinator.traffic.interactive_deadline = SimTime::Seconds(120);
    config.coordinator.traffic.standard_deadline = SimTime::Seconds(120);
    config.coordinator.traffic.bulk_deadline = SimTime::Seconds(120);
  }
  TestCluster cluster(config);
  EXPECT_TRUE(cluster.Boot().ok());

  // Offered load ~2x capacity: ~1.7 arrivals/s x ~6 s mean hold ~= 10
  // concurrent stream-equivalents against 5 slots.
  WorkloadConfig workload;
  workload.seed = seed;
  workload.titles = 3;
  workload.archive_titles = 1;
  workload.client_hosts = 3;
  workload.phases = {WorkloadPhase(SimTime::Seconds(18), 1.7)};
  workload.viewer_hold_mean = SimTime::Seconds(6);
  workload.surfer_hold_mean = SimTime::Seconds(4);
  workload.recording_length = SimTime::Seconds(2);
  workload.ready_timeout = SimTime::Seconds(25);
  WorkloadDriver driver(cluster.installation(), workload);
  EXPECT_TRUE(driver.Prepare().ok());
  driver.Start();
  result.timed_out =
      !RunUntil(cluster.sim(), [&] { return driver.done(); }, SimTime::Seconds(120));
  EXPECT_TRUE(cluster.WaitForIdle(SimTime::Seconds(120)));

  MetricsRegistry& metrics = cluster.installation().metrics();
  if (shedding) {
    result.interactive_shed = metrics.counter("coord.admission.interactive.shed").value();
    result.standard_shed = metrics.counter("coord.admission.standard.shed").value();
    result.bulk_shed = metrics.counter("coord.admission.bulk.shed").value();
    result.shed_rejected = metrics.counter("coord.shed.rejected").value();
    result.shed_episodes = metrics.counter("coord.shed.episodes").value();
  }
  const ClusterReport report = cluster.installation().BuildClusterReport();
  result.report = report.ToJson();
  if (report.timeline.has_value()) {
    for (const SloBreachReport& slo : report.timeline->slos) {
      if (slo.name == "queue-depth") {
        result.breach_episodes = slo.breach_episodes;
        result.worst_depth = slo.worst_value;
      }
    }
  }
  const WorkloadStats& stats = driver.stats();
  const size_t interactive = static_cast<size_t>(AdmissionClass::kInteractive);
  const size_t standard = static_cast<size_t>(AdmissionClass::kStandard);
  const size_t bulk = static_cast<size_t>(AdmissionClass::kBulk);
  result.interactive_started = stats.started_by_class[interactive];
  result.interactive_refused = stats.refused_by_class[interactive];
  result.lower_refused = stats.refused_by_class[standard] + stats.refused_by_class[bulk];
  result.explicit_failures = stats.failed + stats.rejected;
  for (GroupId group : driver.started_groups(AdmissionClass::kInteractive)) {
    for (const StreamQosReport& stream : report.streams) {
      if (stream.group_id == group && stream.p99_lateness_us > result.interactive_worst_p99_us) {
        result.interactive_worst_p99_us = stream.p99_lateness_us;
      }
    }
  }
  return result;
}

TEST(LoadTest, SaturationShedsOnlyLowerClassesAndHoldsInteractiveSlo) {
  const uint64_t seed = ChaosSeed();
  const SaturationResult on = RunSaturation(seed, /*shedding=*/true);
  EXPECT_FALSE(on.timed_out);
  // The governor engaged, and interactive traffic was never its victim.
  EXPECT_GE(on.shed_episodes, 1);
  EXPECT_EQ(on.interactive_shed, 0);
  EXPECT_GT(on.standard_shed + on.bulk_shed, 0);
  EXPECT_EQ(on.interactive_refused, 0);
  EXPECT_GT(on.lower_refused, 0);
  // Every turned-away viewer heard about it explicitly.
  EXPECT_EQ(on.explicit_failures, on.lower_refused + on.interactive_refused);
  // Interactive sessions were served on schedule (within the lateness SLO).
  EXPECT_GT(on.interactive_started, 0);
  EXPECT_LE(on.interactive_worst_p99_us, SimTime::Millis(20).micros());

  // Same seed, shedding off: the backlog grows unchecked and the
  // pending-depth SLO breaches.
  const SaturationResult off = RunSaturation(seed, /*shedding=*/false);
  EXPECT_GE(off.breach_episodes, 1);
  EXPECT_GT(off.worst_depth, 3);
  EXPECT_GT(off.worst_depth, on.worst_depth);

  // Both modes are deterministic: same seed, same bytes.
  const SaturationResult on2 = RunSaturation(seed, /*shedding=*/true);
  EXPECT_EQ(on.report, on2.report);
  const SaturationResult off2 = RunSaturation(seed, /*shedding=*/false);
  EXPECT_EQ(off.report, off2.report);
}

}  // namespace
}  // namespace calliope
