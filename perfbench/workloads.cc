#include "perfbench/workloads.h"

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <map>
#include <memory>
#include <utility>

#include "src/calliope/calliope.h"
#include "src/load/workload.h"
#include "src/util/rng.h"

namespace perfbench {

using calliope::AdmissionClass;
using calliope::Bytes;
using calliope::CalliopeClient;
using calliope::ClientDisplayPort;
using calliope::DataRate;
using calliope::Fidelity;
using calliope::GroupId;
using calliope::Installation;
using calliope::InstallationConfig;
using calliope::LatenessHistogram;
using calliope::MetricsSnapshot;
using calliope::Rng;
using calliope::Segment;
using calliope::SimTime;
using calliope::Simulator;
using calliope::Status;
using calliope::Task;

namespace {

// MPEG-1 nominal rate: delivered bytes / this = stream-seconds delivered.
constexpr double kStreamBytesPerSec = 1.5e6 / 8.0;
// Viewer/slot/queue sampling cadence. Flow-mode chunks carry up to one 256 KB
// page (~1.4 s of MPEG-1), so a served port receives something every step.
constexpr SimTime kSampleStep = SimTime::Seconds(2);
constexpr SimTime kReadyTimeout = SimTime::Seconds(30);
constexpr double kPaperOnTimePct = 99.6;  // Graph 1, 22 streams, within 50 ms

// Workload shapes (see NOTES.md for why each was chosen).
constexpr int kFleetMsus = 200;
constexpr int kFleetPerMsu = 22;
constexpr int kFleetDisks = 2;
constexpr double kFleetRampPerSec = 200.0;
constexpr SimTime kFleetWindow = SimTime::Seconds(20);
constexpr int kGraph1Msus = 8;
constexpr int kGraph1PerMsu = 22;
constexpr SimTime kGraph1Settle = SimTime::Seconds(5);
constexpr SimTime kGraph1Window = SimTime::Seconds(120);
constexpr int kZipfMsus = 8;
constexpr SimTime kZipfLead = SimTime::Seconds(10);  // quiet phase covering boot
constexpr SimTime kZipfArrivals = SimTime::Seconds(600);
constexpr double kZipfRatePerSec = 3.0;
constexpr SimTime kZipfWarmup = SimTime::Seconds(100);
constexpr SimTime kZipfDrainSlack = SimTime::Seconds(300);
constexpr int kZipfClientHosts = 24;
// zipf-churn runs this many independent cells (same shape, seeds derived
// from --seed) and reports their mean: its QoS figures drift between
// long-lived regimes within one run, so more cells steady them where a
// longer window does not.
constexpr int kZipfCells = 4;
// Diskless viewer hosts saturate near ~37 streams; 16 per host is generous.
constexpr int kStreamsPerClientHost = 16;

const char* const kClassNames[] = {"interactive", "standard", "bulk"};

// One client session, whether the benchmark drives it (fleet-flow,
// graph1-packet) or the src/load WorkloadDriver does (zipf-churn).
struct Session {
  int64_t id = 0;
  SimTime due;  // scheduled request time; startup is timed from here
  CalliopeClient* client = nullptr;
  std::string port_name;
  std::string title;
  bool playback = true;  // recorders have no startup
  // Outcome of benchmark-driven sessions.
  bool done = false;
  bool started = false;
  GroupId group = 0;
  SimTime rpc_start;
  SimTime rpc_end;
  bool rpc_timed = false;
  ClientDisplayPort* port = nullptr;
  int64_t sampled_packets = 0;
};

// Per-resource busy time at a phase boundary, for utilization over a window.
struct HwMark {
  SimTime at;
  std::vector<double> msu_cpu_busy_s;
  std::vector<double> scsi_busy_s;
  std::vector<double> disk_bytes;
  double coord_cpu_busy_s = 0;
  double intra_busy_s = 0;
  double delivery_busy_s = 0;
};

class Repetition {
 public:
  Repetition(WorkloadKind kind, uint64_t seed, SpanLog& spans)
      : kind_(kind), seed_(seed), spans_(spans) {}

  Repetition(const Repetition&) = delete;
  Repetition& operator=(const Repetition&) = delete;

  double Setup();
  void Measure();
  RepResult Collect();

 private:
  InstallationConfig Config() const;
  Status LoadContent();
  void PlanSessions();
  Status ConnectClients();
  Task ArrivalLoop();
  Task PlaySession(Session* session);
  bool AllResolved() const;
  enum class Phase { kRamp, kSteady, kDrain };
  // One RunFor slice, then the benchmark's own sampling. Viewers and slots
  // are averaged over kSteady slices only.
  void Slice(SimTime span, Phase phase);
  HwMark MarkHardware() const;
  // Span helpers; before the installation exists the sim clock reads zero.
  int Begin(const char* name, int parent) {
    return calliope_ == nullptr ? spans_.Begin(name, parent, -1, SimTime(), 0)
                                : spans_.Begin(name, parent, -1, sim().Now(), sim().events_fired());
  }
  void End(int span) {
    if (calliope_ == nullptr) {
      spans_.End(span, SimTime(), 0);
    } else {
      spans_.End(span, sim().Now(), sim().events_fired());
    }
  }
  Simulator& sim() const { return calliope_->sim(); }
  // Records one failed gate check; the run reports each check once, with
  // its count and first instance.
  void Fail(const std::string& check, const std::string& detail);
  std::vector<std::string> GateErrors() const;

  WorkloadKind kind_;
  uint64_t seed_;
  SpanLog& spans_;
  // Declared before the installation so session frames parked in its
  // simulator never outlive the records they point at.
  std::vector<Session> sessions_;
  std::vector<char> connected_;
  std::unique_ptr<Installation> calliope_;
  std::unique_ptr<calliope::WorkloadDriver> driver_;
  std::vector<CalliopeClient*> clients_;

  // [host] seconds.
  double setup_s_ = 0;
  double boot_s_ = 0;
  double content_s_ = 0;
  double schedule_s_ = 0;
  double measured_s_ = 0;
  double ramp_s_ = 0;
  double steady_s_ = 0;
  double drain_s_ = 0;
  double report_s_ = 0;
  int measure_span_ = -1;
  // [sim] accumulators.
  int64_t events_at_start_ = 0;
  int64_t viewer_samples_ = 0;
  double viewer_sum_ = 0;
  double slots_sum_ = 0;
  int64_t pending_max_ = 0;
  SimTime measure_start_;
  HwMark start_mark_;
  std::string report_hash_;
  std::map<std::string, std::pair<int64_t, std::string>> failures_;
  int64_t gate_failures_ = 0;
};

InstallationConfig Repetition::Config() const {
  InstallationConfig config;
  config.seed = seed_;
  switch (kind_) {
    case WorkloadKind::kFleetFlow:
      // The Graph 1 machine at its working point (11 streams per disk), 200
      // times over. Denser MSUs saturate the modelled MSU CPU (see NOTES.md).
      config.msu_count = kFleetMsus;
      config.msu_machine.disks_per_hba = {2};
      config.coordinator.disk_budget = DataRate::MegabytesPerSec(2.2);
      config.msu.fidelity.default_mode = Fidelity::kFlow;
      config.msu.fidelity.quiet_window = SimTime::Millis(300);
      break;
    case WorkloadKind::kGraph1Packet:
      // The Graph 1 machine (two disks on one HBA), 11 streams per disk.
      config.msu_count = kGraph1Msus;
      config.msu_machine.disks_per_hba = {2};
      config.coordinator.disk_budget = DataRate::MegabytesPerSec(2.2);
      break;
    case WorkloadKind::kZipfChurn: {
      config.msu_count = kZipfMsus;
      config.msu_machine.disks_per_hba = {2};
      config.msu.fidelity.default_mode = Fidelity::kFlow;
      config.msu.cache_memory = Bytes::MiB(32);
      config.coordinator.sharing.enabled = true;
      config.coordinator.rebalance.enabled = true;
      config.coordinator.traffic.enabled = true;
      // The traffic governor sheds while any SLO breaches.
      config.sampler.period = SimTime::Seconds(1);
      calliope::SloSpec depth;
      depth.name = "queue-depth";
      depth.signal = calliope::SloSpec::Signal::kPendingDepth;
      depth.threshold = 24;
      depth.min_breach_windows = 3;
      config.slos.push_back(depth);
      break;
    }
  }
  return config;
}

calliope::WorkloadConfig ZipfWorkload(uint64_t seed) {
  calliope::WorkloadConfig workload;
  workload.seed = seed;
  workload.titles = 32;
  workload.archive_titles = 24;
  workload.zipf_skew = 1.0;
  workload.title_length = SimTime::Seconds(300);
  workload.archive_length = SimTime::Seconds(240);
  workload.client_hosts = kZipfClientHosts;
  workload.phases = {calliope::WorkloadPhase(kZipfLead, 0.0),
                     calliope::WorkloadPhase(kZipfArrivals, kZipfRatePerSec)};
  workload.viewer_hold_mean = SimTime::Seconds(120);
  workload.surfer_hold_mean = SimTime::Seconds(30);
  workload.recording_length = SimTime::Seconds(30);
  workload.ready_timeout = kReadyTimeout;
  return workload;
}

void Repetition::Fail(const std::string& check, const std::string& detail) {
  ++gate_failures_;
  auto [it, first] = failures_.try_emplace(check, 0, detail);
  ++it->second.first;
}

std::vector<std::string> Repetition::GateErrors() const {
  std::vector<std::string> out;
  for (const auto& [check, failure] : failures_) {
    out.push_back(check + ": " + std::to_string(failure.first) + " (first: " + failure.second +
                  ")");
  }
  return out;
}

Status Repetition::LoadContent() {
  switch (kind_) {
    case WorkloadKind::kFleetFlow: {
      const SimTime ramp = SimTime::Seconds(kFleetMsus * kFleetPerMsu / kFleetRampPerSec);
      const SimTime length = ramp + kReadyTimeout + kFleetWindow + SimTime::Seconds(30);
      for (int m = 0; m < kFleetMsus; ++m) {
        for (int d = 0; d < kFleetDisks; ++d) {
          CALLIOPE_RETURN_IF_ERROR(calliope_->LoadMpegMovie(
              "s" + std::to_string(m) + "_" + std::to_string(d), length,
              static_cast<size_t>(m), /*with_fast_scan=*/false, d));
        }
      }
      return calliope::OkStatus();
    }
    case WorkloadKind::kGraph1Packet: {
      const SimTime length = kReadyTimeout + kGraph1Settle + kGraph1Window + SimTime::Seconds(60);
      for (int m = 0; m < kGraph1Msus; ++m) {
        for (int i = 0; i < kGraph1PerMsu; ++i) {
          CALLIOPE_RETURN_IF_ERROR(calliope_->LoadMpegMovie(
              "g" + std::to_string(m) + "_" + std::to_string(i), length,
              static_cast<size_t>(m), /*with_fast_scan=*/false, i % 2));
        }
      }
      return calliope::OkStatus();
    }
    case WorkloadKind::kZipfChurn: {
      CALLIOPE_RETURN_IF_ERROR(driver_->Prepare());
      // Mirror the four most popular titles on the next MSU so failover
      // after the crash has somewhere to re-place their streams.
      for (int t = 0; t < 4; ++t) {
        CALLIOPE_RETURN_IF_ERROR(calliope_->ReplicateContent(
            "wl-t" + std::to_string(t), static_cast<size_t>(t + 1) % kZipfMsus));
      }
      return calliope::OkStatus();
    }
  }
  return calliope::OkStatus();
}

void Repetition::PlanSessions() {
  if (kind_ == WorkloadKind::kZipfChurn) {
    const auto& schedule = driver_->schedule();
    sessions_.resize(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      const calliope::SessionPlan& plan = schedule[i];
      Session& s = sessions_[i];
      s.id = static_cast<int64_t>(i);
      s.due = plan.start;
      s.client = driver_->client(plan.client_host);
      s.port_name = "wp" + std::to_string(i);  // WorkloadDriver's port naming
      s.playback = plan.kind != calliope::SessionPlan::Kind::kRecorder;
    }
    return;
  }
  // Benchmark-driven sessions: every title requested the same number of
  // times, in a seeded order, one request per host round-robin.
  const bool fleet = kind_ == WorkloadKind::kFleetFlow;
  const int msus = fleet ? kFleetMsus : kGraph1Msus;
  const int per_msu = fleet ? kFleetPerMsu : kGraph1PerMsu;
  std::vector<std::string> titles;
  for (int m = 0; m < msus; ++m) {
    for (int i = 0; i < per_msu; ++i) {
      titles.push_back(fleet ? "s" + std::to_string(m) + "_" + std::to_string(i % kFleetDisks)
                             : "g" + std::to_string(m) + "_" + std::to_string(i));
    }
  }
  Rng rng(seed_ ^ 0x5E55104Eull);
  for (size_t i = titles.size(); i > 1; --i) {
    std::swap(titles[i - 1], titles[rng.NextBelow(i)]);
  }
  const SimTime t0 = sim().Now() + SimTime::Millis(100);
  sessions_.resize(titles.size());
  for (size_t i = 0; i < titles.size(); ++i) {
    Session& s = sessions_[i];
    s.id = static_cast<int64_t>(i);
    // fleet-flow: a paced ramp; graph1-packet: every request at once, as in
    // the paper's experiment.
    s.due = fleet ? t0 + SimTime::Micros(static_cast<int64_t>(
                             std::llround(static_cast<double>(i) * 1e6 / kFleetRampPerSec)))
                  : t0;
    s.client = clients_[i % clients_.size()];
    s.port_name = "tv" + std::to_string(i);
    s.title = titles[i];
  }
}

Status Repetition::ConnectClients() {
  // Benchmark-driven hosts report through connected_ (a member: the Connect
  // frames may outlive this call). WorkloadDriver::Start set its own hosts
  // connecting; each has a session once its Connect returned.
  connected_.assign(clients_.size(), 0);
  if (kind_ != WorkloadKind::kZipfChurn) {
    for (size_t c = 0; c < clients_.size(); ++c) {
      [](CalliopeClient* client, char* flag) -> Task {
        *flag = (co_await client->Connect("bob", "bob-key")).ok() ? 1 : 2;
      }(clients_[c], &connected_[c]);
    }
  }
  const SimTime deadline = sim().Now() + SimTime::Seconds(30);
  const auto all_connected = [&] {
    for (size_t c = 0; c < clients_.size(); ++c) {
      const bool ok = kind_ == WorkloadKind::kZipfChurn ? clients_[c]->session() != 0
                                                         : connected_[c] == 1;
      if (!ok) {
        return false;
      }
    }
    return true;
  };
  while (!all_connected() && sim().Now() < deadline) {
    sim().RunFor(SimTime::Millis(20));
  }
  return all_connected() ? calliope::OkStatus()
                         : calliope::UnavailableError("client hosts failed to connect");
}

double Repetition::Setup() {
  const HostTimer setup_timer;
  const int setup = Begin("setup", -1);
  // Construction and boot.
  const HostTimer boot_timer;
  int span = Begin("calliope.Installation", setup);
  calliope_ = std::make_unique<Installation>(Config());
  End(span);
  span = Begin("calliope.Boot", setup);
  const Status booted = calliope_->Boot();
  End(span);
  boot_s_ = boot_timer.Seconds();
  if (!booted.ok()) {
    Fail("boot failed", booted.ToString());
    return setup_timer.Seconds();
  }
  // The arrival schedule (zipf-churn: the src/load generator).
  const HostTimer schedule_timer;
  span = Begin("load.BuildWorkloadSchedule", setup);
  if (kind_ == WorkloadKind::kZipfChurn) {
    driver_ = std::make_unique<calliope::WorkloadDriver>(*calliope_, ZipfWorkload(seed_));
  }
  End(span);
  schedule_s_ = schedule_timer.Seconds();
  // Content bulk-load: media generation, IB-tree build, MSU fs install.
  const HostTimer content_timer;
  span = Begin("fs.LoadContent", setup);
  const Status loaded = LoadContent();
  End(span);
  content_s_ = content_timer.Seconds();
  if (!loaded.ok()) {
    Fail("content load failed", loaded.ToString());
    return setup_timer.Seconds();
  }
  if (kind_ == WorkloadKind::kZipfChurn) {
    // Registers the load.* instruments, schedules every arrival and starts
    // connecting the WorkloadDriver's client hosts.
    span = Begin("load.WorkloadDriver.Start", setup);
    driver_->Start();
    End(span);
    for (int h = 0; h < kZipfClientHosts; ++h) {
      clients_.push_back(driver_->client(h));
    }
  } else {
    const int hosts = (static_cast<int>(calliope_->msu_count()) *
                           (kind_ == WorkloadKind::kFleetFlow ? kFleetPerMsu : kGraph1PerMsu) +
                       kStreamsPerClientHost - 1) /
                      kStreamsPerClientHost;
    span = Begin("calliope.AddClient", setup);
    for (int c = 0; c < hosts; ++c) {
      clients_.push_back(&calliope_->AddClient("viewers" + std::to_string(c)));
    }
    End(span);
  }
  span = Begin("client.Connect", setup);
  const Status connected = ConnectClients();
  End(span);
  if (!connected.ok()) {
    Fail("client connect failed", connected.ToString());
  }
  span = Begin("perfbench.PlanSessions", setup);
  PlanSessions();
  End(span);
  if (kind_ == WorkloadKind::kZipfChurn) {
    // One MSU crashes mid-run and restarts; one disk slows down earlier.
    calliope::FaultPlan plan;
    calliope::FaultEvent slow;
    slow.what = calliope::FaultClass::kDiskSlow;
    slow.node = "msu5";
    slow.disk = 0;
    slow.at = kZipfLead + SimTime::Seconds(150);
    slow.duration = SimTime::Seconds(40);
    slow.delay = SimTime::Millis(15);
    plan.events.push_back(slow);
    calliope::FaultEvent crash;
    crash.what = calliope::FaultClass::kMsuCrash;
    crash.node = "msu1";
    crash.at = kZipfLead + SimTime::Seconds(300);
    crash.duration = SimTime::Seconds(30);
    plan.events.push_back(crash);
    const Status armed = calliope_->ApplyFaultPlan(plan);
    if (!armed.ok()) {
      Fail("fault plan rejected", armed.ToString());
    }
  }
  End(setup);
  setup_s_ = setup_timer.Seconds();
  return setup_s_;
}

Task Repetition::ArrivalLoop() {
  for (Session& session : sessions_) {
    if (session.due > sim().Now()) {
      co_await sim().Delay(session.due - sim().Now());
    }
    PlaySession(&session);
  }
}

Task Repetition::PlaySession(Session* s) {
  Simulator& simulator = sim();
  const auto begin = [&](const char* name, int parent) {
    return spans_.Begin(name, parent, s->id, simulator.Now(), simulator.events_fired());
  };
  const auto end = [&](int span) { spans_.End(span, simulator.Now(), simulator.events_fired()); };
  const int root = begin("client.session", -1);
  int span = begin("client.RegisterPort", root);
  auto port = co_await s->client->RegisterPort(s->port_name, "mpeg1");
  end(span);
  if (!port.ok()) {
    s->done = true;
    end(root);
    co_return;
  }
  s->port = *port;
  s->rpc_start = simulator.Now();
  span = begin("client.Play", root);
  auto play = co_await s->client->Play(s->title, s->port_name);
  end(span);
  s->rpc_end = simulator.Now();
  s->rpc_timed = true;
  if (!play.ok()) {
    s->done = true;
    end(root);
    co_return;
  }
  s->group = play->group;
  span = begin("client.WaitForGroupReady", root);
  const Status ready = co_await s->client->WaitForGroupReady(play->group, kReadyTimeout);
  end(span);
  s->started = ready.ok();
  s->done = true;
  end(root);
}

bool Repetition::AllResolved() const {
  if (kind_ == WorkloadKind::kZipfChurn) {
    return driver_->done();
  }
  for (const Session& s : sessions_) {
    if (!s.done) {
      return false;
    }
  }
  return true;
}

HwMark Repetition::MarkHardware() const {
  HwMark mark;
  mark.at = sim().Now();
  for (size_t m = 0; m < calliope_->msu_count(); ++m) {
    calliope::Machine& machine = calliope_->msu(m).machine();
    mark.msu_cpu_busy_s.push_back(machine.cpu().BusyTime().seconds());
    for (size_t h = 0; h < machine.hba_count(); ++h) {
      // HBA stats are never reset, so busy time = utilization x sim time.
      mark.scsi_busy_s.push_back(machine.hba(h).Utilization() * mark.at.seconds());
    }
    for (size_t d = 0; d < machine.disk_count(); ++d) {
      mark.disk_bytes.push_back(static_cast<double>(machine.disk(d).bytes_transferred().count()));
    }
  }
  mark.coord_cpu_busy_s = calliope_->coordinator_node().machine().cpu().BusyTime().seconds();
  // Segment utilization is over [0, now], so busy-equivalent time = U x now.
  const calliope::Network& network = calliope_->network();
  mark.intra_busy_s = network.SegmentUtilization(Segment::kIntra, SimTime()) * mark.at.seconds();
  mark.delivery_busy_s =
      network.SegmentUtilization(Segment::kDelivery, SimTime()) * mark.at.seconds();
  return mark;
}

void Repetition::Slice(SimTime span_length, Phase phase) {
  static constexpr const char* kSpanNames[] = {"sim.RunFor.ramp", "sim.RunFor.steady",
                                               "sim.RunFor.drain"};
  const HostTimer timer;
  const int span = Begin(kSpanNames[static_cast<int>(phase)], measure_span_);
  sim().RunFor(span_length);
  End(span);
  const double spent = timer.Seconds();
  if (phase == Phase::kRamp) {
    ramp_s_ += spent;
  } else if (phase == Phase::kSteady) {
    steady_s_ += spent;
  } else {
    drain_s_ += spent;
  }
  // Sampling is the benchmark's own bookkeeping, outside the RunFor span.
  int64_t viewers = 0;
  for (Session& s : sessions_) {
    if (s.port == nullptr && s.due <= sim().Now()) {
      s.port = s.client->FindPort(s.port_name);
    }
    if (s.port == nullptr) {
      continue;
    }
    const int64_t received = s.port->packets_received();
    if (received > s.sampled_packets) {
      ++viewers;
    }
    s.sampled_packets = received;
  }
  pending_max_ = std::max<int64_t>(
      pending_max_, static_cast<int64_t>(calliope_->current_primary().pending_request_count()));
  if (phase != Phase::kSteady) {
    return;
  }
  int64_t slots = 0;
  for (size_t m = 0; m < calliope_->msu_count(); ++m) {
    slots += calliope_->msu(m).duty_cycle().total_active();
  }
  const double msus = static_cast<double>(calliope_->msu_count());
  viewer_sum_ += static_cast<double>(viewers) / msus;
  slots_sum_ += static_cast<double>(slots) / msus;
  ++viewer_samples_;
}

void Repetition::Measure() {
  const HostTimer measure_timer;
  measure_span_ = Begin("measure", -1);
  measure_start_ = sim().Now();
  events_at_start_ = sim().events_fired();
  start_mark_ = MarkHardware();
  if (kind_ == WorkloadKind::kZipfChurn) {
    // Arrivals were scheduled by WorkloadDriver::Start during set-up.
    const SimTime first = sessions_.empty() ? sim().Now() : sessions_.front().due;
    const SimTime last = sessions_.empty() ? sim().Now() : sessions_.back().due;
    while (sim().Now() < first + kZipfWarmup) {
      Slice(kSampleStep, Phase::kRamp);
    }
    while (sim().Now() < last) {
      Slice(kSampleStep, Phase::kSteady);
    }
    // Holds are exponential, so a few sessions retire long after the last
    // arrival; the drain limit leaves kZipfDrainSlack past the latest end.
    SimTime last_end = last;
    for (const calliope::SessionPlan& plan : driver_->schedule()) {
      last_end = std::max(last_end, plan.start + kReadyTimeout + plan.hold);
    }
    const SimTime drain_limit = last_end + kZipfDrainSlack;
    while (!AllResolved() && sim().Now() < drain_limit) {
      Slice(kSampleStep, Phase::kDrain);
    }
    if (!AllResolved()) {
      Fail("sessions still open after the drain limit",
           std::to_string(drain_limit.millis() / 1000) + " sim-s");
    }
  } else {
    ArrivalLoop();
    const SimTime last_due = sessions_.empty() ? sim().Now() : sessions_.back().due;
    const SimTime deadline = last_due + kReadyTimeout + SimTime::Seconds(10);
    while (!AllResolved() && sim().Now() < deadline) {
      Slice(SimTime::Millis(500), Phase::kRamp);
    }
    // Let the last admissions pass their quiet window (and promote to flow).
    Slice(kind_ == WorkloadKind::kFleetFlow ? SimTime::Seconds(1) : kGraph1Settle, Phase::kRamp);
    const SimTime window = kind_ == WorkloadKind::kFleetFlow ? kFleetWindow : kGraph1Window;
    const SimTime end = sim().Now() + window;
    while (sim().Now() < end) {
      Slice(std::min(kSampleStep, end - sim().Now()), Phase::kSteady);
    }
  }
  // The final ClusterReport closes the measured phase.
  const HostTimer report_timer;
  const int span = Begin("obs.BuildClusterReport", measure_span_);
  const calliope::ClusterReport report = calliope_->BuildClusterReport();
  const std::string json = report.ToJson();
  End(span);
  report_s_ = report_timer.Seconds();
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(Fnv1a64(json)));
  report_hash_ = hash;
  End(measure_span_);
  measured_s_ = measure_timer.Seconds();
}

int64_t SumMatching(const std::map<std::string, int64_t>& values, const std::string& prefix,
                    const std::string& suffix) {
  int64_t total = 0;
  for (const auto& [name, value] : values) {
    if (name.size() >= prefix.size() + suffix.size() &&
        name.compare(0, prefix.size(), prefix) == 0 &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += value;
    }
  }
  return total;
}

int64_t Lookup(const std::map<std::string, int64_t>& values, const std::string& name) {
  const auto it = values.find(name);
  return it == values.end() ? 0 : it->second;
}

struct MaxMean {
  double max = 0;
  double mean = 0;
};

MaxMean Summarize(const std::vector<double>& values) {
  MaxMean out;
  for (const double v : values) {
    out.max = std::max(out.max, v);
    out.mean += v;
  }
  if (!values.empty()) {
    out.mean /= static_cast<double>(values.size());
  }
  return out;
}

RepResult Repetition::Collect() {
  RepResult result;
  result.setup_s = setup_s_;
  result.measured_cpu_s = measured_s_;
  result.report_hash = report_hash_;
  if (calliope_ == nullptr || report_hash_.empty()) {
    result.gate_failures = std::max<int64_t>(gate_failures_, 1);
    result.gate_errors = GateErrors();
    return result;
  }
  Simulator& simulator = sim();
  const MetricsSnapshot snapshot = calliope_->metrics().Snapshot();
  const auto& counters = snapshot.counters;
  const auto counter = [&](const std::string& name) {
    return static_cast<double>(Lookup(counters, name));
  };
  const double window_s = (simulator.Now() - measure_start_).seconds();
  const HwMark end_mark = MarkHardware();

  // ---- client view: outcomes, startup, lateness ----
  std::vector<double> startups_ms;
  std::vector<double> rpc_ms;
  LatenessHistogram arrivals;
  double bytes_received = 0;
  int64_t glitches = 0;
  int64_t out_of_order = 0;
  double max_gap_ms = 0;
  int64_t attempted = static_cast<int64_t>(sessions_.size());
  int64_t served = 0;
  int64_t by_class[3][3] = {};  // [class][arrivals, started, refused]
  if (kind_ == WorkloadKind::kZipfChurn) {
    // A started group the Coordinator later failed (no capacity to resume
    // it after the crash) was cut; every other started group was served.
    const calliope::WorkloadStats& stats = driver_->stats();
    for (size_t k = 0; k < 3; ++k) {
      for (const GroupId group : driver_->started_groups(static_cast<AdmissionClass>(k))) {
        bool cut = false;
        for (CalliopeClient* client : clients_) {
          cut = cut || !client->GroupFailure(group).empty();
        }
        served += cut ? 0 : 1;
      }
      by_class[k][0] = stats.submitted_by_class[k];
      by_class[k][1] = stats.started_by_class[k];
      by_class[k][2] = stats.refused_by_class[k];
    }
    if (stats.started + stats.rejected + stats.failed != stats.arrivals) {
      Fail("started + refused != attempted", std::to_string(stats.started) + " + " +
           std::to_string(stats.rejected + stats.failed) + " != " +
           std::to_string(stats.arrivals));
    }
    if (stats.finished != stats.arrivals || stats.arrivals != attempted) {
      Fail("finished != arrivals", std::to_string(stats.finished) + " of " +
           std::to_string(stats.arrivals) + " arrivals, " + std::to_string(attempted) +
           " scheduled");
    }
  } else {
    const size_t k = static_cast<size_t>(AdmissionClass::kStandard);
    for (const Session& s : sessions_) {
      ++by_class[k][0];
      if (!s.done) {
        Fail("session without an outcome", "session " + std::to_string(s.id));
      } else if (s.started) {
        ++by_class[k][1];
        const bool cut = !s.client->GroupFailure(s.group).empty();
        served += cut ? 0 : 1;
      } else {
        ++by_class[k][2];
      }
      if (s.rpc_timed) {
        rpc_ms.push_back((s.rpc_end - s.rpc_start).seconds() * 1e3);
      }
    }
  }
  int64_t startup_pool = 0;
  for (const Session& s : sessions_) {
    ClientDisplayPort* port = s.client->FindPort(s.port_name);
    if (port == nullptr) {
      continue;
    }
    bytes_received += static_cast<double>(port->bytes_received().count());
    glitches += port->glitches();
    out_of_order += port->out_of_order();
    max_gap_ms = std::max(max_gap_ms, port->max_arrival_gap().seconds() * 1e3);
    arrivals.Merge(port->arrival_lateness());
    // A media packet is at most one 4 KB page record; more bytes per packet
    // than 64 KiB means the port's counters were overwritten.
    if (port->bytes_received().count() > port->packets_received() * 65536) {
      Fail("port byte counter overwritten",
           s.port_name + ": " + std::to_string(port->bytes_received().count()) + " bytes in " +
               std::to_string(port->packets_received()) + " packets");
    }
    if (port->out_of_order() != 0) {
      Fail("ports with out-of-order packets",
           s.port_name + ": " + std::to_string(port->out_of_order()) + " packets");
    }
    if (s.playback) {
      ++startup_pool;
      if (port->packets_received() > 0) {
        startups_ms.push_back((port->first_arrival() - s.due).seconds() * 1e3);
      }
    }
  }
  const Status ledger = calliope_->current_primary().ledger().CheckInvariants();
  if (!ledger.ok()) {
    Fail("ledger invariants", ledger.ToString());
  }

  const double stream_s = bytes_received / kStreamBytesPerSec;
  const double on_time_pct = 100.0 * arrivals.FractionWithin(SimTime::Millis(50));
  // Tail percentile: the highest with at least ten samples beyond it.
  const bool graph1 = kind_ == WorkloadKind::kGraph1Packet;
  const double tail_q = graph1 ? 0.90 : 0.99;
  const int64_t tail_beyond = static_cast<int64_t>(
      std::floor(static_cast<double>(startups_ms.size()) * (1.0 - tail_q) + 1e-9));

  auto& e2e = result.end_to_end;
  e2e.push_back({"startup_p50_ms", "ms", Quantile(startups_ms, 0.5),
                 std::to_string(startups_ms.size()) + " started of " +
                     std::to_string(startup_pool) + " playback sessions"});
  char tail_note[160];
  std::snprintf(tail_note, sizeof(tail_note), "p%.0f of %zu started sessions, %lld beyond it",
                tail_q * 100, startups_ms.size(), static_cast<long long>(tail_beyond));
  e2e.push_back({"startup_tail_ms", "ms", Quantile(startups_ms, tail_q), tail_note});
  // Lateness tail: p99, except on zipf-churn, where 4-6% of packets arrive
  // beyond the client histogram's 1 s range and p99 is not resolvable.
  const double late_q = kind_ == WorkloadKind::kZipfChurn ? 0.90 : 0.99;
  const double over_1s_pct =
      arrivals.total_count() > 0
          ? 100.0 * static_cast<double>(arrivals.overflow_count()) /
                static_cast<double>(arrivals.total_count())
          : 0.0;
  char late_note[160];
  std::snprintf(late_note, sizeof(late_note), "p%.0f of %lld media packets; %.2f%% beyond 1 s",
                late_q * 100, static_cast<long long>(arrivals.total_count()), over_1s_pct);
  e2e.push_back({"late_tail_ms", "ms", HistogramQuantileMs(arrivals, late_q), late_note});
  e2e.push_back({"on_time_pct", "%", on_time_pct, "arrival lateness <= 50 ms"});
  e2e.push_back({"served_pct", "%",
                 attempted > 0
                     ? 100.0 * static_cast<double>(served) / static_cast<double>(attempted)
                     : 0.0,
                 std::to_string(served) + " served of " + std::to_string(attempted) +
                     " sessions; failed_pct = 100 - served_pct"});
  e2e.push_back({"viewers_per_msu", "count",
                 viewer_samples_ > 0 ? viewer_sum_ / static_cast<double>(viewer_samples_) : 0.0,
                 std::to_string(viewer_samples_) + " samples, " +
                     std::to_string(kSampleStep.millis()) + " sim-ms apart"});
  if (graph1) {
    e2e.push_back({"paper_gap_pp", "pp", std::fabs(kPaperOnTimePct - on_time_pct),
                   "|99.6 - on_time_pct|, Graph 1 at 22 streams per MSU"});
  }

  // ---- per layer ----
  auto& layer = result.per_layer;
  const double events = static_cast<double>(simulator.events_fired() - events_at_start_);
  const double runfor_s = ramp_s_ + steady_s_ + drain_s_;
  double packets_sent = static_cast<double>(SumMatching(counters, "msu.", ".packets_sent"));
  layer.push_back({"sim.events", "count", events, ""});
  layer.push_back({"sim.cpu_ns_per_event", "ns", events > 0 ? runfor_s * 1e9 / events : 0, ""});
  layer.push_back({"sim.events_per_stream_s", "events/stream_s",
                   stream_s > 0 ? events / stream_s : 0, ""});
  layer.push_back({"sim.flow_residency", "ratio",
                   packets_sent > 0 ? counter("sim.flow.packets") / packets_sent : 0, ""});
  layer.push_back({"sim.flow.demotions", "count", counter("sim.flow.demotions"), ""});
  layer.push_back({"sim.cancelled_pending", "count",
                   static_cast<double>(simulator.cancelled_pending()), ""});
  layer.push_back({"sim.ramp_cpu_s", "s", ramp_s_, ""});
  layer.push_back({"sim.steady_cpu_s", "s", steady_s_, ""});
  layer.push_back({"calliope.boot_cpu_s", "s", boot_s_, ""});
  layer.push_back({"fs.content_load_cpu_s", "s", content_s_, ""});
  layer.push_back({"load.schedule_cpu_s", "s", schedule_s_, ""});
  layer.push_back({"obs.report_cpu_s", "s", report_s_, ""});

  std::vector<double> cpu_util, scsi_util, disk_rate;
  for (size_t i = 0; i < end_mark.msu_cpu_busy_s.size(); ++i) {
    cpu_util.push_back((end_mark.msu_cpu_busy_s[i] - start_mark_.msu_cpu_busy_s[i]) / window_s);
  }
  for (size_t i = 0; i < end_mark.scsi_busy_s.size(); ++i) {
    scsi_util.push_back((end_mark.scsi_busy_s[i] - start_mark_.scsi_busy_s[i]) / window_s);
  }
  for (size_t i = 0; i < end_mark.disk_bytes.size(); ++i) {
    disk_rate.push_back((end_mark.disk_bytes[i] - start_mark_.disk_bytes[i]) / 1e6 / window_s);
  }
  int64_t enobufs = 0;
  std::vector<double> membus_util;
  for (size_t m = 0; m < calliope_->msu_count(); ++m) {
    calliope::Machine& machine = calliope_->msu(m).machine();
    enobufs += machine.fddi().enobufs_count();
    membus_util.push_back(machine.memory().Utilization());
  }
  const MaxMean cpu = Summarize(cpu_util);
  const MaxMean membus = Summarize(membus_util);
  const MaxMean scsi = Summarize(scsi_util);
  const MaxMean disk = Summarize(disk_rate);
  layer.push_back({"hw.msu_cpu_util.max", "ratio", cpu.max, ""});
  layer.push_back({"hw.msu_cpu_util.mean", "ratio", cpu.mean, ""});
  layer.push_back({"hw.memory_bus_util.max", "ratio", membus.max, ""});
  layer.push_back({"hw.memory_bus_util.mean", "ratio", membus.mean, ""});
  layer.push_back({"hw.nic_enobufs", "count", static_cast<double>(enobufs), ""});
  layer.push_back({"hw.scsi_util.max", "ratio", scsi.max, ""});
  layer.push_back({"hw.scsi_util.mean", "ratio", scsi.mean, ""});
  layer.push_back({"hw.disk_mb_per_s.max", "MB/s", disk.max, ""});
  layer.push_back({"hw.disk_mb_per_s.mean", "MB/s", disk.mean, ""});

  const calliope::Network& network = calliope_->network();
  layer.push_back({"net.datagrams", "count", counter("net.datagrams.sent"), ""});
  layer.push_back({"net.delivery_util", "ratio",
                   (end_mark.delivery_busy_s - start_mark_.delivery_busy_s) / window_s, ""});
  layer.push_back({"net.intra_util", "ratio",
                   (end_mark.intra_busy_s - start_mark_.intra_busy_s) / window_s, ""});
  layer.push_back({"net.udp_dropped", "count", static_cast<double>(network.udp_dropped()), ""});

  LatenessHistogram send_lateness;
  for (size_t m = 0; m < calliope_->msu_count(); ++m) {
    send_lateness.Merge(calliope_->msu(m).AggregateLateness());
  }
  const double hits = counter("sim.cache.interval_hits") + counter("sim.cache.prefix_hits");
  const double lookups = hits + counter("sim.cache.misses");
  layer.push_back({"msu.packets_sent", "count", packets_sent, ""});
  layer.push_back({"msu.packets_late", "count",
                   static_cast<double>(SumMatching(counters, "msu.", ".packets_late")), ""});
  layer.push_back({"msu.send_late_p99_ms", "ms", HistogramQuantileMs(send_lateness, 0.99), ""});
  layer.push_back({"msu.buffer_stalls", "count",
                   static_cast<double>(SumMatching(counters, "msu.", ".buffer_stalls")), ""});
  layer.push_back({"msu.blocks_read", "count",
                   static_cast<double>(SumMatching(counters, "msu.", ".blocks_read")), ""});
  layer.push_back({"msu.blocks_written", "count",
                   static_cast<double>(SumMatching(counters, "msu.", ".blocks_written")), ""});
  layer.push_back({"msu.cache_hit_ratio", "ratio", lookups > 0 ? hits / lookups : 0, ""});
  layer.push_back({"msu.cache_evictions", "count", counter("sim.cache.evictions"), ""});
  layer.push_back({"sched.slots_occupied_mean", "count",
                   viewer_samples_ > 0 ? slots_sum_ / static_cast<double>(viewer_samples_) : 0,
                   ""});

  const double coord_busy = end_mark.coord_cpu_busy_s - start_mark_.coord_cpu_busy_s;
  layer.push_back({"coord.cpu_util", "ratio", coord_busy / window_s, ""});
  layer.push_back({"coord.requests", "count", counter("coord.requests.handled"), ""});
  layer.push_back({"coord.admissions.accepted", "count", counter("coord.admissions.accepted"), ""});
  layer.push_back({"coord.admissions.queued", "count", counter("coord.admissions.queued"), ""});
  layer.push_back({"coord.pending_depth_max", "count", static_cast<double>(pending_max_), ""});
  layer.push_back({"coord.requests_lost", "count", counter("coord.requests_lost"), ""});
  layer.push_back({"coord.requests.expired", "count", counter("coord.requests.expired"), ""});
  layer.push_back({"coord.shed.rejected", "count", counter("coord.shed.rejected"), ""});
  layer.push_back({"coord.failover.groups", "count", counter("coord.failover.groups"), ""});
  layer.push_back({"coord.groups.formed", "count", counter("coord.groups.formed"), ""});
  layer.push_back({"coord.groups.attaches", "count", counter("coord.groups.attaches"), ""});

  const double copies_started = counter("coord.rebalance.copies_started");
  const double copies_installed = counter("coord.rebalance.copies_installed");
  layer.push_back({"rebalance.copies_started", "count", copies_started, ""});
  layer.push_back({"rebalance.copies_installed", "count", copies_installed, ""});
  layer.push_back({"rebalance.copy_yield", "ratio",
                   copies_started > 0 ? copies_installed / copies_started : 0, ""});
  layer.push_back({"rebalance.preemptions", "count", counter("coord.rebalance.preemptions"), ""});
  layer.push_back({"repl.bytes_copied", "B", counter("repl.bytes_copied"), ""});

  layer.push_back({"client.play_rpc_p50_ms", "ms", Quantile(rpc_ms, 0.5), ""});
  layer.push_back({"client.play_rpc_p99_ms", "ms", Quantile(rpc_ms, 0.99), ""});
  layer.push_back({"client.glitches", "count", static_cast<double>(glitches), ""});
  layer.push_back({"client.max_gap_ms", "ms", max_gap_ms, ""});
  layer.push_back({"client.out_of_order", "count", static_cast<double>(out_of_order), ""});
  layer.push_back({"client.late_over_1s_pct", "%", over_1s_pct, ""});

  for (size_t k = 0; k < 3; ++k) {
    const std::string stem = std::string("load.") + kClassNames[k];
    layer.push_back({stem + ".arrivals", "count", static_cast<double>(by_class[k][0]), ""});
    layer.push_back({stem + ".started", "count", static_cast<double>(by_class[k][1]), ""});
    layer.push_back({stem + ".refused", "count", static_cast<double>(by_class[k][2]), ""});
  }
  layer.push_back({"load.requests.rejected", "count", counter("load.requests.rejected"), ""});
  layer.push_back({"fault.msu_crashes", "count", counter("fault.msu_crashes"), ""});
  layer.push_back({"fault.disk_slowdowns", "count", counter("fault.disk_slowdowns"), ""});

  result.stream_s = stream_s;

  // The gate: on-time floor at the Graph 1 working point.
  if (graph1 && on_time_pct < 96.0) {
    Fail("on_time_pct below the 96% Graph 1 floor", std::to_string(on_time_pct));
  }
  for (const Metric& m : layer) {
    spans_.Count(measure_span_, m.name, m.value);
  }
  result.sessions = attempted;
  result.gate_failures = gate_failures_;
  result.gate_errors = GateErrors();
  return result;
}

}  // namespace

bool ParseWorkload(const std::string& name, WorkloadKind* out) {
  if (name == "fleet-flow") {
    *out = WorkloadKind::kFleetFlow;
  } else if (name == "graph1-packet") {
    *out = WorkloadKind::kGraph1Packet;
  } else if (name == "zipf-churn") {
    *out = WorkloadKind::kZipfChurn;
  } else {
    return false;
  }
  return true;
}

namespace {

uint64_t CellSeed(uint64_t seed, int cell) {
  return seed * kZipfCells + static_cast<uint64_t>(cell);
}

int CellCount(WorkloadKind kind) { return kind == WorkloadKind::kZipfChurn ? kZipfCells : 1; }

// Host times, stream-seconds and sessions add up over cells; every
// simulated figure is the mean over cells.
RepResult CombineCells(std::vector<RepResult> cells) {
  if (cells.size() == 1) {
    return std::move(cells.front());
  }
  RepResult out = cells.front();
  const double n = static_cast<double>(cells.size());
  std::string hashes = out.report_hash;
  for (size_t c = 1; c < cells.size(); ++c) {
    const RepResult& cell = cells[c];
    out.setup_s += cell.setup_s;
    out.measured_cpu_s += cell.measured_cpu_s;
    out.stream_s += cell.stream_s;
    out.sessions += cell.sessions;
    out.gate_failures += cell.gate_failures;
    out.gate_errors.insert(out.gate_errors.end(), cell.gate_errors.begin(), cell.gate_errors.end());
    hashes += cell.report_hash;
    for (size_t i = 0; i < out.end_to_end.size() && i < cell.end_to_end.size(); ++i) {
      out.end_to_end[i].value += cell.end_to_end[i].value;
    }
    for (size_t i = 0; i < out.per_layer.size() && i < cell.per_layer.size(); ++i) {
      out.per_layer[i].value += cell.per_layer[i].value;
    }
  }
  for (Metric& m : out.end_to_end) {
    m.value /= n;
    m.note = "mean of " + std::to_string(cells.size()) + " cells; cell 0: " + m.note;
  }
  for (Metric& m : out.per_layer) {
    m.value /= n;
  }
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx", static_cast<unsigned long long>(Fnv1a64(hashes)));
  out.report_hash = hash;
  out.gate_errors.resize(std::min<size_t>(out.gate_errors.size(), 8));
  return out;
}

}  // namespace

RepResult RunRepetition(WorkloadKind kind, uint64_t seed, SpanLog& spans) {
  std::vector<RepResult> cells;
  for (int c = 0; c < CellCount(kind); ++c) {
    Repetition rep(kind, CellCount(kind) > 1 ? CellSeed(seed, c) : seed, spans);
    rep.Setup();
    rep.Measure();
    cells.push_back(rep.Collect());
  }
  return CombineCells(std::move(cells));
}

double RunSetupOnly(WorkloadKind kind, uint64_t seed) {
  double total = 0;
  for (int c = 0; c < CellCount(kind); ++c) {
    SpanLog off(false);
    Repetition rep(kind, CellCount(kind) > 1 ? CellSeed(seed, c) : seed, off);
    total += rep.Setup();
  }
  return total;
}

}  // namespace perfbench
