// Deterministic workload generation (DESIGN §5.9).
//
// Two layers. BuildWorkloadSchedule is a pure function of WorkloadConfig: it
// expands a phased arrival-rate schedule (diurnal curves, flash crowds) into
// a concrete list of SessionPlans — which kind of session starts when, on
// which client host, against which Zipf-ranked title — using only the seeded
// Rng, so equal configs yield identical schedules, byte for byte.
// WorkloadDriver then executes a schedule against a live Installation from
// inside the simulation: every client call is a sim coroutine, so a run is a
// pure function of (seed, binary) and composes with the chaos harness, the
// ctest suites and bench/scaleout.
//
// Session kinds map onto the Coordinator's admission classes:
//   channel surfer  -> kInteractive  (VCR-heavy, short attention span)
//   movie viewer    -> kStandard     (watch, then quit)
//   archive pull    -> kBulk         (long-tail title, patient)
//   recorder        -> kBulk         (record-while-play ingest)
#ifndef CALLIOPE_SRC_LOAD_WORKLOAD_H_
#define CALLIOPE_SRC_LOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/calliope/calliope.h"
#include "src/net/message.h"
#include "src/util/rng.h"
#include "src/util/units.h"

namespace calliope {

// One segment of the arrival-rate schedule: `arrivals_per_sec` Poisson
// arrivals for `duration`. Zero arrivals is valid (a quiet overnight phase).
struct WorkloadPhase {
  WorkloadPhase() = default;
  WorkloadPhase(SimTime duration_in, double arrivals_per_sec_in)
      : duration(duration_in), arrivals_per_sec(arrivals_per_sec_in) {}

  SimTime duration;
  double arrivals_per_sec = 0.0;
};

// Session-mix weights (relative, not percentages).
struct WorkloadMix {
  WorkloadMix() = default;

  int viewer = 6;
  int surfer = 2;
  int archive = 1;
  int recorder = 1;
};

struct WorkloadConfig {
  WorkloadConfig() = default;

  uint64_t seed = 1;

  // Popular catalog: `titles` MPEG movies with Zipf(zipf_skew) popularity,
  // spread round-robin over the MSUs; plus `archive_titles` long-tail items
  // pulled uniformly (archive sessions never touch the popular set).
  int titles = 4;
  int archive_titles = 2;
  double zipf_skew = 1.0;
  SimTime title_length = SimTime::Seconds(12);
  SimTime archive_length = SimTime::Seconds(8);

  // Client hosts; sessions round-robin over them so one host's NIC is never
  // the bottleneck being measured.
  int client_hosts = 3;

  // Arrival schedule; empty means one 10 s phase at 1/s.
  std::vector<WorkloadPhase> phases;
  WorkloadMix mix;

  // Mean session hold times (exponential); a viewer quits after its hold, a
  // surfer spreads its VCR ops across the hold then quits.
  SimTime viewer_hold_mean = SimTime::Seconds(6);
  SimTime surfer_hold_mean = SimTime::Seconds(3);
  int surfer_ops_max = 4;

  // Recorder sessions ingest a CBR feed of this length (record-while-play:
  // the feed is sent in real time while viewers stream from the same MSUs).
  SimTime recording_length = SimTime::Seconds(3);

  // How long a session waits for a queued request before giving up.
  SimTime ready_timeout = SimTime::Seconds(60);
};

// Sum of phase durations (with the default phase applied when empty).
SimTime WorkloadHorizon(const WorkloadConfig& config);

// Canned arrival schedules.
// Diurnal: trough -> shoulder -> peak -> shoulder, one cycle per `day`.
std::vector<WorkloadPhase> DiurnalPhases(double trough_per_sec, double peak_per_sec,
                                         SimTime day, int days = 1);
// Flash crowd: `base` rate, a `burst` spike at `spike` rate, then `base`.
std::vector<WorkloadPhase> FlashCrowdPhases(double base_per_sec, double spike_per_sec,
                                            SimTime before, SimTime burst, SimTime after);

struct SessionPlan {
  SessionPlan() = default;

  enum class Kind { kViewer, kSurfer, kArchive, kRecorder };
  Kind kind = Kind::kViewer;
  SimTime start;
  int title = 0;        // index into the popular (or archive) catalog
  int client_host = 0;  // which client host issues the session
  SimTime hold;         // watch time before quitting (viewer/surfer)
  uint64_t ops_seed = 0;  // per-session Rng stream for VCR op choices
};

const char* SessionKindName(SessionPlan::Kind kind);
AdmissionClass ClassForSession(SessionPlan::Kind kind);

// Pure: equal configs (including seed) yield equal schedules.
std::vector<SessionPlan> BuildWorkloadSchedule(const WorkloadConfig& config);

// Client-observed outcome tallies, per admission class and overall.
struct WorkloadStats {
  WorkloadStats() = default;

  int64_t arrivals = 0;        // sessions launched
  int64_t started = 0;         // requests that reached a served stream
  int64_t queued = 0;          // requests the Coordinator queued first
  int64_t rejected = 0;        // refused at submit (queue full / placement)
  int64_t failed = 0;          // accepted at submit, never started (shed/expired/timed out)
  int64_t finished = 0;        // sessions fully retired
  int64_t vcr_ops = 0;
  int64_t recordings = 0;
  int64_t submitted_by_class[kAdmissionClassCount] = {};
  int64_t started_by_class[kAdmissionClassCount] = {};
  int64_t refused_by_class[kAdmissionClassCount] = {};  // rejected + failed
};

// Executes a schedule against an Installation. Construct, Prepare() (loads
// the catalog, adds client hosts — synchronous), Start() (spawns the in-sim
// arrival task), then pump the simulation until done().
class WorkloadDriver {
 public:
  WorkloadDriver(Installation& installation, WorkloadConfig config);

  WorkloadDriver(const WorkloadDriver&) = delete;
  WorkloadDriver& operator=(const WorkloadDriver&) = delete;

  // Loads `wl-t<i>` popular and `wl-a<i>` archive titles round-robin over
  // the MSUs and creates the client hosts. Call once, after Boot.
  Status Prepare();

  // Registers the load.* instruments and schedules every session. The
  // simulation must then run (RunFor / RunUntil) for sessions to execute.
  void Start();

  // All arrivals fired and every session retired.
  bool done() const {
    return arrivals_done_ && finished_sessions_ == static_cast<int64_t>(schedule_.size());
  }

  const std::vector<SessionPlan>& schedule() const { return schedule_; }
  const WorkloadStats& stats() const { return stats_; }
  CalliopeClient* client(int host) { return clients_.at(static_cast<size_t>(host)); }
  // Groups that reached a served stream, per admission class (for per-class
  // QoS assertions against the ClusterReport's stream rows).
  const std::vector<GroupId>& started_groups(AdmissionClass klass) const {
    return started_groups_[static_cast<size_t>(klass)];
  }

 private:
  Task ArrivalLoop();
  Task RunSession(SessionPlan plan, int ordinal);
  Co<void> RunPlaySession(CalliopeClient* client, const SessionPlan& plan,
                          const std::string& port_name);
  Co<void> RunRecorderSession(CalliopeClient* client, const SessionPlan& plan,
                              const std::string& port_name, int ordinal);
  // A refusal at submit counts as rejected; one after an accepted submit (the
  // ready wait failed or timed out) counts as failed.
  void NoteRefused(AdmissionClass klass, bool after_submit);

  Installation* installation_;
  WorkloadConfig config_;
  std::vector<SessionPlan> schedule_;
  std::vector<CalliopeClient*> clients_;
  PacketSequence recording_feed_;
  WorkloadStats stats_;
  std::vector<GroupId> started_groups_[kAdmissionClassCount];
  int64_t active_sessions_ = 0;
  int64_t finished_sessions_ = 0;
  bool arrivals_done_ = false;
  bool prepared_ = false;

  Counter* arrivals_metric_ = nullptr;
  Counter* started_metric_ = nullptr;
  Counter* queued_metric_ = nullptr;
  Counter* rejected_metric_ = nullptr;
  Counter* failed_metric_ = nullptr;
  Counter* finished_metric_ = nullptr;
  Counter* vcr_ops_metric_ = nullptr;
  Counter* recordings_metric_ = nullptr;
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_LOAD_WORKLOAD_H_
