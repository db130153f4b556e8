// The Coordinator's pending-admission queue (paper §2.2: "the Coordinator
// queues the request until an MSU with the necessary resources becomes
// available") and the policy that orders, bounds, expires and sheds what
// waits in it (DESIGN §5.9). A plain data structure: no simulator, no RPCs,
// no metrics — the Coordinator decides what each removal means.
//
// Traffic control off is the one-class case: every class has rank 0, no cap
// and the same deadline, so retry order is plain FIFO whatever the class.
#ifndef CALLIOPE_SRC_COORD_ADMISSION_QUEUE_H_
#define CALLIOPE_SRC_COORD_ADMISSION_QUEUE_H_

#include <array>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "src/net/message.h"

namespace calliope {

struct AdmissionClassPolicy {
  int rank = 0;      // retry order: lower ranks are retried first
  int cap = 0;       // requests of the class queued at once; zero = unbounded
  SimTime deadline;  // longest wait before expiry; zero = never expires
};

// Classes the saturation governor sheds, in order; interactive is never shed.
inline constexpr AdmissionClass kShedOrder[] = {AdmissionClass::kBulk,
                                                AdmissionClass::kStandard};

class AdmissionQueue {
 public:
  using Request = PendingPlayRequest;
  using Policies = std::array<AdmissionClassPolicy, kAdmissionClassCount>;

  // Every class alike: FIFO, no cap, expiry `deadline` after first enqueue.
  static Policies OneClass(SimTime deadline);

  explicit AdmissionQueue(const Policies& policies = OneClass(SimTime()))
      : policies_(policies) {}

  bool empty() const { return queued_.empty(); }
  size_t size() const { return queued_.size(); }
  const std::deque<Request>& requests() const { return queued_; }  // retry order
  size_t count(AdmissionClass klass) const;
  size_t QueuedPlays(const std::string& title) const;  // recordings excluded
  bool Contains(GroupId group) const;

  // Appends a copy of `request` unless its class is at its cap (false). A
  // re-queue — a retry that still found no room — skips the cap, since it
  // already held a slot, and keeps its first enqueue stamp; an unstamped
  // request is stamped `now`.
  bool Push(const Request& request, SimTime now, bool requeue = false);
  // Orders the queue for a retry pass: by class rank, stable within a rank.
  void SortForRetry();
  Request PopFront();
  // Earliest moment a queued request expires; none when nothing can.
  std::optional<SimTime> NextExpiry() const;
  // Removes and returns, in queue order, every request expired by `now`.
  std::vector<Request> TakeExpired(SimTime now);
  // Removes and returns the newest queued request of `klass`, if any.
  std::optional<Request> TakeNewest(AdmissionClass klass);
  void Clear();  // queued and parked alike

  // ---- HA standby mirror of the primary's queue records ----
  // A request the primary popped for a retry parks until the retry's outcome
  // is logged; takeover re-queues whatever is still parked, so a primary
  // crash mid-retry never loses a request the client was told is queued.
  void Mirror(const Request& request);  // pushed: un-park, append as shipped
  void Park(GroupId group);             // popped for a retry
  void Unpark(GroupId group);           // the retry started the group
  void Forget(GroupId group);           // dropped for good, queued or parked
  size_t parked_count() const { return parked_.size(); }
  void RequeueParked();                 // takeover, in parking order

 private:
  const AdmissionClassPolicy& policy(AdmissionClass klass) const;
  // SimTime::Max() if `request` is unstamped or its class has no deadline.
  SimTime ExpiresAt(const Request& request) const;

  Policies policies_;
  std::deque<Request> queued_;
  std::vector<Request> parked_;  // standby only; always empty on a primary
};

}  // namespace calliope

#endif  // CALLIOPE_SRC_COORD_ADMISSION_QUEUE_H_
