#include "src/coord/admission_queue.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <utility>

namespace calliope {
namespace {

template <typename Requests>
auto FindGroup(Requests& requests, GroupId group) {
  return std::find_if(requests.begin(), requests.end(), [group](const PendingPlayRequest& request) {
    return request.group == group;
  });
}

}  // namespace

AdmissionQueue::Policies AdmissionQueue::OneClass(SimTime deadline) {
  Policies policies;
  for (AdmissionClassPolicy& policy : policies) {
    policy.deadline = deadline;
  }
  return policies;
}

const AdmissionClassPolicy& AdmissionQueue::policy(AdmissionClass klass) const {
  assert(static_cast<size_t>(klass) < policies_.size());
  return policies_[static_cast<size_t>(klass)];
}

size_t AdmissionQueue::count(AdmissionClass klass) const {
  return static_cast<size_t>(std::count_if(
      queued_.begin(), queued_.end(),
      [klass](const Request& request) { return request.admission_class == klass; }));
}

size_t AdmissionQueue::QueuedPlays(const std::string& title) const {
  return static_cast<size_t>(
      std::count_if(queued_.begin(), queued_.end(), [&title](const Request& request) {
        return !request.record && request.content == title;
      }));
}

bool AdmissionQueue::Contains(GroupId group) const {
  return FindGroup(queued_, group) != queued_.end();
}

bool AdmissionQueue::Push(const Request& request, SimTime now, bool requeue) {
  const int cap = policy(request.admission_class).cap;
  if (!requeue && cap > 0 && count(request.admission_class) >= static_cast<size_t>(cap)) {
    return false;
  }
  queued_.push_back(request);
  if (queued_.back().enqueued_at == SimTime()) {
    queued_.back().enqueued_at = now;
  }
  return true;
}

void AdmissionQueue::SortForRetry() {
  const auto by_rank = [this](const Request& a, const Request& b) {
    return policy(a.admission_class).rank < policy(b.admission_class).rank;
  };
  if (!std::is_sorted(queued_.begin(), queued_.end(), by_rank)) {
    std::stable_sort(queued_.begin(), queued_.end(), by_rank);
  }
}

AdmissionQueue::Request AdmissionQueue::PopFront() {
  Request request = std::move(queued_.front());
  queued_.pop_front();
  return request;
}

SimTime AdmissionQueue::ExpiresAt(const Request& request) const {
  const SimTime deadline = policy(request.admission_class).deadline;
  if (request.enqueued_at == SimTime() || !(deadline > SimTime())) {
    return SimTime::Max();
  }
  return request.enqueued_at + deadline;
}

std::optional<SimTime> AdmissionQueue::NextExpiry() const {
  SimTime earliest = SimTime::Max();
  for (const Request& request : queued_) {
    earliest = std::min(earliest, ExpiresAt(request));
  }
  return earliest < SimTime::Max() ? std::optional<SimTime>(earliest) : std::nullopt;
}

std::vector<AdmissionQueue::Request> AdmissionQueue::TakeExpired(SimTime now) {
  std::vector<Request> expired;
  for (auto it = queued_.begin(); it != queued_.end();) {
    if (ExpiresAt(*it) <= now) {
      expired.push_back(std::move(*it));
      it = queued_.erase(it);
    } else {
      ++it;
    }
  }
  return expired;
}

std::optional<AdmissionQueue::Request> AdmissionQueue::TakeNewest(AdmissionClass klass) {
  auto newest = std::find_if(queued_.rbegin(), queued_.rend(), [klass](const Request& request) {
    return request.admission_class == klass;
  });
  if (newest == queued_.rend()) {
    return std::nullopt;
  }
  Request request = std::move(*newest);
  queued_.erase(std::next(newest).base());
  return request;
}

void AdmissionQueue::Clear() {
  queued_.clear();
  parked_.clear();
}

void AdmissionQueue::Mirror(const Request& request) {
  Unpark(request.group);
  queued_.push_back(request);
}

void AdmissionQueue::Park(GroupId group) {
  auto it = FindGroup(queued_, group);
  if (it != queued_.end()) {
    parked_.push_back(std::move(*it));
    queued_.erase(it);
  }
}

void AdmissionQueue::Unpark(GroupId group) {
  auto it = FindGroup(parked_, group);
  if (it != parked_.end()) {
    parked_.erase(it);
  }
}

void AdmissionQueue::Forget(GroupId group) {
  auto it = FindGroup(queued_, group);
  if (it != queued_.end()) {
    queued_.erase(it);
  } else {
    Unpark(group);
  }
}

void AdmissionQueue::RequeueParked() {
  std::move(parked_.begin(), parked_.end(), std::back_inserter(queued_));
  parked_.clear();
}

}  // namespace calliope
