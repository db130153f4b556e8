#include <algorithm>

#include "src/msu/msu.h"
#include "src/obs/sampler.h"
#include "src/util/logging.h"

namespace calliope {

MsuStream::MsuStream(Msu& msu, const MsuStartStream& request,
                     std::unique_ptr<ProtocolModule> protocol)
    : msu_(&msu),
      id_(request.stream),
      group_(request.group),
      mode_(request.record ? Mode::kRecord : Mode::kPlay),
      file_name_(request.file),
      ff_file_(request.fast_forward_file),
      fb_file_(request.fast_backward_file),
      protocol_name_(request.protocol),
      protocol_(std::move(protocol)),
      rate_(request.rate),
      client_node_(request.client_node),
      client_udp_port_(request.client_udp_port),
      shared_(request.shared),
      from_cache_(request.from_cache),
      fanout_settled_(msu.sim()),
      buffers_changed_(msu.sim()),
      last_interesting_(msu.sim().Now()),  // admission is an interesting moment
      record_pages_ready_(msu.sim()),
      start_time_(msu.sim().Now()) {
  members_.reserve(request.shared_members.size());
  for (const SharedMemberSpec& spec : request.shared_members) {
    members_.emplace_back(spec);
  }
}

SharedMemberState* MsuStream::FindMember(GroupId group) {
  for (SharedMemberState& member : members_) {
    if (member.group == group) {
      return &member;
    }
  }
  return nullptr;
}

SharedMemberState* MsuStream::FindMemberByStream(StreamId stream) {
  for (SharedMemberState& member : members_) {
    if (member.stream == stream) {
      return &member;
    }
  }
  return nullptr;
}

SharedMemberState MsuStream::DetachMember(GroupId group) {
  for (auto it = members_.begin(); it != members_.end(); ++it) {
    if (it->group == group) {
      SharedMemberState member = *it;
      members_.erase(it);
      return member;
    }
  }
  return SharedMemberState();
}

Co<void> MsuStream::SettleFanout() {
  while (fanout_in_flight_) {
    co_await fanout_settled_.Wait();
  }
}

bool MsuStream::NeedsDiskService() const {
  if (state_ == State::kStopped) {
    return false;
  }
  if (mode_ == Mode::kPlay) {
    // Flow-mode streams self-prefetch with aggregate reads inside FlowStep;
    // keeping them off the round-robin disk process avoids double reads.
    if (fidelity_ == Fidelity::kFlow) {
      return false;
    }
    return state_ == State::kRunning && file_ != nullptr && prefetched_.size() < 2 &&
           next_page_to_read_ < file_->image().page_count();
  }
  return builder_.pages_closed() > pages_written_ && !record_write_in_flight_;
}

Co<bool> MsuStream::ServiceDisk() {
  if (!NeedsDiskService()) {
    co_return false;
  }
  if (mode_ == Mode::kPlay) {
    const size_t target = next_page_to_read_;
    // Interval/prefix cache read-through: a hit skips the disk entirely —
    // that is the capacity win for trailing viewers and hot-title starts.
    const DataPage* cached = msu_->CacheLookup(file_->name(), target);
    if (cached != nullptr) {
      ++next_page_to_read_;
      prefetched_.push_back(cached);
      bytes_moved_ += kDataPageSize;
      buffers_changed_.NotifyAll();
      co_return true;
    }
    const SimTime service_start = msu_->sim().Now();
    auto page = co_await msu_->fs().ReadPage(file_, target);
    if (!page.ok()) {
      if (page.status().code() == StatusCode::kDataLoss) {
        // Unrecoverable media: end the stream rather than stall the viewer.
        CALLIOPE_LOG(kWarning, "msu") << "stream " << id_ << ": " << page.status().ToString();
        StopInternal();
        msu_->OnStreamFinished(this);
      }
      co_return false;
    }
    if (msu_->blocks_read_metric_ != nullptr) {
      msu_->blocks_read_metric_->Add();
    }
    if (msu_->trace_ != nullptr) {
      msu_->trace_->Span(msu_->node().name() + ".disk" + std::to_string(disk_), "msu",
                         "read-block", service_start, "stream " + std::to_string(id_));
    }
    // A seek may have moved the cursor while the read was in flight; only
    // keep the page if it is still the one the stream wants next.
    if (state_ == State::kStopped || target != next_page_to_read_) {
      co_return true;
    }
    msu_->CacheInsert(file_->name(), target, *page);
    ++next_page_to_read_;
    prefetched_.push_back(*page);
    bytes_moved_ += kDataPageSize;
    buffers_changed_.NotifyAll();
    co_return true;
  }
  // Recording: flush one closed page (write-behind).
  record_write_in_flight_ = true;
  const auto page_index = static_cast<int64_t>(pages_written_);
  const SimTime service_start = msu_->sim().Now();
  const Status written = co_await msu_->fs().WriteNextPage(file_, page_index);
  record_write_in_flight_ = false;
  if (written.ok()) {
    ++pages_written_;
    bytes_moved_ += kDataPageSize;
    if (msu_->blocks_written_metric_ != nullptr) {
      msu_->blocks_written_metric_->Add();
    }
    if (msu_->trace_ != nullptr) {
      msu_->trace_->Span(msu_->node().name() + ".disk" + std::to_string(disk_), "msu",
                         "write-block", service_start, "stream " + std::to_string(id_));
    }
  }
  record_pages_ready_.NotifyAll();
  co_return true;
}

SimTime MsuStream::CurrentMediaOffset() const {
  if (file_ == nullptr || file_->image().page_count() == 0) {
    return SimTime();
  }
  if (!prefetched_.empty() && play_record_ < prefetched_.front()->records.size()) {
    return prefetched_.front()->records[play_record_].delivery_offset;
  }
  if (play_page_ < file_->image().page_count()) {
    const DataPage& page = file_->image().page(play_page_);
    if (play_record_ < page.records.size()) {
      return page.records[play_record_].delivery_offset;
    }
    return page.last_offset();
  }
  return file_->image().duration();
}

Task MsuStream::PlaybackLoop() {
  while (state_ != State::kStopped) {
    if (state_ == State::kPaused || state_ == State::kStarting) {
      co_await buffers_changed_.Wait();
      continue;
    }
    MaybePromote();
    if (fidelity_ == Fidelity::kFlow) {
      co_await FlowStep();
      continue;
    }
    if (prefetched_.empty()) {
      if (file_ == nullptr || play_page_ >= file_->image().page_count()) {
        break;  // end of content
      }
      // Running with no prefetched page: the network process is starved
      // waiting on the disk (startup fill or a genuine double-buffer miss).
      if (msu_->buffer_stalls_metric_ != nullptr) {
        msu_->buffer_stalls_metric_->Add();
      }
      msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
      co_await buffers_changed_.Wait();
      continue;
    }
    const DataPage* page = prefetched_.front();
    if (play_record_ >= page->records.size()) {
      prefetched_.pop_front();
      ++play_page_;
      play_record_ = 0;
      msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
      continue;
    }
    const MediaPacket record = page->records[play_record_];
    if (rebase_needed_) {
      origin_ = record.delivery_offset;
      base_ = msu_->sim().Now();
      rebase_needed_ = false;
    }
    const SimTime deadline = base_ + (record.delivery_offset - origin_);
    const int64_t gen_before = position_gen_;
    if (deadline > msu_->sim().Now()) {
      // tsleep until the 10 ms tick at/after the deadline; a packet whose
      // deadline already passed (mid-burst) goes out back to back instead.
      co_await msu_->machine().timer().WaitUntil(deadline);
      if (state_ != State::kRunning || position_gen_ != gen_before) {
        continue;  // paused, stopped or repositioned while asleep
      }
      // Waking the network process costs a tsleep/wakeup switch. Timekeeping
      // uses the Pentium cycle counter — the paper's workaround for the
      // port-I/O stall bug — so no in/out stalls here.
      co_await msu_->machine().cpu().Run(msu_->machine().cpu().params().timer_wakeup_compute, 0);
      if (state_ != State::kRunning || position_gen_ != gen_before) {
        continue;
      }
    }
    // Per-packet MSU bookkeeping (schedule lookup, buffer accounting); this
    // is charged whether or not the process slept — it is what caps the MSU
    // at ~90% of the raw send baseline. Stored (variable-rate) delivery
    // schedules cost more per packet than computed constant-rate ones.
    SimTime per_packet = msu_->machine().cpu().params().msu_packet_compute;
    if (!protocol_->is_constant_rate()) {
      per_packet += msu_->machine().cpu().params().msu_stored_schedule_compute;
    }
    co_await msu_->machine().cpu().Run(per_packet, 0);
    if (state_ != State::kRunning || position_gen_ != gen_before) {
      continue;
    }
    const auto route = protocol_->RoutePlayback(record);
    if (route.send && shared_) {
      // Shared fan-out: one real UDP datagram per member, each in the
      // member's own stream-id and sequence space. Iterate a snapshot of
      // stream ids — a VCR split can mutate members_ while a send is on the
      // wire — and re-find the member across every suspension point.
      std::vector<StreamId> targets;
      targets.reserve(members_.size());
      for (const SharedMemberState& member : members_) {
        targets.push_back(member.stream);
      }
      bool interrupted = false;
      fanout_in_flight_ = true;
      for (StreamId target : targets) {
        SharedMemberState* member = FindMemberByStream(target);
        if (member == nullptr) {
          continue;  // split away while fanning out
        }
        auto payload = std::make_shared<MediaDatagramPayload>();
        payload->stream = target;
        payload->seq = member->seq;
        payload->deadline = deadline;
        payload->packet = record;
        payload->is_control = route.to_control_port;
        const std::string dst = member->client_node;
        const int port =
            route.to_control_port ? member->client_udp_port + 1 : member->client_udp_port;
        const bool sent_ok =
            co_await msu_->node().SendUdp(dst, port, record.size, std::move(payload));
        member = FindMemberByStream(target);
        if (state_ != State::kRunning || position_gen_ != gen_before) {
          // The datagram is already on the wire with this sequence number.
          if (member != nullptr) {
            ++member->seq;
          }
          interrupted = true;
          break;
        }
        if (member != nullptr) {
          ++member->seq;
          member->bytes_moved += record.size;
          ++member->packets_sent;
        }
        if (!sent_ok) {
          NoteInteresting();
        }
        AccountSentPacket(msu_->sim().Now() - deadline);
      }
      fanout_in_flight_ = false;
      fanout_settled_.NotifyAll();
      if (interrupted) {
        continue;
      }
    } else if (route.send) {
      auto payload = std::make_shared<MediaDatagramPayload>();
      payload->stream = id_;
      payload->seq = send_seq_;
      payload->deadline = deadline;
      payload->packet = record;
      payload->is_control = route.to_control_port;
      const int port = route.to_control_port ? client_udp_port_ + 1 : client_udp_port_;
      const bool sent_ok =
          co_await msu_->node().SendUdp(client_node_, port, record.size, std::move(payload));
      if (state_ != State::kRunning || position_gen_ != gen_before) {
        ++send_seq_;  // the datagram is already on the wire with this number
        continue;
      }
      if (!sent_ok) {
        // ENOBUFS: congestion counts as interesting — it restarts the quiet
        // window so the stream stays on the per-packet model while squeezed.
        NoteInteresting();
      }
      AccountSentPacket(msu_->sim().Now() - deadline);
    }
    ++send_seq_;
    ++play_record_;
  }
  if (state_ != State::kStopped) {
    StopInternal();
    msu_->OnStreamFinished(this);
  }
}

Status MsuStream::Pause() {
  if (mode_ != Mode::kPlay) {
    return FailedPreconditionError("cannot pause a recording");
  }
  if (state_ != State::kRunning) {
    return FailedPreconditionError("stream not running");
  }
  NoteInteresting();  // settles any in-flight flow page before the state flips
  state_ = State::kPaused;
  ++position_gen_;
  buffers_changed_.NotifyAll();
  return OkStatus();
}

Status MsuStream::Resume() {
  if (state_ == State::kStarting) {
    state_ = State::kRunning;
    buffers_changed_.NotifyAll();
    msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
    return OkStatus();
  }
  if (state_ != State::kPaused) {
    return FailedPreconditionError("stream not paused");
  }
  NoteInteresting();
  state_ = State::kRunning;
  ++position_gen_;
  rebase_needed_ = true;  // deadlines restart from the paused position
  buffers_changed_.NotifyAll();
  msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
  return OkStatus();
}

Co<Status> MsuStream::SeekTo(SimTime media_offset) {
  if (mode_ != Mode::kPlay) {
    co_return FailedPreconditionError("cannot seek a recording");
  }
  if (file_ == nullptr) {
    co_return FailedPreconditionError("no file attached");
  }
  // Demote before the tree walk: while the internal-page reads are in
  // flight the stream keeps delivering from its old position, and the
  // per-packet model is the one whose mid-seek behavior we guarantee.
  NoteInteresting();
  const SimTime seek_start = msu_->sim().Now();
  auto target = file_->image().Seek(media_offset);
  if (!target.ok()) {
    co_return target.status();
  }
  // Charge the internal-page reads of the tree walk.
  for (const int64_t internal_page : target->internal_pages_read) {
    auto read = co_await msu_->fs().ReadPage(file_, static_cast<size_t>(internal_page));
    if (!read.ok()) {
      co_return read.status();
    }
  }
  if (msu_->ibtree_reads_metric_ != nullptr) {
    msu_->ibtree_reads_metric_->Add(static_cast<int64_t>(target->internal_pages_read.size()));
  }
  if (msu_->trace_ != nullptr) {
    msu_->trace_->Span(msu_->node().name(), "msu", "seek", seek_start,
                       "stream " + std::to_string(id_) + " -> " +
                           std::to_string(media_offset.millis()) + "ms");
  }
  prefetched_.clear();
  play_page_ = target->page_index;
  play_record_ = target->record_index;
  next_page_to_read_ = target->page_index;
  rebase_needed_ = true;
  ++position_gen_;
  buffers_changed_.NotifyAll();
  msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
  co_return OkStatus();
}

Co<Status> MsuStream::SwitchVariant(Variant variant) {
  if (mode_ != Mode::kPlay) {
    co_return FailedPreconditionError("cannot fast-scan a recording");
  }
  if (variant == variant_) {
    co_return OkStatus();
  }
  NoteInteresting();  // settle before file_ is swapped out from under the page
  const std::string* target_name = nullptr;
  switch (variant) {
    case Variant::kNormal:
      target_name = &file_name_;
      break;
    case Variant::kFastForward:
      target_name = &ff_file_;
      break;
    case Variant::kFastBackward:
      target_name = &fb_file_;
      break;
  }
  if (target_name->empty()) {
    co_return FailedPreconditionError("content has no fast-scan variant loaded");
  }
  auto target_file = msu_->fs().Lookup(*target_name);
  if (!target_file.ok()) {
    co_return target_file.status();
  }

  // Map the current media position between the normal-rate and filtered
  // timelines. The filtered file covers the same content in 1/K of the time
  // (every K-th frame kept), so positions scale by the duration ratio.
  const SimTime old_duration = file_->image().duration();
  const SimTime new_duration = (*target_file)->image().duration();
  SimTime position = CurrentMediaOffset();
  if (variant_ == Variant::kFastBackward) {
    position = old_duration - position;  // fb timeline runs backwards
  }
  double scale = 1.0;
  if (old_duration > SimTime()) {
    scale = new_duration.seconds() / old_duration.seconds();
  }
  SimTime mapped = SimTime::SecondsF(position.seconds() * scale);
  if (variant == Variant::kFastBackward) {
    mapped = new_duration - mapped;
  }
  mapped = std::clamp(mapped, SimTime(), new_duration);

  file_ = *target_file;
  variant_ = variant;
  CALLIOPE_CO_RETURN_IF_ERROR(co_await SeekTo(mapped));
  co_return OkStatus();
}

void MsuStream::OnRecordedPacket(const MediaPacket& packet) {
  if (mode_ != Mode::kRecord || state_ != State::kRunning) {
    return;
  }
  if (!record_started_) {
    record_started_ = true;
    record_start_ = msu_->sim().Now();
  }
  const SimTime arrival_offset = msu_->sim().Now() - record_start_;

  PacketSequence interleave;
  protocol_->OnRecordPacket(packet, arrival_offset, interleave);
  for (MediaPacket& control : interleave) {
    control.delivery_offset = std::max(control.delivery_offset, last_stored_offset_);
    last_stored_offset_ = control.delivery_offset;
    (void)builder_.Add(control);
  }

  MediaPacket stored = packet;
  stored.delivery_offset =
      std::max(protocol_->RecordDeliveryOffset(packet, arrival_offset), last_stored_offset_);
  last_stored_offset_ = stored.delivery_offset;
  if (Status added = builder_.Add(stored); !added.ok()) {
    CALLIOPE_LOG(kWarning, "msu") << "record drop: " << added.ToString();
    return;
  }
  if (NeedsDiskService()) {
    msu_->disk_work_[static_cast<size_t>(disk_)]->NotifyAll();
  }
}

Co<Status> MsuStream::FinishRecording() {
  state_ = State::kStopped;
  // Wait out any write the disk process has in flight.
  while (record_write_in_flight_) {
    co_await record_pages_ready_.Wait();
  }
  IbTreeFile image = builder_.Finish();
  // Drain the remaining closed pages.
  while (pages_written_ < image.page_count()) {
    const Status written =
        co_await msu_->fs().WriteNextPage(file_, static_cast<int64_t>(pages_written_));
    if (!written.ok()) {
      co_return written;
    }
    ++pages_written_;
    bytes_moved_ += kDataPageSize;
  }
  co_return msu_->fs().CommitRecording(file_, std::move(image));
}

Co<Status> MsuStream::Quit() {
  if (state_ == State::kStopped) {
    co_return OkStatus();
  }
  Status result = OkStatus();
  if (mode_ == Mode::kRecord) {
    result = co_await FinishRecording();
    if (result.ok()) {
      msu_->FlushMetadataBehind();
    } else if (file_ != nullptr && !file_->committed()) {
      // The recording could not be sealed; a partial file with no IB-tree is
      // unreadable, so free its blocks. The termination note then reports
      // record_committed=false and the Coordinator refunds the full estimate.
      (void)msu_->fs().Delete(file_name_);
      file_ = nullptr;
    }
  }
  StopInternal();
  msu_->OnStreamFinished(this);
  co_return result;
}

void MsuStream::StopInternal() {
  // Settle any in-flight flow page first: records whose delivery instants
  // already passed were sent in the per-packet model, so the analytic model
  // must count them before the page is dropped (quit, crash, data loss).
  NoteInteresting();
  state_ = State::kStopped;
  ++position_gen_;
  prefetched_.clear();
  buffers_changed_.NotifyAll();
  record_pages_ready_.NotifyAll();
}

void MsuStream::AccountSentPacket(SimTime lateness) {
  lateness_.Record(lateness);
  ++packets_sent_;
  if (packets_sent_ == 1 && msu_->trace_ != nullptr) {
    msu_->trace_->Instant(msu_->node().name(), "msu", "first-packet",
                          "stream " + std::to_string(id_));
  }
  if (msu_->packets_sent_metric_ != nullptr) {
    msu_->packets_sent_metric_->Add();
    if (lateness > SimTime()) {
      msu_->packets_late_metric_->Add();
    }
    msu_->send_lateness_us_->Record(std::max<int64_t>(lateness.micros(), 0));
  }
  if (msu_->qos_ != nullptr) {
    msu_->qos_->RecordLateness(lateness);
  }
}

}  // namespace calliope
