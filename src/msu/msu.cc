#include "src/msu/msu.h"

#include <utility>

#include "src/util/backoff.h"
#include "src/util/logging.h"

namespace calliope {

namespace {

std::vector<Disk*> MachineDisks(Machine& machine) {
  std::vector<Disk*> disks;
  for (size_t i = 0; i < machine.disk_count(); ++i) {
    disks.push_back(&machine.disk(i));
  }
  return disks;
}

}  // namespace

Msu::Msu(Machine& machine, NetNode& node, MsuParams params)
    : machine_(&machine),
      node_(&node),
      params_(params),
      fs_(MachineDisks(machine)),
      page_cache_(params.cache_memory),
      duty_cycle_(machine.params().disk, machine.params().hba, params.block_size,
                  static_cast<int>(machine.disk_count()), params.striped_layout),
      protocols_(ProtocolRegistry::WithBuiltins()),
      buffer_pool_(machine.sim(), params.buffer_count) {
  for (size_t d = 0; d < machine.disk_count(); ++d) {
    if (params_.elevator_scheduling) {
      machine.disk(d).set_discipline(DiskQueueDiscipline::kElevator);
    }
    // A degraded or failing disk is an interesting moment for every flow-mode
    // stream it serves: drop them back to the per-packet model, which is the
    // one whose fault behavior the chaos suites verify.
    machine.disk(d).set_fault_observer(
        [this, disk = static_cast<int>(d)](const DiskFault&) { NoteDiskInteresting(disk); });
    disk_work_.push_back(std::make_unique<Condition>(machine.sim()));
    DiskProcess(static_cast<int>(d));
  }
  (void)node_->BindUdp(params_.media_udp_port,
                       [this](const Datagram& datagram) { OnMediaDatagram(datagram); });
  // Replica pull listener (DESIGN §5.8): copy targets dial this port and pull
  // one page per request; the pull's duty slot was admitted at prepare time.
  (void)node_->ListenTcp(params_.replica_pull_port, [this](TcpConn* conn) {
    conn->set_request_handler([this](const MessageBody& body) -> Co<MessageBody> {
      if (const auto* pull = std::get_if<ReplPullRequest>(&body)) {
        co_return co_await ServeReplicaPull(*pull);
      }
      co_return MessageBody{SimpleResponse{false, "msu: not a replica pull"}};
    });
  });
  ProgressReporter();
}

void Msu::AttachObservability(MetricsRegistry* metrics, TraceRecorder* trace) {
  metrics_ = metrics;
  trace_ = trace;
  if (metrics_ == nullptr) {
    packets_sent_metric_ = nullptr;
    packets_late_metric_ = nullptr;
    buffer_stalls_metric_ = nullptr;
    blocks_read_metric_ = nullptr;
    blocks_written_metric_ = nullptr;
    ibtree_reads_metric_ = nullptr;
    send_lateness_us_ = nullptr;
    flow_chunks_metric_ = nullptr;
    flow_packets_metric_ = nullptr;
    flow_demotions_metric_ = nullptr;
    flow_promotions_metric_ = nullptr;
    flow_refills_metric_ = nullptr;
    cache_interval_hits_metric_ = nullptr;
    cache_prefix_hits_metric_ = nullptr;
    cache_misses_metric_ = nullptr;
    cache_insertions_metric_ = nullptr;
    cache_evictions_metric_ = nullptr;
    repl_pages_metric_ = nullptr;
    repl_bytes_metric_ = nullptr;
    repl_installs_metric_ = nullptr;
    repl_aborts_metric_ = nullptr;
    repl_preempts_metric_ = nullptr;
    return;
  }
  // Cluster-global fidelity counters (find-or-create: all MSUs share them).
  flow_chunks_metric_ = &metrics_->counter("sim.flow.chunks");
  flow_packets_metric_ = &metrics_->counter("sim.flow.packets");
  flow_demotions_metric_ = &metrics_->counter("sim.flow.demotions");
  flow_promotions_metric_ = &metrics_->counter("sim.flow.promotions");
  flow_refills_metric_ = &metrics_->counter("sim.flow.refills");
  // Cluster-global interval/prefix cache counters (DESIGN §5.6).
  cache_interval_hits_metric_ = &metrics_->counter("sim.cache.interval_hits");
  cache_prefix_hits_metric_ = &metrics_->counter("sim.cache.prefix_hits");
  cache_misses_metric_ = &metrics_->counter("sim.cache.misses");
  cache_insertions_metric_ = &metrics_->counter("sim.cache.insertions");
  cache_evictions_metric_ = &metrics_->counter("sim.cache.evictions");
  // Cluster-global background-replication counters (DESIGN §5.8).
  repl_pages_metric_ = &metrics_->counter("repl.pages_copied");
  repl_bytes_metric_ = &metrics_->counter("repl.bytes_copied");
  repl_installs_metric_ = &metrics_->counter("repl.installs");
  repl_aborts_metric_ = &metrics_->counter("repl.aborts");
  repl_preempts_metric_ = &metrics_->counter("repl.preemptions");
  const std::string prefix = "msu." + node_->name() + ".";
  packets_sent_metric_ = &metrics_->counter(prefix + "packets_sent");
  packets_late_metric_ = &metrics_->counter(prefix + "packets_late");
  buffer_stalls_metric_ = &metrics_->counter(prefix + "buffer_stalls");
  blocks_read_metric_ = &metrics_->counter(prefix + "blocks_read");
  blocks_written_metric_ = &metrics_->counter(prefix + "blocks_written");
  ibtree_reads_metric_ = &metrics_->counter(prefix + "ibtree_internal_reads");
  send_lateness_us_ = &metrics_->histogram(prefix + "send_lateness_us");
  metrics_->SetGaugeCallback(prefix + "streams.active",
                             [this] { return static_cast<int64_t>(streams_.size()); });
  for (size_t d = 0; d < machine_->disk_count(); ++d) {
    metrics_->SetGaugeCallback(prefix + "disk" + std::to_string(d) + ".slots", [this, d] {
      return static_cast<int64_t>(duty_cycle_.active_streams(static_cast<int>(d)));
    });
  }
}

Task Msu::DiskProcess(int disk_index) {
  // "The MSU services the customers for each disk in a round-robin fashion":
  // one block of service per stream per pass, in stream-id order.
  auto& work = *disk_work_[static_cast<size_t>(disk_index)];
  StreamId cursor = 0;
  for (;;) {
    MsuStream* chosen = nullptr;
    // Pick the first stream after `cursor` (wrapping) that needs service.
    for (int pass = 0; pass < 2 && chosen == nullptr; ++pass) {
      for (auto& [id, stream] : streams_) {
        const bool after_cursor = pass == 1 || id > cursor;
        if (after_cursor && stream->disk() == disk_index && stream->NeedsDiskService()) {
          chosen = stream.get();
          break;
        }
      }
    }
    if (chosen == nullptr) {
      co_await work.Wait();
      continue;
    }
    cursor = chosen->id();
    co_await chosen->ServiceDisk();
  }
}

void Msu::OnMediaDatagram(const Datagram& datagram) {
  if (crashed_) {
    return;
  }
  auto payload = std::static_pointer_cast<const MediaDatagramPayload>(datagram.payload);
  if (payload == nullptr) {
    return;
  }
  auto it = streams_.find(payload->stream);
  if (it == streams_.end()) {
    return;
  }
  it->second->OnRecordedPacket(payload->packet);
}

bool Msu::AcceptEpoch(int64_t epoch, const std::string& host) {
  if (epoch <= 0) {
    return true;  // HA disabled
  }
  if (epoch < last_epoch_) {
    return false;  // deposed primary
  }
  auto it = epoch_hosts_.find(epoch);
  if (it != epoch_hosts_.end() && it->second != host) {
    return false;  // a second coordinator claiming an already-claimed epoch
  }
  epoch_hosts_[epoch] = host;
  last_epoch_ = epoch;
  return true;
}

std::string Msu::NextCoordinatorHost() {
  if (params_.coordinator_hosts.empty()) {
    return coordinator_host_;
  }
  const std::string& host =
      params_.coordinator_hosts[host_index_ % params_.coordinator_hosts.size()];
  ++host_index_;
  return host;
}

Co<Status> Msu::RegisterWithCoordinator(std::string coordinator_node) {
  coordinator_host_ = coordinator_node;
  auto conn = co_await node_->ConnectTcp(coordinator_node, params_.coordinator_port);
  if (!conn.ok()) {
    co_return conn.status();
  }
  coordinator_conn_ = *conn;
  // "When the MSU becomes available again, it contacts the Coordinator" —
  // symmetrically, when the *Coordinator* comes back (after a crash or a
  // partition broke this connection) the MSU re-registers on its own.
  coordinator_conn_->set_close_handler([this](TcpConn* closed) {
    if (coordinator_conn_ == closed) {
      coordinator_conn_ = nullptr;
    }
    ScheduleReconnect();
  });
  coordinator_conn_->set_request_handler(
      [this, host = coordinator_node](const MessageBody& body) -> Co<MessageBody> {
        if (const auto* start = std::get_if<MsuStartStream>(&body)) {
          // Epoch fence: refuse data-path commands from a deposed primary.
          if (!AcceptEpoch(start->epoch, host)) {
            co_return MessageBody{MsuStartStreamResponse{false, "stale epoch"}};
          }
          co_return co_await HandleStartStream(*start);
        }
        if (const auto* del = std::get_if<MsuDeleteFile>(&body)) {
          if (!AcceptEpoch(del->epoch, host)) {
            co_return MessageBody{SimpleResponse{false, "stale epoch"}};
          }
          // The cache holds pointers into the file's page images; drop them
          // before the delete frees the backing store.
          page_cache_.InvalidateFile(del->file);
          const Status deleted = fs_.Delete(del->file);
          if (deleted.ok()) {
            FlushMetadataBehind();
          }
          co_return MessageBody{SimpleResponse{deleted.ok(), deleted.ok() ? "" : deleted.ToString()}};
        }
        if (const auto* prepare = std::get_if<MsuPrepareCopy>(&body)) {
          if (!AcceptEpoch(prepare->epoch, host)) {
            co_return MessageBody{MsuPrepareCopyResponse{false, "stale epoch"}};
          }
          co_return HandlePrepareCopy(*prepare);
        }
        if (const auto* begin = std::get_if<MsuBeginCopy>(&body)) {
          if (!AcceptEpoch(begin->epoch, host)) {
            co_return MessageBody{SimpleResponse{false, "stale epoch"}};
          }
          co_return HandleBeginCopy(*begin);
        }
        if (const auto* abort = std::get_if<MsuAbortCopy>(&body)) {
          if (!AcceptEpoch(abort->epoch, host)) {
            co_return MessageBody{SimpleResponse{false, "stale epoch"}};
          }
          co_return HandleAbortCopy(*abort);
        }
        co_return MessageBody{SimpleResponse{false, "msu: unexpected request"}};
      });

  MsuRegisterRequest reg;
  reg.msu_node = node_->name();
  reg.disk_count = static_cast<int>(machine_->disk_count());
  reg.free_space = fs_.TotalFreeSpace();
  reg.nic_bandwidth = machine_->fddi().params().wire_rate;
  reg.cache_memory = params_.cache_memory;
  reg.warm = warm_eligible_;
  if (reg.warm) {
    for (const auto& [id, stream] : streams_) {
      reg.active_streams.push_back(id);
    }
  }
  auto response = co_await coordinator_conn_->Call(MessageBody{std::move(reg)});
  if (!response.ok()) {
    co_return response.status();
  }
  bool ok = false;
  std::string error = "bad response type";
  int64_t epoch = 0;
  std::vector<StreamId> stale;
  if (const auto* full = std::get_if<MsuRegisterResponse>(&response->body)) {
    ok = full->ok;
    error = full->error;
    epoch = full->epoch;
    stale = full->stale_streams;
  } else if (const auto* simple = std::get_if<SimpleResponse>(&response->body)) {
    ok = simple->ok;
    error = simple->error;
  }
  const bool epoch_ok = ok && AcceptEpoch(epoch, coordinator_node);
  if (!ok || !epoch_ok) {
    // Drop the useless connection (a standby, a deposed primary, or an epoch
    // conflict) so the redial loop keeps cycling hosts instead of treating
    // the live-but-wrong connection as success.
    TcpConn* stale_conn = coordinator_conn_;
    coordinator_conn_ = nullptr;
    if (stale_conn != nullptr && !stale_conn->closed()) {
      stale_conn->Close();
    }
    if (!ok) {
      co_return InternalError("coordinator rejected registration: " + error);
    }
    co_return InternalError("coordinator epoch " + std::to_string(epoch) +
                            " is stale or conflicts (have " + std::to_string(last_epoch_) + ")");
  }
  // Streams the new primary does not know about (admitted by the old primary
  // but never replicated): quit them locally so the resources free up; their
  // termination notes are dropped by the Coordinator as unknown streams.
  if (!stale.empty()) {
    QuitStaleStreams(std::move(stale));
  }
  warm_eligible_ = true;
  // Terminations that went unacknowledged while no primary was reachable are
  // owed to the new one — and so are replica install/failure notes.
  FlushTerminationNotes();
  FlushReplNotes();
  co_return OkStatus();
}

Task Msu::QuitStaleStreams(std::vector<StreamId> stale) {
  for (StreamId id : stale) {
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      continue;
    }
    CALLIOPE_LOG(kWarning, "msu") << node_->name() << ": quitting stale stream " << id
                                  << " (unknown to the new primary)";
    co_await it->second->Quit();
  }
}

Co<void> Msu::EnsureControlConn(GroupId group_id, std::string client_node, int control_port) {
  auto group_it = groups_.find(group_id);
  if (group_it == groups_.end() || group_it->second.control_conn != nullptr ||
      control_port == 0) {
    co_return;
  }
  // "As soon as it is ready to deliver the content stream, the MSU
  // establishes a control stream (TCP connection) with the client."
  auto conn = co_await node_->ConnectTcp(client_node, control_port);
  if (!conn.ok()) {
    CALLIOPE_LOG(kWarning, "msu") << "control conn failed: " << conn.status().ToString();
    co_return;
  }
  // Re-find the group: a crash (or the stream ending) may have erased it
  // while the connect was in flight, and then nothing owns the connection.
  group_it = groups_.find(group_id);
  if (group_it == groups_.end()) {
    (*conn)->Close();
    co_return;
  }
  Group& group = group_it->second;
  group.control_conn = *conn;
  group.control_conn->set_request_handler(
      [this](const MessageBody& body) -> Co<MessageBody> {
        if (const auto* vcr = std::get_if<VcrCommand>(&body)) {
          co_return co_await HandleVcr(*vcr);
        }
        co_return MessageBody{VcrAck{false, "msu: not a vcr command"}};
      });
}

Co<void> Msu::SendGroupInfo(Group& group) {
  if (group.control_conn == nullptr || group.control_conn->closed()) {
    co_return;
  }
  StreamGroupInfo info;
  info.group = group.id;
  info.msu_node = node_->name();
  info.media_udp_port = params_.media_udp_port;
  for (size_t i = 0; i < group.streams.size(); ++i) {
    auto member_it = streams_.find(group.streams[i]);
    if (member_it == streams_.end()) {
      continue;
    }
    info.members.push_back(StreamGroupInfo::Member{
        group.streams[i], static_cast<int>(i),
        member_it->second->mode() == MsuStream::Mode::kRecord});
  }
  co_await group.control_conn->Send(Envelope{0, false, MessageBody{std::move(info)}});
}

Co<MessageBody> Msu::HandleStartStream(MsuStartStream request) {
  if (crashed_) {
    co_return MessageBody{MsuStartStreamResponse{false, "msu down"}};
  }
  auto protocol = protocols_.Instantiate(request.protocol);
  if (!protocol.ok()) {
    co_return MessageBody{MsuStartStreamResponse{false, protocol.status().ToString()}};
  }

  auto stream = std::make_unique<MsuStream>(*this, request, std::move(*protocol));

  // Attach or create the file and pick the disk.
  if (request.record) {
    const Bytes estimated = request.rate.BytesIn(request.estimated_length);
    auto file = fs_.Create(request.file, estimated, params_.striped_layout, request.disk_hint);
    if (!file.ok()) {
      co_return MessageBody{MsuStartStreamResponse{false, file.status().ToString()}};
    }
    stream->file_ = *file;
    stream->disk_ = (*file)->home_disk();
  } else {
    auto file = fs_.Lookup(request.file);
    if (!file.ok()) {
      co_return MessageBody{MsuStartStreamResponse{false, file.status().ToString()}};
    }
    if (!(*file)->committed()) {
      co_return MessageBody{MsuStartStreamResponse{false, "content still recording"}};
    }
    stream->file_ = *file;
    stream->disk_ = (*file)->home_disk();
    if (request.pin_prefix) {
      // Popularity-EWMA hot title: pin its first pages so every fresh viewer
      // reads the startup burst from memory.
      page_cache_.PinPrefix(request.file, params_.cache_prefix_pages);
    }
  }

  // Admission: one duty-cycle slot on the stream's disk. Cache-fed trailing
  // viewers skip admission — their reads are meant to come out of the
  // interval cache; a miss spills to disk unadmitted (counted in sim.cache).
  if (!stream->from_cache_) {
    Status admitted = duty_cycle_.Admit(stream->disk_, request.rate);
    if (!admitted.ok() && PreemptCopyOnDisk(stream->disk_)) {
      // A background replica copy held the last slot: the live viewer wins
      // (DESIGN §5.8 — replication must never displace real-time service).
      admitted = duty_cycle_.Admit(stream->disk_, request.rate);
    }
    if (!admitted.ok()) {
      if (request.record) {
        (void)fs_.Delete(request.file);
      }
      co_return MessageBody{MsuStartStreamResponse{false, admitted.ToString()}};
    }
  }
  // Double buffering: two large buffers per stream.
  if (!buffer_pool_.TryAcquire() ) {
    if (!stream->from_cache_) {
      duty_cycle_.Release(stream->disk_, request.rate);
    }
    co_return MessageBody{MsuStartStreamResponse{false, "out of stream buffers"}};
  }
  if (!buffer_pool_.TryAcquire()) {
    buffer_pool_.Release();
    if (!stream->from_cache_) {
      duty_cycle_.Release(stream->disk_, request.rate);
    }
    co_return MessageBody{MsuStartStreamResponse{false, "out of stream buffers"}};
  }

  // Admission churn is an interesting moment for the disk's existing
  // flow-mode streams: the new load changes contention, so they re-earn
  // their fast path through a fresh quiet window on the per-packet model.
  NoteDiskInteresting(stream->disk_);

  MsuStream* raw = stream.get();
  streams_[raw->id()] = std::move(stream);
  if (raw->shared()) {
    // Each member gets its own client-facing group entry, all pointing at the
    // one delivery stream so VCR commands find it. Snapshot the member list:
    // a VCR split arriving over an already-dialed member conn can mutate it
    // while a later member's conn is still being dialed.
    const std::vector<SharedMemberState> member_list = raw->members();
    for (const SharedMemberState& member : member_list) {
      auto& group = groups_[member.group];
      group.id = member.group;
      group.streams.assign(1, raw->id());
      // Members always get their own control conns (`open_control_conn`
      // refers to the delivery stream, which the Coordinator owns silently).
      co_await EnsureControlConn(member.group, member.client_node, member.client_control_port);
    }
  } else {
    auto& group = groups_[request.group];
    group.id = request.group;
    group.streams.push_back(raw->id());
    if (request.open_control_conn) {
      co_await EnsureControlConn(request.group, request.client_node, request.client_control_port);
    }
  }

  if (request.record) {
    raw->state_ = MsuStream::State::kRunning;
  } else {
    raw->PlaybackLoop();
    if (request.start_offset > SimTime()) {
      // Failover resume: jump to where the stream's previous MSU died. A
      // failed seek (corrupt tree, truncated file) falls back to the start.
      const Status seeked = co_await raw->SeekTo(request.start_offset);
      if (!seeked.ok()) {
        CALLIOPE_LOG(kWarning, "msu") << "start-offset seek failed: " << seeked.ToString();
      }
    }
    if (!request.start_paused) {
      (void)raw->Resume();  // kStarting -> kRunning; first slot fills the buffer
    }
  }

  // Tell the client the group is live (and, for recordings, where to send).
  if (raw->shared()) {
    // Per-member group info carrying the member's own stream id — the
    // client's arrival accounting is keyed by it, so a shared viewer looks
    // exactly like a solo one from the living-room end.
    const std::vector<SharedMemberState> member_list = raw->members();
    for (const SharedMemberState& member : member_list) {
      auto group_it = groups_.find(member.group);
      if (group_it == groups_.end() || group_it->second.control_conn == nullptr ||
          group_it->second.control_conn->closed()) {
        continue;
      }
      StreamGroupInfo info;
      info.group = member.group;
      info.msu_node = node_->name();
      info.media_udp_port = params_.media_udp_port;
      info.members.push_back(StreamGroupInfo::Member{member.stream, 0, false});
      co_await group_it->second.control_conn->Send(Envelope{0, false, MessageBody{std::move(info)}});
    }
  } else {
    auto group_it = groups_.find(request.group);
    if (group_it != groups_.end()) {
      co_await SendGroupInfo(group_it->second);
    }
  }
  co_return MessageBody{MsuStartStreamResponse{true, ""}};
}

namespace {

const char* VcrOpName(VcrCommand::Op op) {
  switch (op) {
    case VcrCommand::Op::kPlay:
      return "play";
    case VcrCommand::Op::kPause:
      return "pause";
    case VcrCommand::Op::kSeek:
      return "seek";
    case VcrCommand::Op::kFastForward:
      return "ff";
    case VcrCommand::Op::kFastBackward:
      return "fb";
    case VcrCommand::Op::kQuit:
      return "quit";
  }
  return "?";
}

}  // namespace

Co<MessageBody> Msu::HandleVcr(VcrCommand command) {
  if (trace_ != nullptr) {
    trace_->Instant(node_->name(), "msu", std::string("vcr:") + VcrOpName(command.op),
                    "group " + std::to_string(command.group));
  }
  auto group_it = groups_.find(command.group);
  if (group_it == groups_.end()) {
    co_return MessageBody{VcrAck{false, "no such stream group"}};
  }
  // A shared member's group maps to the delivery stream: route the op through
  // the sharing surface. Quit detaches the member; any other op with other
  // members still attached splits the member into its own solo stream; the
  // last member keeps the delivery stream and gets solo semantics in place.
  if (group_it->second.streams.size() == 1) {
    auto shared_it = streams_.find(group_it->second.streams.front());
    if (shared_it != streams_.end() && shared_it->second->shared()) {
      MsuStream& stream = *shared_it->second;
      if (stream.FindMember(command.group) == nullptr) {
        co_return MessageBody{VcrAck{false, "no such shared member"}};
      }
      if (command.op == VcrCommand::Op::kQuit) {
        co_return co_await QuitSharedMember(stream, command.group);
      }
      if (stream.members().size() > 1) {
        co_return co_await SplitSharedMember(stream, command.group, command);
      }
      // Sole remaining member: fall through and apply the op directly.
    }
  }
  // "All streams in a stream group are controlled by the same VCR commands."
  const std::vector<StreamId> members = group_it->second.streams;
  Status overall = OkStatus();
  for (StreamId id : members) {
    auto it = streams_.find(id);
    if (it == streams_.end()) {
      continue;
    }
    MsuStream& stream = *it->second;
    Status status = OkStatus();
    switch (command.op) {
      case VcrCommand::Op::kPlay:
        // NOTE: co_await must be a full statement (never nested in ternary
        // or argument expressions) — GCC 12 mishandles branch temporaries.
        if (stream.state() == MsuStream::State::kPaused ||
            stream.state() == MsuStream::State::kStarting) {
          status = stream.Resume();
        } else {
          status = co_await stream.SwitchVariant(MsuStream::Variant::kNormal);
        }
        break;
      case VcrCommand::Op::kPause:
        status = stream.Pause();
        break;
      case VcrCommand::Op::kSeek:
        status = co_await stream.SeekTo(command.seek_to);
        break;
      case VcrCommand::Op::kFastForward:
        status = co_await stream.SwitchVariant(MsuStream::Variant::kFastForward);
        break;
      case VcrCommand::Op::kFastBackward:
        status = co_await stream.SwitchVariant(MsuStream::Variant::kFastBackward);
        break;
      case VcrCommand::Op::kQuit:
        status = co_await stream.Quit();
        break;
    }
    if (!status.ok()) {
      overall = status;
    }
  }
  co_return MessageBody{VcrAck{overall.ok(), overall.ok() ? "" : overall.ToString()}};
}

Co<MessageBody> Msu::QuitSharedMember(MsuStream& stream, GroupId group) {
  // Settle first: any in-flight flow page ships to the current membership and
  // any packet fan-out completes, so the departing member's byte accounting
  // is complete at the detach point.
  stream.NoteInteresting();
  co_await stream.SettleFanout();
  if (stream.FindMember(group) == nullptr) {
    // Stream finished (or the member was already torn down) while settling.
    co_return MessageBody{VcrAck{true, ""}};
  }
  const SharedMemberState member = stream.DetachMember(group);
  EmitMemberTermination(stream, member);
  if (stream.members().empty()) {
    // Last viewer gone: the delivery stream has nobody to feed.
    co_await stream.Quit();
  }
  co_return MessageBody{VcrAck{true, ""}};
}

Co<MessageBody> Msu::SplitSharedMember(MsuStream& stream, GroupId group, VcrCommand command) {
  // Settle + demote before detaching: membership churn is an interesting
  // moment, and the split offset must account every byte already fanned out —
  // a detach mid-fan-out would re-deliver the record already on the wire.
  stream.NoteInteresting();
  co_await stream.SettleFanout();
  if (stream.FindMember(group) == nullptr) {
    // Stream finished while settling: the member's termination note has
    // already gone out, nothing left to split.
    co_return MessageBody{VcrAck{true, ""}};
  }
  const SharedMemberState member = stream.DetachMember(group);
  SharedMemberSplit split;
  split.msu_node = node_->name();
  split.delivery_stream = stream.id();
  split.member_stream = member.stream;
  split.group = member.group;
  split.media_offset = stream.CurrentMediaOffset();
  split.bytes_moved = member.bytes_moved;
  split.op = command.op;
  split.seek_to = command.seek_to;
  if (trace_ != nullptr) {
    trace_->Instant(node_->name(), "msu", "shared-split",
                    "group " + std::to_string(group) + " off stream " +
                        std::to_string(stream.id()));
  }
  SendSplitToCoordinator(std::move(split));
  // Drop the member's old group entry; the Coordinator's solo re-admission
  // dials the client a fresh control conn (the client treats it as a
  // migration). Deferred close so the VcrAck below still gets through.
  auto group_it = groups_.find(member.group);
  if (group_it != groups_.end()) {
    TcpConn* conn = group_it->second.control_conn;
    groups_.erase(group_it);
    if (conn != nullptr && !conn->closed()) {
      sim().ScheduleAfter(SimTime::Millis(20), [conn] { conn->Close(); });
    }
  }
  co_return MessageBody{VcrAck{true, ""}};
}

Task Msu::SendSplitToCoordinator(SharedMemberSplit split) {
  if (crashed_ || coordinator_conn_ == nullptr || coordinator_conn_->closed()) {
    // No primary reachable: the member's progress records let failover resume
    // it as a unique stream once a coordinator is back.
    co_return;
  }
  auto response = co_await coordinator_conn_->Call(MessageBody{std::move(split)});
  if (!response.ok()) {
    CALLIOPE_LOG(kWarning, "msu") << node_->name() << ": shared-member split lost: "
                                  << response.status().ToString();
  }
}

void Msu::EmitMemberTermination(MsuStream& stream, const SharedMemberState& member) {
  auto group_it = groups_.find(member.group);
  if (group_it != groups_.end()) {
    TcpConn* conn = group_it->second.control_conn;
    groups_.erase(group_it);
    if (conn != nullptr && !conn->closed()) {
      sim().ScheduleAfter(SimTime::Millis(20), [conn] { conn->Close(); });
    }
  }
  StreamTerminated note;
  note.stream = member.stream;
  note.group = member.group;
  note.file = stream.file_name();
  note.bytes_moved = member.bytes_moved;
  note.was_recording = false;
  note.disk = stream.disk();
  note.last_media_offset = stream.CurrentMediaOffset();
  NotifyTermination(std::move(note));
}

const DataPage* Msu::CacheLookup(const std::string& file, size_t page_index) {
  if (!page_cache_.enabled()) {
    return nullptr;
  }
  const MsuPageCache::LookupResult result = page_cache_.Lookup(file, page_index);
  if (result.page == nullptr) {
    if (cache_misses_metric_ != nullptr) {
      cache_misses_metric_->Add();
    }
    return nullptr;
  }
  if (result.kind == MsuPageCache::HitKind::kPrefix) {
    if (cache_prefix_hits_metric_ != nullptr) {
      cache_prefix_hits_metric_->Add();
    }
  } else if (cache_interval_hits_metric_ != nullptr) {
    cache_interval_hits_metric_->Add();
  }
  return result.page;
}

void Msu::CacheInsert(const std::string& file, size_t page_index, const DataPage* page) {
  if (!page_cache_.enabled()) {
    return;
  }
  const int64_t evictions_before = page_cache_.evictions();
  if (page_cache_.Insert(file, page_index, page) && cache_insertions_metric_ != nullptr) {
    cache_insertions_metric_->Add();
  }
  const int64_t evicted = page_cache_.evictions() - evictions_before;
  if (evicted > 0 && cache_evictions_metric_ != nullptr) {
    cache_evictions_metric_->Add(evicted);
  }
}

void Msu::NoteDiskInteresting(int disk_index) {
  for (auto& [id, stream] : streams_) {
    if (stream->disk() == disk_index && stream->mode() == MsuStream::Mode::kPlay) {
      stream->NoteInteresting();
    }
  }
}

void Msu::OnStreamFinished(MsuStream* stream) {
  auto it = streams_.find(stream->id());
  if (it == streams_.end()) {
    return;  // already finished
  }
  if (trace_ != nullptr) {
    trace_->Span(node_->name(), "msu",
                 (stream->mode() == MsuStream::Mode::kRecord ? "record:" : "play:") +
                     stream->file_name(),
                 stream->start_time(), "stream " + std::to_string(stream->id()) + " quiesced");
  }
  if (!stream->from_cache_) {
    duty_cycle_.Release(stream->disk(), stream->rate_);
  }
  buffer_pool_.Release();
  buffer_pool_.Release();

  // A shared delivery stream ending (end of content, data loss) takes its
  // remaining members with it: each gets its own termination note so the
  // Coordinator releases the member holds and the clients learn.
  if (stream->shared()) {
    for (const SharedMemberState& member : stream->members_) {
      EmitMemberTermination(*stream, member);
    }
    stream->members_.clear();
  }

  // Group bookkeeping: drop this member; tear down the control connection
  // when the last member ends.
  auto group_it = groups_.find(stream->group());
  if (group_it != groups_.end()) {
    auto& members = group_it->second.streams;
    members.erase(std::remove(members.begin(), members.end(), stream->id()), members.end());
    if (members.empty()) {
      // Defer the close: if this termination was triggered by a VCR "quit",
      // the acknowledgment still has to travel back over this connection.
      TcpConn* conn = group_it->second.control_conn;
      groups_.erase(group_it);
      if (conn != nullptr && !conn->closed()) {
        sim().ScheduleAfter(SimTime::Millis(20), [conn] { conn->Close(); });
      }
    }
  }

  // "After a 'quit' command from the client, the MSU informs the coordinator
  // that the stream has been terminated."
  StreamTerminated note;
  note.stream = stream->id();
  note.group = stream->group();
  note.file = stream->file_name();
  note.bytes_moved = stream->bytes_moved();
  note.was_recording = stream->mode() == MsuStream::Mode::kRecord;
  note.disk = stream->disk();
  if (note.was_recording && stream->file_ != nullptr && stream->file_->committed()) {
    note.record_committed = true;
    note.recorded_duration = stream->file_->image().duration();
  }
  if (!note.was_recording) {
    note.last_media_offset = stream->CurrentMediaOffset();
  }
  NotifyTermination(std::move(note));

  finished_streams_[stream->id()] = std::move(it->second);
  streams_.erase(it);
}

void Msu::NotifyTermination(StreamTerminated note) {
  // Queue-then-flush so a primary failover between the stream ending and the
  // note arriving cannot orphan the termination: the note stays queued until
  // some primary acknowledges it.
  unsent_notes_.push_back(std::move(note));
  FlushTerminationNotes();
}

Task Msu::FlushTerminationNotes() {
  if (notes_flushing_) {
    co_return;
  }
  notes_flushing_ = true;
  while (!unsent_notes_.empty() && !crashed_ && coordinator_conn_ != nullptr &&
         !coordinator_conn_->closed()) {
    StreamTerminated note = unsent_notes_.front();
    auto response = co_await coordinator_conn_->Call(MessageBody{std::move(note)});
    if (!response.ok()) {
      break;  // conn broke; the close handler's reconnect re-triggers a flush
    }
    const auto* ack = std::get_if<SimpleResponse>(&response->body);
    if (ack == nullptr || !ack->ok) {
      // "not primary": the coordinator stepped down between our registration
      // and this call. Keep the note queued, drop the stale connection and
      // redial until the new primary answers.
      TcpConn* stale = coordinator_conn_;
      coordinator_conn_ = nullptr;
      if (stale != nullptr && !stale->closed()) {
        stale->Close();
      }
      ScheduleReconnect();
      break;
    }
    unsent_notes_.pop_front();
  }
  notes_flushing_ = false;
}

MessageBody Msu::HandlePrepareCopy(const MsuPrepareCopy& request) {
  if (crashed_) {
    return MessageBody{MsuPrepareCopyResponse{false, "msu down"}};
  }
  if (replica_sources_.count(request.op) != 0) {
    return MessageBody{MsuPrepareCopyResponse{false, "op already prepared"}};
  }
  auto file = fs_.Lookup(request.file);
  if (!file.ok()) {
    return MessageBody{MsuPrepareCopyResponse{false, file.status().ToString()}};
  }
  if (!(*file)->committed()) {
    return MessageBody{MsuPrepareCopyResponse{false, "content still recording"}};
  }
  const int disk = (*file)->home_disk();
  // The copy reads like one extra viewer: it takes a real duty-cycle slot, so
  // a source too busy to serve another stream refuses the copy too and the
  // Coordinator retries from another replica (or next tick).
  if (Status admitted = duty_cycle_.Admit(disk, request.rate); !admitted.ok()) {
    return MessageBody{MsuPrepareCopyResponse{false, admitted.ToString()}};
  }
  ReplicaSourceOp source;
  source.op = request.op;
  source.file = request.file;
  source.disk = disk;
  source.rate = request.rate;
  source.slot_held = true;
  replica_sources_[request.op] = std::move(source);
  MsuPrepareCopyResponse response(true, "");
  response.disk = disk;
  response.page_count = static_cast<int64_t>((*file)->pages_written());
  // Block footprint, not payload: the target reserves whole 256 KB blocks.
  response.file_size = kDataPageSize * response.page_count;
  response.pull_port = params_.replica_pull_port;
  return MessageBody{std::move(response)};
}

Co<MessageBody> Msu::ServeReplicaPull(ReplPullRequest request) {
  ReplPullResponse response;
  if (crashed_) {
    response.error = "msu down";
    co_return MessageBody{std::move(response)};
  }
  auto it = replica_sources_.find(request.op);
  if (it == replica_sources_.end()) {
    response.error = "unknown copy op";
    co_return MessageBody{std::move(response)};
  }
  auto file = fs_.Lookup(it->second.file);
  if (!file.ok()) {
    response.error = file.status().ToString();
    co_return MessageBody{std::move(response)};
  }
  auto page = co_await fs_.ReadPage(*file, static_cast<size_t>(request.page_index));
  // The read may have raced an abort or crash; re-validate before answering.
  it = replica_sources_.find(request.op);
  if (crashed_ || it == replica_sources_.end()) {
    response.error = "copy aborted";
    co_return MessageBody{std::move(response)};
  }
  if (!page.ok()) {
    response.error = page.status().ToString();
    co_return MessageBody{std::move(response)};
  }
  response.ok = true;
  response.page_bytes = kDataPageSize;
  const int64_t page_total = static_cast<int64_t>((*file)->pages_written());
  if (request.page_index + 1 >= page_total) {
    response.last = true;
    // Deep copy: the image must not dangle if the source deletes the file
    // while the response is still on the wire.
    response.image = std::make_shared<const IbTreeFile>((*file)->image());
    // Source end done — the last page is served, free the read slot.
    if (it->second.slot_held) {
      duty_cycle_.Release(it->second.disk, it->second.rate);
    }
    replica_sources_.erase(it);
  }
  co_return MessageBody{std::move(response)};
}

MessageBody Msu::HandleBeginCopy(const MsuBeginCopy& request) {
  if (crashed_) {
    return MessageBody{SimpleResponse{false, "msu down"}};
  }
  if (replica_pulls_.count(request.op) != 0) {
    return MessageBody{SimpleResponse{true, ""}};  // duplicate: already running
  }
  auto file = fs_.Create(request.replica_file, request.estimated_size, false, request.disk_hint);
  if (!file.ok()) {
    return MessageBody{SimpleResponse{false, file.status().ToString()}};
  }
  const int disk = (*file)->home_disk();
  if (Status admitted = duty_cycle_.Admit(disk, request.rate); !admitted.ok()) {
    (void)fs_.Delete(request.replica_file);
    return MessageBody{SimpleResponse{false, admitted.ToString()}};
  }
  ReplicaPullOp pull;
  pull.op = request.op;
  pull.content = request.content;
  pull.source_node = request.source_node;
  pull.source_port = request.source_port;
  pull.source_file = request.source_file;
  pull.replica_file = request.replica_file;
  pull.rate = request.rate;
  pull.page_count = request.page_count;
  pull.disk = disk;
  pull.slot_held = true;
  replica_pulls_[request.op] = std::move(pull);
  RunReplicaPull(request.op);
  return MessageBody{SimpleResponse{true, ""}};
}

MessageBody Msu::HandleAbortCopy(const MsuAbortCopy& request) {
  auto pull_it = replica_pulls_.find(request.op);
  if (pull_it != replica_pulls_.end()) {
    AbortPull(pull_it->second, "aborted by coordinator");
    return MessageBody{SimpleResponse{true, ""}};
  }
  auto source_it = replica_sources_.find(request.op);
  if (source_it != replica_sources_.end()) {
    if (source_it->second.slot_held) {
      duty_cycle_.Release(source_it->second.disk, source_it->second.rate);
    }
    replica_sources_.erase(source_it);
  }
  return MessageBody{SimpleResponse{true, ""}};  // idempotent: unknown op acked
}

void Msu::AbortPull(ReplicaPullOp& pull, std::string reason) {
  if (pull.aborted) {
    return;
  }
  pull.aborted = true;
  pull.abort_reason = std::move(reason);
  if (pull.slot_held) {
    duty_cycle_.Release(pull.disk, pull.rate);
    pull.slot_held = false;
  }
  // A pending pull Call fails as the connection closes, waking the loop; a
  // loop asleep at its pace point notices `aborted` when the timer fires.
  if (pull.conn != nullptr && !pull.conn->closed()) {
    pull.conn->Close();
  }
}

bool Msu::PreemptCopyOnDisk(int disk_index) {
  for (auto& [op, pull] : replica_pulls_) {
    if (pull.disk == disk_index && pull.slot_held && !pull.aborted) {
      if (trace_ != nullptr) {
        trace_->Instant(node_->name(), "msu", "copy-preempt", "op " + std::to_string(op));
      }
      if (repl_preempts_metric_ != nullptr) {
        repl_preempts_metric_->Add();
      }
      AbortPull(pull, "preempted by live admission");
      return true;
    }
  }
  for (auto it = replica_sources_.begin(); it != replica_sources_.end(); ++it) {
    if (it->second.disk != disk_index || !it->second.slot_held) {
      continue;
    }
    // Killing the source serve (not just its slot): an unaccounted read
    // stream on a saturated disk is exactly what replication must never be.
    duty_cycle_.Release(it->second.disk, it->second.rate);
    if (trace_ != nullptr) {
      trace_->Instant(node_->name(), "msu", "copy-preempt",
                      "op " + std::to_string(it->first) + " (source)");
    }
    if (repl_preempts_metric_ != nullptr) {
      repl_preempts_metric_->Add();
    }
    ReplicaCopyFailed note;
    note.op = it->first;
    note.msu_node = node_->name();
    note.error = "preempted by live admission (copy source)";
    replica_sources_.erase(it);
    QueueReplNote(MessageBody{std::move(note)});
    return true;
  }
  return false;
}

Task Msu::RunReplicaPull(int64_t op_id) {
  // Immutable fields are copied out up front; everything mutable is
  // re-fetched after every await, because aborts, preemptions and crashes
  // mutate replica_pulls_ underneath the suspended loop.
  std::string source_node;
  int source_port = 0;
  DataRate rate;
  int64_t page_count = 0;
  {
    auto it = replica_pulls_.find(op_id);
    if (it == replica_pulls_.end()) {
      co_return;
    }
    source_node = it->second.source_node;
    source_port = it->second.source_port;
    rate = it->second.rate;
    page_count = it->second.page_count;
  }
  auto conn = co_await node_->ConnectTcp(source_node, source_port);
  {
    auto it = replica_pulls_.find(op_id);
    if (it == replica_pulls_.end()) {
      // Crashed away mid-dial; Restart() reclaims the partial file.
      if (conn.ok()) {
        (*conn)->Close();
      }
      co_return;
    }
    if (!conn.ok()) {
      it->second.aborted = true;
      it->second.abort_reason = "source dial failed: " + conn.status().ToString();
    } else {
      it->second.conn = *conn;
    }
  }
  const SimTime per_page = rate.TransferTime(kDataPageSize);
  SimTime next_due = sim().Now();
  for (int64_t page = 0; conn.ok() && page < page_count; ++page) {
    {
      auto it = replica_pulls_.find(op_id);
      if (it == replica_pulls_.end()) {
        co_return;
      }
      if (it->second.aborted) {
        break;
      }
    }
    ReplPullRequest pull_request;
    pull_request.op = op_id;
    pull_request.page_index = page;
    auto response = co_await (*conn)->Call(MessageBody{std::move(pull_request)});
    auto it = replica_pulls_.find(op_id);
    if (it == replica_pulls_.end()) {
      co_return;
    }
    if (it->second.aborted) {
      break;
    }
    if (!response.ok()) {
      it->second.aborted = true;
      it->second.abort_reason = "pull failed: " + response.status().ToString();
      break;
    }
    const auto* page_response = std::get_if<ReplPullResponse>(&response->body);
    if (page_response == nullptr || !page_response->ok) {
      it->second.aborted = true;
      it->second.abort_reason =
          page_response == nullptr ? "bad pull response" : page_response->error;
      break;
    }
    if (page_response->last) {
      it->second.image = page_response->image;
    }
    const Bytes page_bytes = page_response->page_bytes;
    // Land the page on the local disk (allocates the block and charges a
    // full-block write to the replica's home disk).
    auto lookup = fs_.Lookup(it->second.replica_file);
    if (!lookup.ok()) {
      it->second.aborted = true;
      it->second.abort_reason = lookup.status().ToString();
      break;
    }
    Status written = co_await fs_.WriteNextPage(*lookup, page);
    it = replica_pulls_.find(op_id);
    if (it == replica_pulls_.end()) {
      co_return;
    }
    if (it->second.aborted) {
      break;
    }
    if (!written.ok()) {
      it->second.aborted = true;
      it->second.abort_reason = written.ToString();
      break;
    }
    it->second.bytes_copied += page_bytes;
    if (repl_pages_metric_ != nullptr) {
      repl_pages_metric_->Add();
    }
    if (repl_bytes_metric_ != nullptr) {
      repl_bytes_metric_->Add(page_bytes.count());
    }
    // Pace to the background rate: the wire charge happened in the pull
    // response, this sleep keeps the long-run transfer at `rate` no matter
    // how fast the network is.
    next_due += per_page;
    if (sim().Now() < next_due) {
      const SimTime delay = next_due - sim().Now();
      co_await sim().Delay(delay);
    }
  }

  // Epilogue: install (image landed, not aborted) or roll the partial back.
  auto it = replica_pulls_.find(op_id);
  if (it == replica_pulls_.end()) {
    co_return;
  }
  ReplicaPullOp done = std::move(it->second);
  replica_pulls_.erase(it);
  if (done.conn != nullptr && !done.conn->closed()) {
    done.conn->Close();
  }
  if (done.slot_held) {
    duty_cycle_.Release(done.disk, done.rate);
  }
  bool installed = false;
  std::string error = done.abort_reason.empty() ? "copy failed" : done.abort_reason;
  if (!done.aborted && done.image != nullptr) {
    auto lookup = fs_.Lookup(done.replica_file);
    if (lookup.ok()) {
      IbTreeFile image = *std::static_pointer_cast<const IbTreeFile>(done.image);
      const Status committed = fs_.CommitRecording(*lookup, std::move(image));
      if (committed.ok()) {
        installed = true;
      } else {
        error = committed.ToString();
      }
    } else {
      error = lookup.status().ToString();
    }
  }
  if (installed) {
    FlushMetadataBehind();
    if (trace_ != nullptr) {
      trace_->Instant(node_->name(), "msu", "replica-install",
                      done.content + " op " + std::to_string(done.op));
    }
    if (repl_installs_metric_ != nullptr) {
      repl_installs_metric_->Add();
    }
    ReplicaInstalled note;
    note.op = done.op;
    note.msu_node = node_->name();
    note.content = done.content;
    note.file = done.replica_file;
    note.disk = done.disk;
    note.bytes_copied = done.bytes_copied;
    QueueReplNote(MessageBody{std::move(note)});
  } else {
    page_cache_.InvalidateFile(done.replica_file);
    (void)fs_.Delete(done.replica_file);
    FlushMetadataBehind();
    if (repl_aborts_metric_ != nullptr) {
      repl_aborts_metric_->Add();
    }
    CALLIOPE_LOG(kWarning, "msu") << node_->name() << ": replica copy " << done.op
                                  << " aborted: " << error;
    ReplicaCopyFailed note;
    note.op = done.op;
    note.msu_node = node_->name();
    note.error = error;
    QueueReplNote(MessageBody{std::move(note)});
  }
}

void Msu::QueueReplNote(MessageBody note) {
  // Same queue-then-flush discipline as termination notes: a failover
  // between the copy ending and the note arriving cannot orphan the result.
  unsent_repl_notes_.push_back(std::move(note));
  FlushReplNotes();
}

Task Msu::FlushReplNotes() {
  if (repl_notes_flushing_) {
    co_return;
  }
  repl_notes_flushing_ = true;
  while (!unsent_repl_notes_.empty() && !crashed_ && coordinator_conn_ != nullptr &&
         !coordinator_conn_->closed()) {
    MessageBody note = unsent_repl_notes_.front();
    auto response = co_await coordinator_conn_->Call(std::move(note));
    if (!response.ok()) {
      break;  // conn broke; the close handler's reconnect re-triggers a flush
    }
    const auto* ack = std::get_if<SimpleResponse>(&response->body);
    if (ack == nullptr || !ack->ok) {
      // "not primary": keep the note queued, drop the stale connection and
      // redial until the new primary answers (it learned the op from the
      // oplog shadow, or treats it as unknown and acks the cleanup).
      TcpConn* stale = coordinator_conn_;
      coordinator_conn_ = nullptr;
      if (stale != nullptr && !stale->closed()) {
        stale->Close();
      }
      ScheduleReconnect();
      break;
    }
    unsent_repl_notes_.pop_front();
  }
  repl_notes_flushing_ = false;
}

int Msu::active_copy_count() const {
  return static_cast<int>(replica_pulls_.size() + replica_sources_.size());
}

Task Msu::ProgressReporter() {
  // Periodically tells the Coordinator where each playback stream is in its
  // media, so failover can resume streams near the interruption point.
  for (;;) {
    co_await sim().Delay(params_.progress_interval);
    if (crashed_ || coordinator_conn_ == nullptr || coordinator_conn_->closed()) {
      continue;
    }
    StreamProgressReport report;
    report.msu_node = node_->name();
    for (const auto& [id, stream] : streams_) {
      if (stream->mode() != MsuStream::Mode::kPlay ||
          stream->state() == MsuStream::State::kStopped) {
        continue;
      }
      if (stream->shared()) {
        // Report each member under its own stream id: failover resumes the
        // members individually as unique streams, never the delivery stream.
        for (const SharedMemberState& member : stream->members()) {
          report.entries.push_back(
              StreamProgressReport::Entry{member.stream, stream->CurrentMediaOffset()});
        }
      } else {
        report.entries.push_back(StreamProgressReport::Entry{id, stream->CurrentMediaOffset()});
      }
    }
    if (report.entries.empty()) {
      continue;
    }
    co_await coordinator_conn_->Send(Envelope{0, false, MessageBody{std::move(report)}});
  }
}

void Msu::Crash() {
  crashed_ = true;
  if (trace_ != nullptr) {
    trace_->Instant(node_->name(), "msu", "crash",
                    std::to_string(streams_.size()) + " streams cut");
  }
  // Streams die with the process; content on disk survives. Their duty-cycle
  // slots and delivery buffers come back too — the allocator tables outlive
  // the crash, and a restarted MSU serving zero streams must not inherit
  // phantom slot holds (repeated crash cycles would strangle admission).
  for (auto& [id, stream] : streams_) {
    stream->StopInternal();
    if (!stream->from_cache_) {
      duty_cycle_.Release(stream->disk(), stream->rate_);
    }
    buffer_pool_.Release();
    buffer_pool_.Release();
    if (trace_ != nullptr) {
      trace_->Span(node_->name(), "msu",
                   (stream->mode() == MsuStream::Mode::kRecord ? "record:" : "play:") +
                       stream->file_name(),
                   stream->start_time(), "stream " + std::to_string(id) + " cut by crash");
    }
    finished_streams_[id] = std::move(stream);
  }
  streams_.clear();
  // Cached pages lived in the dead process's memory.
  page_cache_.Clear();
  for (auto& [id, group] : groups_) {
    (void)id;
    (void)group;  // conns break via the node going down
  }
  groups_.clear();
  node_->SetDown(true);
  coordinator_conn_ = nullptr;
  // In-flight replica copies die with the process: free their duty slots so
  // the restarted MSU's table starts clean for copies, and drop the op maps —
  // resumed pull loops see the missing op and just exit. Partial replica
  // files are uncommitted, so the Restart() sweep reclaims them.
  for (auto& [op, pull] : replica_pulls_) {
    (void)op;
    if (pull.slot_held) {
      duty_cycle_.Release(pull.disk, pull.rate);
    }
  }
  replica_pulls_.clear();
  for (auto& [op, source] : replica_sources_) {
    (void)op;
    if (source.slot_held) {
      duty_cycle_.Release(source.disk, source.rate);
    }
  }
  replica_sources_.clear();
  unsent_repl_notes_.clear();
  // The process died: queued termination notes and warm-registration
  // eligibility are gone. epoch_hosts_ survives (a tiny durable epoch file),
  // so a restarted MSU still fences deposed primaries.
  unsent_notes_.clear();
  warm_eligible_ = false;
}

void Msu::ScheduleReconnect() {
  if (crashed_ || reconnect_pending_) {
    return;
  }
  reconnect_pending_ = true;
  ReconnectLoop();
}

Task Msu::ReconnectLoop() {
  // Capped exponential backoff with seeded jitter: retries grow politely and
  // the fleet's redials do not synchronize, yet the schedule is a pure
  // function of the node name so runs stay bit-reproducible.
  BackoffParams backoff_params;
  backoff_params.initial = SimTime::Millis(200);
  backoff_params.max = SimTime::Seconds(2);
  Backoff backoff(backoff_params, std::hash<std::string>{}(node_->name()) ^ 0x5bd1e995ULL);
  for (;;) {
    {
      const SimTime delay = backoff.Next();
      co_await sim().Delay(delay);
    }
    if (crashed_) {
      break;
    }
    if (coordinator_conn_ != nullptr && !coordinator_conn_->closed()) {
      break;  // an explicit Restart() already re-registered
    }
    // Cycle the configured coordinator pair (warm-standby HA): whichever one
    // is the current primary accepts; the standby refuses and we move on.
    const Status registered = co_await RegisterWithCoordinator(NextCoordinatorHost());
    if (registered.ok()) {
      break;
    }
  }
  reconnect_pending_ = false;
}

Co<Status> Msu::Restart(std::string coordinator_node) {
  node_->SetDown(false);
  crashed_ = false;
  if (trace_ != nullptr) {
    trace_->Instant(node_->name(), "msu", "restart");
  }
  // Crash recovery: recordings interrupted by the crash left uncommitted
  // files whose data is unusable. Reclaim their space before reporting
  // capacity to the Coordinator, so its ledger matches reality.
  for (const std::string& name : fs_.ListFiles()) {
    auto file = fs_.Lookup(name);
    if (file.ok() && !(*file)->committed()) {
      page_cache_.InvalidateFile(name);
      (void)fs_.Delete(name);
    }
  }
  FlushMetadataBehind();
  const Status registered = co_await RegisterWithCoordinator(std::move(coordinator_node));
  if (!registered.ok()) {
    // The Coordinator may itself be down right now; keep dialing in the
    // background so the MSU rejoins once it answers again.
    ScheduleReconnect();
  }
  co_return registered;
}

Task Msu::FlushMetadataBehind() {
  // Write-behind of the file table; failures only matter on recovery and
  // the next mutation re-dirties the table anyway.
  co_await fs_.FlushMetadata();
}

LatenessHistogram Msu::AggregateLateness() const {
  LatenessHistogram total;
  for (const auto& [id, stream] : streams_) {
    total.Merge(stream->lateness());
  }
  for (const auto& [id, stream] : finished_streams_) {
    total.Merge(stream->lateness());
  }
  return total;
}

int Msu::active_stream_count() const { return static_cast<int>(streams_.size()); }

void Msu::ForEachStream(const std::function<void(const MsuStream&, bool finished)>& fn) const {
  for (const auto& [id, stream] : streams_) {
    fn(*stream, false);
  }
  for (const auto& [id, stream] : finished_streams_) {
    fn(*stream, true);
  }
}

MsuStream* Msu::FindStream(StreamId id) {
  auto it = streams_.find(id);
  if (it != streams_.end()) {
    return it->second.get();
  }
  auto fin = finished_streams_.find(id);
  return fin == finished_streams_.end() ? nullptr : fin->second.get();
}

}  // namespace calliope
