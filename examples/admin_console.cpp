// Administrative operations (§2.1, §2.3.1): the things only a customer with
// admin rights can do — load offline-filtered fast-scan variants, replicate
// popular content across disks, and delete items — plus a look at the MSU
// file-system state an operator would care about.
//
//   $ ./build/examples/admin_console
#include <cstdio>

#include "src/calliope/calliope.h"

using namespace calliope;

namespace {

void PrintMsuState(Installation& calliope, const char* when) {
  Msu& msu = calliope.msu(0);
  std::printf("[msu0 %s] files:", when);
  for (const std::string& name : msu.fs().ListFiles()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n[msu0 %s] free space %s, metadata flushes so far: %lld\n", when,
              msu.fs().TotalFreeSpace().ToString().c_str(),
              static_cast<long long>(msu.fs().metadata_flushes()));
}

}  // namespace

int main() {
  InstallationConfig config;
  config.msu_machine.disks_per_hba = {2, 2};  // a 4-disk box
  Installation calliope(config);
  if (!calliope.Boot().ok()) {
    return 1;
  }

  // Content arrives without fast-scan variants — as a plain recording would.
  if (!calliope.LoadMpegMovie("premiere", SimTime::Seconds(120), 0, /*with_fast_scan=*/false)
           .ok()) {
    return 1;
  }
  PrintMsuState(calliope, "after load");

  // --- The administrator produces and registers the filtered variants -----
  // "An administrative interface is used to load the fast forward and fast
  // backward files into the server in a way that allows the server to
  // associate the files with the fast forward and fast backward VCR
  // commands."
  {
    // Offline filter run (every 15th frame; reversed for fast-backward).
    const MpegStream original =
        EncodeMpeg(MpegEncoderConfig{}, SimTime::Seconds(120),
                   config.seed ^ std::hash<std::string>{}("premiere"));
    const MpegStream ff = FilterFastForward(original, 15);
    const MpegStream fb = FilterFastBackward(original, 15);
    std::printf("\nfiltered: %zu frames -> %zu intra frames (%.1fx shorter)\n",
                original.frames.size(), ff.frames.size(),
                original.duration().seconds() / ff.duration().seconds());
    // Install the filtered files on the MSU next to the original...
    IbTreeBuilder ff_builder, fb_builder;
    for (const MediaPacket& packet : PacketizeCbr(ff, Bytes::KiB(4))) {
      (void)ff_builder.Add(packet);
    }
    for (const MediaPacket& packet : PacketizeCbr(fb, Bytes::KiB(4))) {
      (void)fb_builder.Add(packet);
    }
    const int disk = calliope.msu(0).fs().Lookup("premiere.mpg").value()->home_disk();
    MsuFileSystem& fs = calliope.msu(0).fs();
    (void)fs.InstallImage("premiere.ff", std::make_shared<const IbTreeFile>(ff_builder.Finish()),
                          false, disk);
    (void)fs.InstallImage("premiere.fb", std::make_shared<const IbTreeFile>(fb_builder.Finish()),
                          false, disk);
  }

  // ...then tell the Coordinator about them over the admin session.
  CalliopeClient& admin = calliope.AddClient("ops-console");
  bool registered = false;
  [](CalliopeClient* c, bool* done) -> Task {
    if (!(co_await c->Connect("alice", "alice-key")).ok()) {
      co_return;
    }
    const Status loaded =
        co_await c->LoadFastScan("premiere", "premiere.ff", "premiere.fb");
    std::printf("LoadFastScan: %s\n", loaded.ok() ? "ok" : loaded.ToString().c_str());
    auto listing = co_await c->ListContent();
    if (listing.ok()) {
      for (const ContentInfo& info : *listing) {
        std::printf("catalog: %s fast-scan=%s\n", info.name.c_str(),
                    info.has_fast_scan ? "yes" : "no");
      }
    }
    *done = true;
  }(&admin, &registered);
  while (!registered && calliope.sim().Now() < SimTime::Seconds(30)) {
    calliope.sim().RunFor(SimTime::Millis(20));
  }

  // --- Replicate the premiere across the other disks ----------------------
  // "we can make copies of popular content on several disks, but we must
  // anticipate usage trends in order to choose the content to copy."
  for (int disk = 1; disk < 4; ++disk) {
    const Status replicated = calliope.ReplicateContent("premiere", 0, disk);
    std::printf("replicate onto disk %d: %s\n", disk,
                replicated.ok() ? "ok" : replicated.ToString().c_str());
  }
  PrintMsuState(calliope, "after replication");

  // --- Prove a viewer can fast-forward now --------------------------------
  CalliopeClient& viewer = calliope.AddClient("viewer");
  bool watched = false;
  [](CalliopeClient* c, bool* done) -> Task {
    (void)co_await c->Connect("bob", "bob-key");
    (void)co_await c->RegisterPort("tv", "mpeg1");
    auto play = co_await c->Play("premiere", "tv");
    if (!play.ok()) {
      co_return;
    }
    co_await c->Vcr(play->group, VcrCommand::Op::kFastForward);
    *done = true;
  }(&viewer, &watched);
  while (!watched && calliope.sim().Now() < SimTime::Seconds(60)) {
    calliope.sim().RunFor(SimTime::Millis(20));
  }
  calliope.sim().RunFor(SimTime::Seconds(3));
  std::printf("\nviewer in fast-forward: %lld packets received\n",
              static_cast<long long>(viewer.FindPort("tv")->packets_received()));

  // --- Non-admins cannot delete; the admin can ----------------------------
  bool finished = false;
  [](CalliopeClient* viewer_client, CalliopeClient* admin_client, bool* done) -> Task {
    const Status denied = co_await viewer_client->DeleteContent("premiere");
    std::printf("\nviewer delete attempt: %s\n", denied.ToString().c_str());
    // The viewer must let go of the stream before content can be removed.
    const Status still_in_use = co_await admin_client->DeleteContent("premiere");
    std::printf("admin delete while playing: %s\n", still_in_use.ToString().c_str());
    *done = true;
  }(&viewer, &admin, &finished);
  while (!finished && calliope.sim().Now() < SimTime::Seconds(90)) {
    calliope.sim().RunFor(SimTime::Millis(20));
  }
  PrintMsuState(calliope, "at shutdown");
  return 0;
}
