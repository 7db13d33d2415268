// The MPEG player workload (video task + audio task).
//
// Models the Itsy distribution's MPEG-1 player as the paper describes it:
//   * 320x200 clip rendered greyscale at 15 frames/s, 60 s of looped
//     playback; audio rendered by a separate forked process with no explicit
//     A/V synchronisation ("both are sequenced to remain synchronized at 15
//     frames/second");
//   * I-frames need much more computation than P/B frames and "do not
//     necessarily occur at predictable intervals" — we use an IBBPBBPBB GOP
//     with multiplicative cost factors plus Gaussian jitter;
//   * the pacing heuristic of section 5.3: "If the rendering of a frame
//     completes and the time until that frame is needed is less than 12ms,
//     the player enters a spin loop; if it is greater than 12ms, the player
//     relinquishes the processor by sleeping" — sleeps are jiffy-rounded
//     (Linux 2.0.30 cannot wake between 10 ms ticks), so the player usually
//     wakes with a few milliseconds to go and spins them away.  This is the
//     "wasteful work" the kernel cannot distinguish from real demand.
//
// Deadlines: each frame's decode should complete by its display time; a
// frame later than one full frame period counts as a miss (visible A/V
// desynchronisation).  The audio task refills a 100 ms buffer; a refill that
// finishes after the buffer would have drained is an underrun.

#ifndef SRC_WORKLOAD_MPEG_H_
#define SRC_WORKLOAD_MPEG_H_

#include <memory>

#include "src/kernel/workload_api.h"
#include "src/sim/fields.h"
#include "src/workload/deadline_monitor.h"

namespace dcs {

// How the player waits for a frame's display time (ablation knob; the real
// player used the spin/sleep hybrid of section 5.3).
enum class MpegPacing {
  kSpinSleep,  // sleep while >12 ms away, spin the rest (the Itsy player)
  kSleepOnly,  // jiffy-rounded sleep straight to the display time
  kSpinOnly,   // busy-wait the whole slack (maximum wasted work)
};

struct MpegConfig {
  double fps = 15.0;
  SimTime duration = SimTime::Seconds(60);
  // Mean frame decode cost at 206.4 MHz, milliseconds.  Calibrated so the
  // clip just fits (with margin) at 132.7 MHz — the paper's measured optimal
  // fixed speed — and misses frames below it.
  double mean_decode_ms_at_top = 44.0;
  // IBBPBBPBB group-of-pictures cost factors (mean ~0.99).
  int gop_length = 9;
  double i_factor = 1.70;
  double p_factor = 1.15;
  double b_factor = 0.80;
  // Relative Gaussian jitter on each frame's cost.
  double jitter_stddev = 0.06;
  // The player's spin/sleep threshold.
  SimTime spin_threshold = SimTime::Millis(12);
  MpegPacing pacing = MpegPacing::kSpinSleep;
  // Pering-style *elastic* playback (related work, section 3): when the
  // player falls behind it drops frames to catch up instead of letting
  // lateness accumulate; the quality metric becomes delivered frame rate.
  // The paper's own evaluation keeps this false ("we assumed the
  // applications had no way to accommodate missed deadlines").
  bool elastic = false;
  // Memory behaviour of decode / audio refill (ablation knob: zeroing the
  // video profile removes the Figure 9 plateau).
  MemoryProfile video_profile{20.0, 8.0};
  MemoryProfile audio_profile{5.0, 2.0};
  // Lateness beyond this counts as a missed frame (one frame period).
  SimTime frame_tolerance = SimTime::FromSecondsF(1.0 / 15.0);
  // Audio buffer refill period and per-refill cost at 206.4 MHz.
  SimTime audio_period = SimTime::Millis(100);
  double audio_refill_ms_at_top = 4.0;
  // Audio/video drift beyond this is audibly out of sync (reported on the
  // "av_sync" stream).  The paper's failure symptom — "the MPEG audio and
  // video became unsynchronized" — is a frame shown this late.
  SimTime av_sync_tolerance = SimTime::Millis(100);
};

// Every member, in declaration order (src/sim/fields.h).
constexpr auto Fields(const MpegConfig*) {
  return std::tuple{&MpegConfig::fps, &MpegConfig::duration, &MpegConfig::mean_decode_ms_at_top,
                    &MpegConfig::gop_length, &MpegConfig::i_factor, &MpegConfig::p_factor,
                    &MpegConfig::b_factor, &MpegConfig::jitter_stddev, &MpegConfig::spin_threshold,
                    &MpegConfig::pacing, &MpegConfig::elastic, &MpegConfig::video_profile,
                    &MpegConfig::audio_profile, &MpegConfig::frame_tolerance,
                    &MpegConfig::audio_period, &MpegConfig::audio_refill_ms_at_top,
                    &MpegConfig::av_sync_tolerance};
}
static_assert(ListsEveryField<MpegConfig>());

// Video decode/pace/display loop.  Reports "video_frame" and "av_sync"
// deadlines.
class MpegVideoWorkload final : public Workload {
 public:
  MpegVideoWorkload(const MpegConfig& config, DeadlineMonitor* deadlines);

  const char* Name() const override { return "mpeg_video"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  int frames_decoded() const { return frame_; }
  // Frames skipped by elastic playback (always 0 when inelastic).
  int frames_dropped() const { return dropped_; }
  // Frames actually shown on time-ish: decoded minus dropped.
  int frames_delivered() const { return frame_ - dropped_; }

  void Snapshot(SnapshotIo& io) override {
    io.Enum(state_, State::kDisplay);
    io(origin_);
    io.As<std::int64_t>(frame_);
    io.As<std::int64_t>(dropped_);
  }

 private:
  enum class State { kStart, kDecode, kPace, kPostSleep, kDisplay };

  SimTime DisplayTime(int frame) const;
  double DecodeCycles(int frame, Rng& rng) const;

  MpegConfig config_;
  DeadlineMonitor* deadlines_;
  DeadlineMonitor::Stream video_frame_stream_;
  DeadlineMonitor::Stream av_sync_stream_;
  MemoryProfile profile_;
  State state_ = State::kStart;
  SimTime origin_;
  SimTime frame_period_;
  int frame_ = 0;
  int total_frames_ = 0;
  int dropped_ = 0;
};

// Audio decode/refill loop (separate forked process in the paper).  Reports
// "audio" deadlines and switches the audio path on while running.
class MpegAudioWorkload final : public Workload {
 public:
  MpegAudioWorkload(const MpegConfig& config, DeadlineMonitor* deadlines);

  const char* Name() const override { return "mpeg_audio"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  void Snapshot(SnapshotIo& io) override {
    io.Enum(state_, State::kWait);
    io(origin_);
    io.As<std::int64_t>(buffer_);
  }

 private:
  enum class State { kStart, kRefill, kWait };

  MpegConfig config_;
  DeadlineMonitor* deadlines_;
  DeadlineMonitor::Stream audio_stream_;
  MemoryProfile profile_;
  double refill_cycles_ = 0.0;
  State state_ = State::kStart;
  SimTime origin_;
  int buffer_ = 0;
  int total_buffers_ = 0;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_MPEG_H_
