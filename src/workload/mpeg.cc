#include "src/workload/mpeg.h"

#include <cassert>
#include <cmath>

#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/workload/demand.h"

namespace dcs {

MpegVideoWorkload::MpegVideoWorkload(const MpegConfig& config, DeadlineMonitor* deadlines)
    : config_(config), deadlines_(deadlines) {
  if (deadlines_ != nullptr) {
    video_frame_stream_ = deadlines_->Intern("video_frame");
    av_sync_stream_ = deadlines_->Intern("av_sync");
  }
  // Frame decode walks the whole frame buffer and motion-compensation
  // sources: memory-heavy (this is what puts MPEG on the Figure 9 plateau).
  profile_ = config.video_profile;
  frame_period_ = SimTime::FromSecondsF(1.0 / config_.fps);
  total_frames_ = static_cast<int>(config_.duration.ToSeconds() * config_.fps);
}

SimTime MpegVideoWorkload::DisplayTime(int frame) const {
  // Frame k is displayed at origin + (k+1) periods: the first frame has a
  // full period of decode lead time.
  return origin_ + frame_period_ * (frame + 1);
}

double MpegVideoWorkload::DecodeCycles(int frame, Rng& rng) const {
  const int pos = frame % config_.gop_length;
  double factor;
  if (pos == 0) {
    factor = config_.i_factor;
  } else if (pos % 3 == 0) {
    factor = config_.p_factor;
  } else {
    factor = config_.b_factor;
  }
  const double jitter =
      rng.TruncatedGaussian(1.0, config_.jitter_stddev, 0.5, 1.5);
  return BaseCyclesForMsAtTop(config_.mean_decode_ms_at_top * factor * jitter, profile_);
}

Action MpegVideoWorkload::Next(const WorkloadContext& ctx) {
  switch (state_) {
    case State::kStart:
      origin_ = ctx.now;
      state_ = State::kPace;
      // Announce the decode with its display deadline (ignored by oblivious
      // policies; used by the DeadlineGovernor extension).
      return Action::ComputeBy(DecodeCycles(frame_, *ctx.rng), DisplayTime(frame_));

    case State::kDecode:
      if (frame_ >= total_frames_) {
        return Action::Exit();
      }
      state_ = State::kPace;
      return Action::ComputeBy(DecodeCycles(frame_, *ctx.rng), DisplayTime(frame_));

    case State::kPace: {
      // Decode of frame_ completed at ctx.now.
      const SimTime display = DisplayTime(frame_);
      if (deadlines_ != nullptr) {
        deadlines_->Report(video_frame_stream_, display, ctx.now, config_.frame_tolerance);
        // This frame is (or will be) shown at max(now, display); audio plays
        // in real time, so showing it more than the sync tolerance late is
        // the paper's "audio and video became unsynchronized".
        const SimTime shown = std::max(ctx.now, display);
        deadlines_->Report(av_sync_stream_, display + config_.av_sync_tolerance, shown,
                           SimTime::Zero());
      }
      if (ctx.now >= display) {
        if (config_.elastic) {
          // Pering-style: drop every frame whose display time has already
          // passed and resume with the next future frame.
          ++frame_;
          while (frame_ < total_frames_ && DisplayTime(frame_) <= ctx.now) {
            ++frame_;
            ++dropped_;
          }
          state_ = State::kDecode;
          return Next(ctx);
        }
        // Inelastic: show it late and start the next decode at once to
        // catch up.
        ++frame_;
        state_ = State::kDecode;
        return Next(ctx);
      }
      const SimTime slack = display - ctx.now;
      if (config_.pacing == MpegPacing::kSleepOnly) {
        state_ = State::kDisplay;
        return Action::SleepUntil(display, /*jiffy=*/true);
      }
      if (config_.pacing == MpegPacing::kSpinSleep && slack > config_.spin_threshold) {
        state_ = State::kPostSleep;
        return Action::SleepUntil(display - config_.spin_threshold, /*jiffy=*/true);
      }
      state_ = State::kDisplay;
      return Action::SpinUntil(display);
    }

    case State::kPostSleep: {
      const SimTime display = DisplayTime(frame_);
      state_ = State::kDisplay;
      if (ctx.now < display) {
        return Action::SpinUntil(display);
      }
      return Next(ctx);
    }

    case State::kDisplay:
      ++frame_;
      state_ = State::kDecode;
      return Next(ctx);
  }
  assert(false && "unreachable");
  return Action::Exit();
}

MpegAudioWorkload::MpegAudioWorkload(const MpegConfig& config, DeadlineMonitor* deadlines)
    : config_(config), deadlines_(deadlines) {
  if (deadlines_ != nullptr) {
    audio_stream_ = deadlines_->Intern("audio");
  }
  // Audio decode is a streaming kernel over a small buffer: light memory.
  profile_ = config.audio_profile;
  refill_cycles_ = BaseCyclesForMsAtTop(config_.audio_refill_ms_at_top, profile_);
  total_buffers_ = static_cast<int>(config_.duration.ToSeconds() /
                                    config_.audio_period.ToSeconds());
}

Action MpegAudioWorkload::Next(const WorkloadContext& ctx) {
  switch (state_) {
    case State::kStart:
      origin_ = ctx.now;
      if (ctx.kernel != nullptr) {
        ctx.kernel->itsy().SetAudio(true);
      }
      state_ = State::kWait;
      return Action::ComputeBy(refill_cycles_, origin_ + config_.audio_period * (buffer_ + 1));

    case State::kWait: {
      // Refill of buffer_ completed.  It must land before the buffer drains
      // at origin + (buffer_+1) periods.
      const SimTime drain = origin_ + config_.audio_period * (buffer_ + 1);
      if (deadlines_ != nullptr) {
        deadlines_->Report(audio_stream_, drain, ctx.now, SimTime::Millis(20));
      }
      ++buffer_;
      if (buffer_ >= total_buffers_) {
        if (ctx.kernel != nullptr) {
          ctx.kernel->itsy().SetAudio(false);
        }
        return Action::Exit();
      }
      state_ = State::kRefill;
      const SimTime next_start = origin_ + config_.audio_period * buffer_;
      if (next_start <= ctx.now) {
        return Next(ctx);
      }
      return Action::SleepUntil(next_start, /*jiffy=*/true);
    }

    case State::kRefill:
      state_ = State::kWait;
      return Action::ComputeBy(refill_cycles_, origin_ + config_.audio_period * (buffer_ + 1));
  }
  assert(false && "unreachable");
  return Action::Exit();
}

}  // namespace dcs
