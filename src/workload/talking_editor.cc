#include "src/workload/talking_editor.h"

#include <cassert>

#include "src/hw/itsy.h"
#include "src/kernel/kernel.h"
#include "src/workload/demand.h"

namespace dcs {

InputTrace MakeTalkingEditorTrace(std::uint64_t seed) {
  Rng rng(seed);
  InputTrace trace;
  double t = 1.0;
  // Opening the file dialogue and navigating to the directory: dragging,
  // list rendering, JIT warm-up bursts.
  for (int i = 0; i < 6; ++i) {
    t += rng.Uniform(0.6, 1.6);
    trace.Record(SimTime::FromSecondsF(t), "ui", rng.Uniform(0.6, 2.5));
  }
  // Select the short text file; reading starts.
  t += rng.Uniform(0.8, 1.5);
  trace.Record(SimTime::FromSecondsF(t), "speak", 1.0);  // file 1
  // The first file takes ~30 s to speak; then the user opens another file.
  t += 32.0;
  for (int i = 0; i < 3; ++i) {
    t += rng.Uniform(0.6, 1.4);
    trace.Record(SimTime::FromSecondsF(t), "ui", rng.Uniform(0.6, 2.0));
  }
  t += rng.Uniform(0.8, 1.5);
  trace.Record(SimTime::FromSecondsF(t), "speak", 2.0);  // file 2
  return trace;
}

TalkingEditorWorkload::TalkingEditorWorkload(InputTrace trace,
                                             const TalkingEditorConfig& config,
                                             DeadlineMonitor* deadlines)
    : trace_(std::move(trace)), config_(config), deadlines_(deadlines) {
  if (deadlines_ != nullptr) {
    stream_ = deadlines_->Intern("speech");
  }
  // Concatenative synthesis streams diphone tables: fairly memory-heavy.
  profile_ = MemoryProfile{18.0, 6.0};
}

Action TalkingEditorWorkload::Next(const WorkloadContext& ctx) {
  if (!primed_) {
    primed_ = true;
    origin_ = ctx.now;
  }
  switch (state_) {
    case State::kWaitEvent: {
      if (audio_on_ && ctx.kernel != nullptr && ctx.now >= audio_ends_) {
        ctx.kernel->itsy().SetAudio(false);
        audio_on_ = false;
      }
      if (next_event_ >= trace_.events().size()) {
        // Let the last speech finish before exiting.
        if (ctx.now < audio_ends_) {
          return Action::SleepUntil(audio_ends_, /*jiffy=*/false);
        }
        if (audio_on_ && ctx.kernel != nullptr) {
          ctx.kernel->itsy().SetAudio(false);
          audio_on_ = false;
        }
        return Action::Exit();
      }
      const InputEvent& event = trace_.events()[next_event_];
      const SimTime at = origin_ + event.at;
      if (ctx.now < at) {
        return Action::SleepUntil(at, /*jiffy=*/false);
      }
      if (event.kind == "ui") {
        state_ = State::kUiBurst;
        return Action::Compute(
            BaseCyclesForMsAtTop(120.0 * event.magnitude, profile_));
      }
      // "speak": start a reading phase.
      sentences_left_ =
          event.magnitude < 1.5 ? config_.sentences_file1 : config_.sentences_file2;
      audio_ends_ = ctx.now;  // nothing queued yet
      pipeline_empty_ = true;
      state_ = State::kSynth;
      return Next(ctx);
    }

    case State::kUiBurst:
      ++next_event_;
      state_ = State::kWaitEvent;
      return Next(ctx);

    case State::kSynth: {
      if (sentences_left_ <= 0) {
        ++next_event_;
        state_ = State::kWaitEvent;
        return Next(ctx);
      }
      --sentences_left_;
      const double jitter = ctx.rng->TruncatedGaussian(
          1.0, config_.sentence_jitter, 0.4, 1.8);
      state_ = State::kAfterSynth;
      // Deadline: be ready before the previous sentence's audio drains (or
      // promptly, for the first sentence of a phase).
      const SimTime synth_deadline = pipeline_empty_
                                         ? ctx.now + SimTime::FromSecondsF(
                                                         config_.speech_seconds)
                                         : audio_ends_;
      return Action::ComputeBy(
          BaseCyclesForMsAtTop(config_.synth_ms_at_top * jitter, profile_),
          synth_deadline);
    }

    case State::kAfterSynth: {
      // Synthesis of this sentence completed; it must be ready before the
      // previous sentence's audio drains.  The first sentence of a phase has
      // no predecessor: the user expects speech to start promptly, so its
      // deadline is simply "soon after the phase started".
      if (deadlines_ != nullptr) {
        const SimTime deadline =
            pipeline_empty_ ? ctx.now : audio_ends_;
        deadlines_->Report(stream_, deadline, ctx.now, config_.speech_tolerance);
      }
      pipeline_empty_ = false;
      if (ctx.kernel != nullptr && !audio_on_) {
        ctx.kernel->itsy().SetAudio(true);
        audio_on_ = true;
      }
      // Queue this sentence's audio after whatever is still playing.
      const SimTime start = std::max(ctx.now, audio_ends_);
      audio_ends_ = start + SimTime::FromSecondsF(config_.speech_seconds);
      state_ = State::kSynth;
      if (sentences_left_ > 0) {
        // Synthesize the next sentence once the pipeline has room: DECtalk
        // buffers one sentence ahead.
        const SimTime next_synth_at = audio_ends_ - SimTime::FromSecondsF(
                                                        config_.speech_seconds);
        if (next_synth_at > ctx.now) {
          return Action::SleepUntil(next_synth_at, /*jiffy=*/true);
        }
        return Next(ctx);
      }
      return Next(ctx);
    }
  }
  assert(false && "unreachable");
  return Action::Exit();
}

}  // namespace dcs
