// The TalkingEditor workload.
//
// "We used a version of the 'mpedit' Java text editor that had been modified
// to read text files aloud using the DECtalk speech synthesis system (which
// is run in a separate process).  The input trace records the user selecting
// a file to be opened using the file dialogue ... then having it spoken
// aloud and finally opening and having another text file read aloud.  The
// trace took 70 seconds."
//
// Paper Figure 3(d)/4(d): "bursty behavior prior to the speech synthesis
// results from dragging images, JIT'ing applications and opening files.
// Following this are long bursts of computation as the text is actually
// synthesized and sent to the OSS-compatible sound driver."
//
// Model: UI phases replay dialog-interaction bursts from an InputTrace; a
// speaking phase alternates sentence synthesis (heavy compute) with audio
// playback time.  Synthesis of sentence k must complete before the audio of
// sentence k-1 finishes, or speech output gaps — the "speech" deadline
// stream.  The audio path is switched on while text is being spoken.

#ifndef SRC_WORKLOAD_TALKING_EDITOR_H_
#define SRC_WORKLOAD_TALKING_EDITOR_H_

#include "src/kernel/workload_api.h"
#include "src/workload/deadline_monitor.h"
#include "src/workload/input_trace.h"

namespace dcs {

struct TalkingEditorConfig {
  // Synthesis cost per sentence at 206.4 MHz (ms) and spoken duration (s).
  double synth_ms_at_top = 1100.0;
  double speech_seconds = 2.8;
  // Cost variability across sentences.
  double sentence_jitter = 0.25;
  // Gap tolerance before a hand-off counts as an audible pause.
  SimTime speech_tolerance = SimTime::Millis(150);
  int sentences_file1 = 10;
  int sentences_file2 = 7;
};

// Builds the 70 s editing script: file-dialog UI bursts ("ui" events,
// magnitude = burst cost multiplier) and two "speak" events that start the
// reading phases.
InputTrace MakeTalkingEditorTrace(std::uint64_t seed);

class TalkingEditorWorkload final : public Workload {
 public:
  TalkingEditorWorkload(InputTrace trace, const TalkingEditorConfig& config,
                        DeadlineMonitor* deadlines);

  const char* Name() const override { return "mpedit_dectalk"; }
  Action Next(const WorkloadContext& ctx) override;
  MemoryProfile Profile() const override { return profile_; }

  void Snapshot(SnapshotIo& io) override {
    io.Index(next_event_, trace_.events().size());
    io.Enum(state_, State::kAfterSynth);
    io(origin_, primed_);
    io.As<std::int64_t>(sentences_left_);
    io(audio_ends_, audio_on_, pipeline_empty_);
  }

 private:
  enum class State { kWaitEvent, kUiBurst, kSynth, kAfterSynth };

  InputTrace trace_;
  TalkingEditorConfig config_;
  DeadlineMonitor* deadlines_;
  DeadlineMonitor::Stream stream_;  // "speech"
  MemoryProfile profile_;
  std::size_t next_event_ = 0;
  State state_ = State::kWaitEvent;
  SimTime origin_;
  bool primed_ = false;
  // Speaking-phase state.
  int sentences_left_ = 0;
  SimTime audio_ends_;  // when the last queued sentence finishes playing
  bool audio_on_ = false;
  bool pipeline_empty_ = true;
};

}  // namespace dcs

#endif  // SRC_WORKLOAD_TALKING_EDITOR_H_
