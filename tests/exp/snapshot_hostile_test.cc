// Hostile snapshot images: a count field no image could back, state enums
// and indices out of range, and every truncation of a real device image.
// Each load must fail ok() cleanly: no allocation sized from the count, no
// loop driven by it, no out-of-bounds read, no crash.

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "src/core/governor_registry.h"
#include "src/core/replay_policy.h"
#include "src/daq/daq.h"
#include "src/exp/device_sim.h"
#include "src/exp/experiment.h"
#include "src/fault/fault_injector.h"
#include "src/hw/cpu.h"
#include "src/hw/itsy.h"
#include "src/hw/power_tape.h"
#include "src/hw/voltage_regulator.h"
#include "src/kernel/kernel.h"
#include "src/kernel/run_queue.h"
#include "src/kernel/sched_log.h"
#include "src/kernel/task.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "src/sim/trace_sink.h"
#include "src/workload/admission.h"
#include "src/workload/chess.h"
#include "src/workload/input_trace.h"
#include "src/workload/mpeg.h"
#include "src/workload/server.h"
#include "src/workload/talking_editor.h"
#include "src/workload/web.h"
#include "tests/support/synthetic_workloads.h"

namespace dcs {
namespace {

constexpr std::uint64_t kHugeCount = std::uint64_t{1} << 60;

// An image that is a bare 2^60 count followed by a little padding: a load
// that trusted the count would resize to 2^60 elements or loop 2^60 times.
SnapshotWriter HugeCountImage() {
  SnapshotWriter w;
  w.U64(kHugeCount);
  for (int i = 0; i < 8; ++i) {
    w.U64(0);
  }
  return w;
}

// SnapshotIo::Count with no bound of its own: only the remaining bytes
// limit the count.
std::size_t LoadCount(SnapshotReader& r, std::size_t min_bytes) {
  SnapshotIo io(&r);
  std::size_t n = 0;
  io.Count(n, SnapshotIo::kNoBound, min_bytes);
  return n;
}

TEST(SnapshotHostileTest, CountBeyondRemainingBytesFails) {
  SnapshotWriter w;
  w.U64(3);
  w.U64(0);
  w.U64(0);
  w.U64(0);
  SnapshotReader fits(w);
  EXPECT_EQ(LoadCount(fits, 8), 3u);
  EXPECT_TRUE(fits.ok());

  SnapshotReader too_wide(w);
  EXPECT_EQ(LoadCount(too_wide, 9), 0u);
  EXPECT_FALSE(too_wide.ok());

  const SnapshotWriter huge = HugeCountImage();
  SnapshotReader r(huge);
  EXPECT_EQ(LoadCount(r, 1), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotHostileTest, ComponentsRejectAHugeCount) {
  const SnapshotWriter image = HugeCountImage();
  {
    PowerTape tape;
    SnapshotReader r(image);
    LoadSnapshot(tape, &r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(tape.empty());
  }
  {
    SchedLog log(16);
    SnapshotReader r(image);
    LoadSnapshot(log, &r);
    EXPECT_FALSE(r.ok());
  }
  {
    TraceSeries series("s");
    SnapshotReader r(image);
    LoadSnapshot(series, &r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(series.points().empty());
  }
  {
    RunQueue queue;
    SnapshotReader r(image);
    LoadSnapshot(queue, &r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(queue.pids().empty());
  }
  {
    // GpioTrigger's count follows its open-window flag and time.
    SnapshotWriter w;
    w.Bool(false);
    w.Time(SimTime::Zero());
    w.U64(kHugeCount);
    w.Time(SimTime::Zero());
    w.Time(SimTime::Zero());
    GpioTrigger trigger(5);
    SnapshotReader r(w);
    LoadSnapshot(trigger, &r);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(trigger.windows().empty());
  }
}

// The sched log's ring indices come from the image too: Record() writes
// buffer[next] and Snapshot() reads min(total, capacity) entries.  Images
// that break those bounds must fail and leave a log that is safe to use.
TEST(SnapshotHostileTest, SchedLogRejectsRingIndicesOutOfBounds) {
  struct Case {
    const char* what;
    std::uint64_t entries, next, total;
  };
  const Case cases[] = {
      {"more entries than the capacity", 32, 0, 32},
      {"next past the capacity", 2, 1000, 2},
      {"total claims more entries than stored", 2, 2, 10},
  };
  for (const Case& c : cases) {
    SnapshotWriter w;
    w.U64(c.entries);
    for (std::uint64_t i = 0; i < c.entries; ++i) {
      const SchedLogEntry entry{static_cast<std::int64_t>(i), 1, 0};
      w.Bytes(&entry, sizeof(entry));
    }
    w.U64(c.next);
    w.U64(c.total);
    SchedLog log(16);
    SnapshotReader r(w);
    LoadSnapshot(log, &r);
    EXPECT_FALSE(r.ok()) << c.what;
    for (int i = 0; i < 40; ++i) {
      log.Record(SimTime::Micros(i), 1, 0);
    }
    EXPECT_EQ(log.Snapshot().size(), 16u) << c.what;
  }
}

// State enums and event indices come from the image too.  Each component
// must fail the load on a state past its last enumerator or an index past
// its event list, and stay safe to run afterwards.

// A three-event trace; an index of 3 means "every event consumed".
InputTrace ThreeEventTrace(const char* kind) {
  InputTrace trace;
  for (int i = 0; i < 3; ++i) {
    trace.Record(SimTime::Millis(100 * (i + 1)), kind, 1.0);
  }
  return trace;
}

// Chess's saved fields after the index and the state.
void ChessTail(SnapshotWriter* w) {
  w->Time(SimTime::Zero());
  w->Bool(true);
  w->Time(SimTime::Zero());
  w->I64(0);
}

TEST(SnapshotHostileTest, ChessRejectsABadStateOrMoveIndex) {
  struct Case {
    const char* what;
    std::uint64_t next_event;
    std::uint8_t state;
  };
  const Case cases[] = {
      {"move index past the trace", 4, 0},
      {"user-UI state with every move consumed", 3, 1},
      {"state past the last enumerator", 0, 4},
  };
  for (const Case& c : cases) {
    ChessWorkload chess(ThreeEventTrace("move"), ChessConfig{}, nullptr);
    SnapshotWriter w;
    w.U64(c.next_event);
    w.U8(c.state);
    ChessTail(&w);
    SnapshotReader r(w);
    chess.LoadState(&r, nullptr);
    EXPECT_FALSE(r.ok()) << c.what;
    // The rejected state never indexes the trace.
    chess.Next(WorkloadContext{SimTime::Seconds(1)});
  }
  // The last move still in flight (index 2, user UI) is a valid image.
  ChessWorkload chess(ThreeEventTrace("move"), ChessConfig{}, nullptr);
  SnapshotWriter w;
  w.U64(2);
  w.U8(1);
  ChessTail(&w);
  SnapshotReader r(w);
  chess.LoadState(&r, nullptr);
  EXPECT_TRUE(r.ok());
}

TEST(SnapshotHostileTest, TalkingEditorRejectsABadStateOrEventIndex) {
  for (const auto& [next_event, state] :
       {std::pair<std::uint64_t, std::uint8_t>{4, 0}, {0, 4}}) {
    TalkingEditorWorkload editor(ThreeEventTrace("ui"), TalkingEditorConfig{}, nullptr);
    SnapshotWriter w;
    w.U64(next_event);
    w.U8(state);
    w.Time(SimTime::Zero());
    w.Bool(true);
    w.I64(0);
    w.Time(SimTime::Zero());
    w.Bool(false);
    w.Bool(true);
    SnapshotReader r(w);
    editor.LoadState(&r, nullptr);
    EXPECT_FALSE(r.ok()) << "index " << next_event << " state " << int{state};
    editor.Next(WorkloadContext{SimTime::Seconds(1)});
  }
}

TEST(SnapshotHostileTest, WebRejectsAnEventIndexPastTheTrace) {
  WebWorkload web(ThreeEventTrace("load"), WebConfig{}, nullptr);
  SnapshotWriter w;
  w.U64(4);
  w.Bool(false);
  w.Time(SimTime::Zero());
  w.Bool(true);
  w.Time(SimTime::Zero());
  SnapshotReader r(w);
  web.LoadState(&r, nullptr);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotHostileTest, MpegRejectsAStatePastTheLastEnumerator) {
  {
    MpegVideoWorkload video(MpegConfig{}, nullptr);
    SnapshotWriter w;
    w.U8(5);
    w.Time(SimTime::Zero());
    w.I64(0);
    w.I64(0);
    SnapshotReader r(w);
    video.LoadState(&r, nullptr);
    EXPECT_FALSE(r.ok());
  }
  {
    MpegAudioWorkload audio(MpegConfig{}, nullptr);
    SnapshotWriter w;
    w.U8(3);
    w.Time(SimTime::Zero());
    w.I64(0);
    SnapshotReader r(w);
    audio.LoadState(&r, nullptr);
    EXPECT_FALSE(r.ok());
  }
}

TEST(SnapshotHostileTest, TaskRejectsABadStateOrActionKind) {
  for (const auto& [state, kind] : {std::pair<std::uint8_t, std::uint8_t>{3, 0}, {0, 5}}) {
    Task task(1, std::make_unique<MpegAudioWorkload>(MpegConfig{}, nullptr), Rng(1), 0);
    SnapshotWriter w;
    SaveSnapshot(Rng(2), &w);
    w.U8(state);
    w.U8(kind);
    SnapshotReader r(w);
    SnapshotIo io(&r);
    task.Snapshot(io, nullptr);
    EXPECT_FALSE(r.ok()) << "state " << int{state} << " kind " << int{kind};
  }
}

TEST(SnapshotHostileTest, CpuRejectsABadStepOrExecState) {
  for (const auto& [step, state] :
       {std::pair<std::uint32_t, std::uint8_t>{ClockTable::MaxStep() + 1, 0},
        {0xffffffffu, 0},
        {0, 3}}) {
    Cpu cpu;
    SnapshotWriter w;
    w.U32(step);
    w.U8(state);
    w.Time(SimTime::Zero());
    w.U32(0);
    w.Time(SimTime::Zero());
    SnapshotReader r(w);
    LoadSnapshot(cpu, &r);
    EXPECT_FALSE(r.ok()) << "step " << step << " state " << int{state};
    EXPECT_GT(cpu.frequency_mhz(), 0.0);
  }
}

TEST(SnapshotHostileTest, VoltageRegulatorRejectsAnUnknownVoltage) {
  VoltageRegulator regulator;
  SnapshotWriter w;
  w.U8(2);
  w.Time(SimTime::Zero());
  w.Time(SimTime::Zero());
  w.U8(0);
  w.U32(0);
  SnapshotReader r(w);
  LoadSnapshot(regulator, &r);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotHostileTest, ReplayPolicyRejectsAPositionPastTheSchedule) {
  ScheduleReplayPolicy policy({1, 2, 3});
  SnapshotWriter w;
  w.U64(4);
  SnapshotReader r(w);
  LoadSnapshot(policy, &r);
  EXPECT_FALSE(r.ok());
}

TEST(SnapshotHostileTest, ServerRejectsAnArrivalOrClassIndexOutOfRange) {
  // The default config has one stream class and no admission gate.  The
  // first image is valid: every arrival consumed, class 0.
  struct Case {
    std::uint64_t next_arrival, cls;
    bool valid;
  };
  for (const auto& [next_arrival, cls, valid] : {Case{3, 0, true}, {4, 0, false}, {0, 1, false}}) {
    ServerWorkload server(ServerRequestsFromTrace(ThreeEventTrace("arrival"), ServerConfig{}),
                          ServerConfig{}, nullptr);
    SnapshotWriter w;
    w.Tag(0x53525652u);  // "SRVR"
    w.F64(0.0);          // the class's credit
    w.Bool(false);       // no admission gate
    w.Bool(false);
    w.U64(next_arrival);
    w.U64(0);  // empty queue
    w.F64(0.0);
    w.Bool(true);
    w.Time(SimTime::Zero());
    w.F64(1.0);
    w.U64(cls);
    w.Time(SimTime::Zero());
    w.Bool(true);
    SnapshotReader r(w);
    server.LoadState(&r, nullptr);
    EXPECT_EQ(r.ok(), valid) << "arrival " << next_arrival << " class " << cls;
  }
}

// A saved image with the I64 at `offset` overwritten.
std::vector<char> PatchI64(const SnapshotWriter& w, std::size_t offset, std::int64_t v) {
  std::vector<char> image(w.data(), w.data() + w.size());
  std::memcpy(image.data() + offset, &v, sizeof v);
  return image;
}

TEST(SnapshotHostileTest, AdmissionRejectsAStepOrCountOutOfRange) {
  AdmissionConfig config;
  config.policy = AdmissionPolicy::kFeedback;
  const auto make = [&config] {
    return AdmissionController(config, SimTime::Millis(100), 100.0, MemoryProfile{12.0, 4.0},
                               {1.0});
  };
  // Byte offsets in the image: the tag, the demand and inter-arrival EWMAs,
  // have_arrival, the last arrival and the speed EWMA come before max_step_;
  // then degraded_, shed_level_, last_brownouts_, shed_until_,
  // battery_sagging_, bound_, window_outcomes_ and window_violations_.
  constexpr std::size_t kMaxStep = 4 + 8 + 8 + 1 + 8 + 8;
  constexpr std::size_t kShedLevel = kMaxStep + 8 + 1;
  constexpr std::size_t kWindowOutcomes = kShedLevel + 8 + 8 + 8 + 1 + 8;
  constexpr std::size_t kWindowViolations = kWindowOutcomes + 8;
  const std::int64_t last_window = config.feedback_window - 1;
  struct Case {
    const char* field;
    std::size_t offset;
    std::int64_t value;
    bool valid;
  };
  const Case cases[] = {
      {"max_step", kMaxStep, ClockTable::MaxStep(), true},
      {"max_step", kMaxStep, ClockTable::MinStep(), true},
      {"max_step", kMaxStep, ClockTable::MaxStep() + 1, false},
      {"max_step", kMaxStep, -1, false},
      {"max_step", kMaxStep, std::int64_t{1} << 28, false},
      {"max_step", kMaxStep, (std::int64_t{1} << 32) + ClockTable::MinStep(), false},
      // One class: the shed level stays at most 1.
      {"shed_level", kShedLevel, 1, true},
      {"shed_level", kShedLevel, 2, false},
      {"shed_level", kShedLevel, -1, false},
      {"window_outcomes", kWindowOutcomes, last_window, true},
      {"window_outcomes", kWindowOutcomes, last_window + 1, false},
      {"window_outcomes", kWindowOutcomes, INT_MAX, false},
      {"window_outcomes", kWindowOutcomes, -1, false},
      // No outcome yet in the window, so no violation either.
      {"window_violations", kWindowViolations, 1, false},
  };
  for (const Case& c : cases) {
    AdmissionController saved = make();
    SnapshotWriter w;
    SnapshotIo save(&w);
    saved.Snapshot(save);
    const std::vector<char> image = PatchI64(w, c.offset, c.value);
    AdmissionController loaded = make();
    SnapshotReader r(image.data(), image.size());
    SnapshotIo io(&r);
    loaded.Snapshot(io);
    EXPECT_EQ(r.ok(), c.valid) << c.field << " " << c.value;
    // A refused value never indexes the step table or overflows a count.
    loaded.Consider(SimTime::Seconds(1), SimTime::Seconds(1), 100.0, 0.0, 0);
    loaded.ObserveOutcome(true);
  }
}

TEST(SnapshotHostileTest, KernelRejectsARetryCountOutOfRange) {
  // A fresh kernel's image before retry_attempts_: the tag, the Rng state,
  // the next pid, the task count, the empty run queue's count, the current
  // pid, the memory spike factor and the absent retry step (flag + value).
  SnapshotWriter rng_image;
  SnapshotIo rng_io(&rng_image);
  Rng rng(1);
  rng.Snapshot(rng_io);
  const std::size_t offset = 4 + rng_image.size() + 8 + 8 + 8 + 8 + 8 + 1 + 8;
  struct Case {
    std::int64_t attempts;
    bool valid;
  };
  for (const auto& [attempts, valid] :
       {Case{0, true},
        {Kernel::kMaxTransitionRetries, true},
        {Kernel::kMaxTransitionRetries + 1, false},
        {-1, false},
        {std::int64_t{-1} << 20, false},
        {(std::int64_t{1} << 32) + 1, false}}) {
    Simulator sim;
    Itsy itsy(sim);
    Kernel saved(sim, itsy);
    SnapshotWriter w;
    SnapshotIo save(&w, &sim);
    saved.Snapshot(save);
    const std::vector<char> image = PatchI64(w, offset, attempts);
    Simulator fresh_sim;
    Itsy fresh_itsy(fresh_sim);
    Kernel loaded(fresh_sim, fresh_itsy);
    SnapshotReader r(image.data(), image.size());
    SnapshotIo io(&r);
    loaded.Snapshot(io);
    EXPECT_EQ(r.ok(), valid) << "retry_attempts " << attempts;
  }
}

// Where the tick timer's record starts in `saved`'s image: everything up to
// the retry step (as in KernelRejectsARetryCountOutOfRange), the three retry
// counters, the sched log and trace sink, then the start flag and two times.
std::size_t TickRecordOffset(Kernel& saved) {
  SnapshotWriter rng_image;
  SnapshotIo rng_io(&rng_image);
  Rng rng(1);
  rng.Snapshot(rng_io);
  SnapshotWriter log_image;
  SaveSnapshot(saved.sched_log(), &log_image);
  SnapshotWriter sink_image;
  SaveSnapshot(saved.sink(), &sink_image);
  return 4 + rng_image.size() + 8 + 8 + 8 + 8 + 8 + 1 + 8 + 8 + 8 + 8 + log_image.size() +
         sink_image.size() + 1 + 8 + 8;
}

// The kernel's timer records carry a sequence number: a seq at or above
// 2^63 could wrap the simulator's counter, so it fails the load.
TEST(SnapshotHostileTest, KernelRejectsATimerSeqAtOrAbove2To63) {
  Simulator sim;
  Itsy itsy(sim);
  Kernel saved(sim, itsy);
  saved.Start();
  sim.RunUntil(SimTime::Millis(10));
  SnapshotWriter w;
  SnapshotIo save(&w, &sim);
  saved.Snapshot(save);
  // The tick's record: armed flag, fire time, seq.
  const std::size_t offset = TickRecordOffset(saved);
  ASSERT_EQ(w.data()[offset], 1);
  const std::uint64_t limit = SnapshotIo::kSeqLimit;
  for (const std::uint64_t seq : {limit - 1, limit, ~std::uint64_t{0}}) {
    const std::vector<char> image = PatchI64(w, offset + 1 + 8, static_cast<std::int64_t>(seq));
    Simulator fresh_sim;
    Itsy fresh_itsy(fresh_sim);
    Kernel loaded(fresh_sim, fresh_itsy);
    // Started as the saved kernel was, so its trace series match.
    loaded.Start();
    SnapshotReader r(image.data(), image.size());
    SnapshotIo io(&r, &fresh_sim);
    loaded.Snapshot(io);
    EXPECT_EQ(r.ok(), seq < limit) << seq;
  }
}

// The kernel saves whether a dispatch is armed twice: as the dispatch
// timer's armed flag and as the byte after it.  An image where the two
// disagree describes a kernel no run reaches, so it must not load.
TEST(SnapshotHostileTest, KernelRejectsADispatchByteThatDisagreesWithItsEvent) {
  for (const bool armed : {false, true}) {
    SCOPED_TRACE(armed ? "dispatch armed" : "nothing armed");
    Simulator sim;
    Itsy itsy(sim);
    Kernel saved(sim, itsy);
    if (armed) {
      // The first tick arms a dispatch one context switch later.
      saved.Start();
      sim.RunUntil(SimTime::Millis(10));
    }
    SnapshotWriter w;
    SnapshotIo save(&w, &sim);
    saved.Snapshot(save);

    // The image up to the byte: the tick and dispatch timer records (armed
    // flag, and time and seq when armed).
    const std::size_t event = armed ? 1 + 8 + 8 : 1;
    const std::size_t offset = TickRecordOffset(saved) + event + event;
    ASSERT_LT(offset, w.size());
    ASSERT_EQ(w.data()[offset], armed ? 1 : 0);

    for (const bool flip : {false, true}) {
      std::vector<char> image(w.data(), w.data() + w.size());
      if (flip) {
        image[offset] = armed ? 0 : 1;
      }
      Simulator fresh_sim;
      Itsy fresh_itsy(fresh_sim);
      Kernel loaded(fresh_sim, fresh_itsy);
      if (armed) {
        loaded.Start();
      }
      SnapshotReader r(image.data(), image.size());
      SnapshotIo io(&r, &fresh_sim);
      loaded.Snapshot(io);
      EXPECT_EQ(r.ok(), !flip) << (flip ? "flipped" : "as saved");
    }
  }
}

// A kernel with one long compute task, one quantum in: the task is mid-
// compute, so the run after a load arms its completion from the loaded
// cycles and memory spike factor.
struct ComputeStack {
  Simulator sim;
  Itsy itsy{sim};
  Kernel kernel{sim, itsy};
  ComputeStack() {
    kernel.AddTask(std::make_unique<ComputeOnceWorkload>(1e9));
    kernel.Start();
  }
};

// Offsets of three doubles in a ComputeStack kernel's image.  The tag, the
// Rng state, the next pid, the task count and the task's pid come before the
// task's image, which starts with its own Rng state and its state and
// action-kind bytes; then base_cycles, the action's until, jiffy and
// deadline fields, and remaining_cycles.  The task's wake slot, the run
// queue and the current pid come before the spike factor.
struct DoubleOffsets {
  std::size_t base_cycles;
  std::size_t remaining_cycles;
  std::size_t spike_factor;
};

DoubleOffsets OffsetsIn(ComputeStack& stack) {
  SnapshotWriter rng_image;
  SnapshotIo rng_io(&rng_image);
  Rng rng(1);
  rng.Snapshot(rng_io);
  Task* task = stack.kernel.FindTask(1);
  SnapshotWriter task_image;
  SnapshotIo task_io(&task_image, &stack.sim);
  task->Snapshot(task_io, &stack.kernel);
  SnapshotWriter queue_image;
  SaveSnapshot(stack.kernel.run_queue(), &queue_image);
  const std::size_t task_at = 4 + rng_image.size() + 8 + 8 + 8;
  const std::size_t wake = stack.sim.TimerArmed(task->wake_timer()) ? 1 + 8 + 8 : 1;
  DoubleOffsets o;
  o.base_cycles = task_at + rng_image.size() + 1 + 1;
  o.remaining_cycles = o.base_cycles + 8 + 8 + 1 + 1 + 8;
  o.spike_factor = task_at + task_image.size() + wake + queue_image.size() + 8;
  return o;
}

double DoubleAt(const SnapshotWriter& w, std::size_t offset) {
  double v = 0.0;
  std::memcpy(&v, w.data() + offset, sizeof v);
  return v;
}

// Saves a ComputeStack one quantum in, writes `value` over the double at
// the offset `field` picks, loads the image onto a fresh stack as a device
// load does, and runs it a while.  Returns whether the load succeeded.
bool LoadsWithDouble(std::size_t DoubleOffsets::*field, double value) {
  ComputeStack saved;
  saved.sim.RunUntil(SimTime::Millis(15));
  SnapshotWriter w;
  SnapshotIo save(&w, &saved.sim);
  saved.kernel.Snapshot(save);
  const DoubleOffsets offsets = OffsetsIn(saved);
  // The offsets find the fields they name.
  EXPECT_EQ(DoubleAt(w, offsets.base_cycles), 1e9);
  EXPECT_EQ(DoubleAt(w, offsets.remaining_cycles), saved.kernel.FindTask(1)->remaining_cycles());
  EXPECT_EQ(DoubleAt(w, offsets.spike_factor), 1.0);

  std::vector<char> image(w.data(), w.data() + w.size());
  std::memcpy(image.data() + offsets.*field, &value, sizeof value);
  ComputeStack loaded;
  loaded.sim.RestoreClock(saved.sim.Now(), saved.sim.events_executed(),
                          saved.sim.events_cancelled());
  SnapshotReader r(image.data(), image.size());
  SnapshotIo io(&r, &loaded.sim);
  loaded.kernel.Snapshot(io);
  // A refused value leaves one that is safe to run on.
  loaded.sim.RunUntil(SimTime::Millis(200));
  EXPECT_EQ(loaded.sim.Now(), SimTime::Millis(200));
  return r.ok();
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Kernel::ArmCompletion stretches a compute time by the memory spike factor
// and converts it to a SimTime.  QuantumMemSpikeFactor returns only 1.0 or
// kMemSpikeFactor, and without faults nothing resets the loaded value, so a
// NaN would reach a float-to-integer conversion out of range.
TEST(SnapshotHostileTest, KernelRejectsAMemSpikeFactorNoFaultDraws) {
  for (const double factor : {1.0, FaultInjector::kMemSpikeFactor}) {
    EXPECT_TRUE(LoadsWithDouble(&DoubleOffsets::spike_factor, factor)) << factor;
  }
  for (const double factor : {kNaN, kInf, -kInf, 0.0, -1.0, 2.0, 1e300}) {
    EXPECT_FALSE(LoadsWithDouble(&DoubleOffsets::spike_factor, factor)) << factor;
  }
}

// A compute action's base cycles must be finite, at least the remaining
// cycles, and small enough that its wall time at the slowest step fits a
// SimTime.
TEST(SnapshotHostileTest, TaskRejectsBaseCyclesThatAreNotWorkItCanTime) {
  const double remaining = [] {
    ComputeStack stack;
    stack.sim.RunUntil(SimTime::Millis(15));
    return stack.kernel.FindTask(1)->remaining_cycles();
  }();
  for (const double base : {1e9, remaining, 1e15}) {
    EXPECT_TRUE(LoadsWithDouble(&DoubleOffsets::base_cycles, base)) << base;
  }
  for (const double base : {kNaN, kInf, -1.0, 0.0, remaining - 1.0, 1e300}) {
    EXPECT_FALSE(LoadsWithDouble(&DoubleOffsets::base_cycles, base)) << base;
  }
}

// Remaining cycles run from the base down to 0: ArmCompletion turns them
// into a wall time.
TEST(SnapshotHostileTest, TaskRejectsRemainingCyclesOutsideZeroToBase) {
  for (const double remaining : {0.0, 1.0, 5e8, 1e9}) {
    EXPECT_TRUE(LoadsWithDouble(&DoubleOffsets::remaining_cycles, remaining)) << remaining;
  }
  for (const double remaining : {kNaN, kInf, -kInf, -1.0, 1e9 + 1.0, 1e300}) {
    EXPECT_FALSE(LoadsWithDouble(&DoubleOffsets::remaining_cycles, remaining)) << remaining;
  }
}

// A faulted server device carries every listed count: power tape, sched log,
// trace series, run queue, server request queue, invariant-checker history
// and the DAQ trigger's windows.
ExperimentConfig ServerConfig() {
  ExperimentConfig config;
  config.app = "server";
  config.governor = "pid-vs";
  config.seed = 5;
  config.duration = SimTime::Seconds(1);
  config.faults = "storm=0.3";
  config.server.emplace();
  config.server->rate_rps = 300.0;
  config.server->duration = SimTime::Seconds(1);
  return config;
}

// The full image restores onto `target`; every proper prefix must not, and
// the stack still takes the full image after all the failed loads.
void ExpectEveryTruncationFails(DeviceSim& source, DeviceSim& target) {
  source.Start();
  source.RunUntil(SimTime::Millis(150));
  SnapshotWriter image;
  source.SaveState(&image);
  ASSERT_GT(image.size(), 0u);

  {
    SnapshotReader r(image);
    target.LoadState(&r);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.AtEnd());
  }
  for (std::size_t len = 0; len < image.size(); ++len) {
    SnapshotReader r(image.data(), len);
    target.LoadState(&r);
    ASSERT_FALSE(r.ok()) << "prefix of " << len << " of " << image.size() << " bytes loaded";
  }
  SnapshotReader r(image);
  target.LoadState(&r);
  EXPECT_TRUE(r.ok());
}

TEST(SnapshotHostileTest, EveryTruncationOfADeviceImageFails) {
  const ExperimentConfig config = ServerConfig();
  DeviceSim source(config);
  DeviceSim target(config);
  ExpectEveryTruncationFails(source, target);
}

TEST(SnapshotHostileTest, EveryTruncationOfAnAdmissionGatedImageFails) {
  ExperimentConfig config = ServerConfig();
  config.server->admission.policy = AdmissionPolicy::kFeedback;
  DeviceSim source(config);
  DeviceSim target(config);
  ExpectEveryTruncationFails(source, target);
}

// A fleet-totals image is laid out differently: a history-free tape with
// its dropped-segment count and origin, an empty sched log and trace sink,
// no metrics registry.  Fault-free, so nothing keeps the history.
TEST(SnapshotHostileTest, EveryTruncationOfAFleetTotalsImageFails) {
  ExperimentConfig config = ServerConfig();
  config.faults = "";
  DeviceSim source(config, DeviceSim::Reads::kFleetTotals);
  DeviceSim target(config, DeviceSim::Reads::kFleetTotals);
  ASSERT_FALSE(source.itsy().tape().keeps_history());
  ExpectEveryTruncationFails(source, target);
}

// A summary image keeps the tape's history but no sched log, trace series
// or metrics registry, and ends with the kernel's utilization sum.
TEST(SnapshotHostileTest, EveryTruncationOfASummaryImageFails) {
  ExperimentConfig config = ServerConfig();
  config.faults = "";
  DeviceSim source(config, DeviceSim::Reads::kSummary);
  DeviceSim target(config, DeviceSim::Reads::kSummary);
  ExpectEveryTruncationFails(source, target);
}

// Each quantum adds a utilization in [0, 1] to the running sum a summary
// image ends with, so a load refuses a sum that is not finite or lies
// outside [0, quanta elapsed].
TEST(SnapshotHostileTest, SummaryImageRejectsAUtilizationSumNoRunReaches) {
  ExperimentConfig config = ServerConfig();
  config.faults = "";
  DeviceSim source(config, DeviceSim::Reads::kSummary);
  source.Start();
  source.RunUntil(SimTime::Millis(150));
  SnapshotWriter w;
  source.SaveState(&w);
  const std::size_t offset = w.size() - sizeof(double);
  const double sum = source.kernel().utilization_sum();
  const double quanta = static_cast<double>(source.kernel().quanta_elapsed());
  ASSERT_GT(sum, 0.0);
  ASSERT_EQ(DoubleAt(w, offset), sum);
  struct Case {
    double sum;
    bool valid;
  };
  for (const auto& [patched, valid] :
       {Case{sum, true},
        {0.0, true},
        {quanta, true},
        {kNaN, false},
        {kInf, false},
        {-kInf, false},
        {-1e-300, false},
        {-1.0, false},
        {std::nextafter(quanta, kInf), false},
        {1e300, false}}) {
    std::vector<char> image(w.data(), w.data() + w.size());
    std::memcpy(image.data() + offset, &patched, sizeof patched);
    DeviceSim target(config, DeviceSim::Reads::kSummary);
    SnapshotReader r(image.data(), image.size());
    target.LoadState(&r);
    EXPECT_EQ(r.ok(), valid) << patched;
  }
}

// Every registered governor describes its own state, so every governor's
// load path is truncated byte by byte too, on a short mpeg run.
TEST(SnapshotHostileTest, EveryTruncationOfEachGovernorsImageFails) {
  for (const std::string& governor : AllGovernorSpecs()) {
    SCOPED_TRACE(governor);
    ExperimentConfig config;
    config.app = "mpeg";
    config.governor = governor;
    config.seed = 5;
    config.duration = SimTime::Seconds(1);
    DeviceSim source(config);
    DeviceSim target(config);
    ExpectEveryTruncationFails(source, target);
  }
}

// An image taken with a battery fitted must not load onto a stack without
// one, nor the reverse: the battery's charge would be dropped or invented.
TEST(SnapshotHostileTest, BatteryPresenceMismatchFails) {
  ExperimentConfig with_battery = ServerConfig();
  with_battery.faults = "";
  with_battery.itsy.battery = BatteryParams{};
  ExperimentConfig without_battery = with_battery;
  without_battery.itsy.battery.reset();
  const std::pair<const ExperimentConfig*, const ExperimentConfig*> cases[] = {
      {&with_battery, &without_battery}, {&without_battery, &with_battery}};
  for (const auto& [from, onto] : cases) {
    DeviceSim source(*from);
    source.Start();
    source.RunUntil(SimTime::Millis(150));
    SnapshotWriter image;
    source.SaveState(&image);
    DeviceSim target(*onto);
    SnapshotReader r(image);
    target.LoadState(&r);
    EXPECT_FALSE(r.ok()) << (from->itsy.battery ? "battery image onto a bare stack"
                                                : "bare image onto a battery stack");
  }
}

}  // namespace
}  // namespace dcs
