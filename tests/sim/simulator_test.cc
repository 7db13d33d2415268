#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <vector>

#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "tests/support/lambda_events.h"

namespace dcs {
namespace {

using testing::LambdaEvents;

TEST(SimulatorTest, TimeStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorTest, RunAdvancesTimeToEventInstants) {
  Simulator sim;
  LambdaEvents ev;
  std::vector<std::int64_t> seen;
  ev.At(sim, SimTime::Millis(10), [&] { seen.push_back(sim.Now().millis()); });
  ev.At(sim, SimTime::Millis(5), [&] { seen.push_back(sim.Now().millis()); });
  while (sim.Step()) {
  }
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulatorTest, SchedulingInThePastFiresAtNow) {
  Simulator sim;
  LambdaEvents ev;
  SimTime fired;
  ev.At(sim, SimTime::Millis(10), [&] {
    ev.At(sim, SimTime::Millis(2), [&] { fired = sim.Now(); });
  });
  while (sim.Step()) {
  }
  EXPECT_EQ(fired, SimTime::Millis(10));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  LambdaEvents ev;
  int fired = 0;
  ev.At(sim, SimTime::Millis(5), [&] { ++fired; });
  ev.At(sim, SimTime::Millis(15), [&] { ++fired; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, RunUntilIncludesEventsExactlyAtDeadline) {
  Simulator sim;
  LambdaEvents ev;
  bool fired = false;
  ev.At(sim, SimTime::Millis(10), [&] { fired = true; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  LambdaEvents ev;
  int fired = 0;
  ev.At(sim, SimTime::Millis(1), [&] { ++fired; });
  ev.At(sim, SimTime::Millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  LambdaEvents ev;
  bool fired = false;
  const EventId id = ev.At(sim, SimTime::Millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelEndsRunAfterTheCurrentCallback) {
  std::atomic<bool> cancel{false};
  Simulator sim;
  LambdaEvents ev;
  sim.BindCancel(&cancel);
  int fired = 0;
  ev.At(sim, SimTime::Millis(1), [&] {
    ++fired;
    cancel = true;
  });
  ev.At(sim, SimTime::Millis(2), [&] { ++fired; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.PendingEvents(), 1u);
  sim.RunUntil(SimTime::Millis(10));  // a cancellation is never consumed
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorTest, CancelledRunUntilHoldsTheClock) {
  std::atomic<bool> cancel{false};
  Simulator sim;
  LambdaEvents ev;
  sim.BindCancel(&cancel);
  int fired = 0;
  ev.At(sim, SimTime::Millis(5), [&] {
    ++fired;
    cancel = true;
  });
  ev.At(sim, SimTime::Millis(6), [&] { ++fired; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  // The run did not reach the deadline, so the clock stays where it stopped.
  EXPECT_EQ(sim.Now(), SimTime::Millis(5));
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  LambdaEvents ev;
  for (int i = 0; i < 5; ++i) {
    ev.At(sim, SimTime::Millis(i), [] {});
  }
  sim.RunUntil(SimTime::Millis(4));
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorTest, CascadingEventsRunToCompletion) {
  Simulator sim;
  LambdaEvents ev;
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      ev.At(sim, sim.Now() + SimTime::Micros(1), chain);
    }
  };
  ev.At(sim, SimTime::Micros(1), chain);
  while (sim.Step()) {
  }
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), SimTime::Micros(100));
}

TEST(SimulatorTest, RunUntilWithEmptyQueueJustAdvancesTime) {
  Simulator sim;
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
}

TEST(SimulatorTest, FleetRestoreRearmsInSavedOrderAndDropsThePreviousOccupant) {
  // The fleet's device-recycling protocol (DeviceSim::LoadState): save the
  // pending events of a quiescent run as (time, original seq), let another
  // occupant run on, cancel everything it left armed, rewind the clock and
  // re-arm the saved events in ascending seq order.  The re-armed events
  // must fire in their original (time, seq) order, events created after the
  // restore must sort behind them on ties, and nothing the previous
  // occupant armed may fire.
  Simulator sim;
  LambdaEvents ev;
  Rng rng(17);
  std::vector<int> fired;
  struct Armed {
    EventId id;
    SimTime at;
    int label;
  };
  std::vector<Armed> armed;
  auto arm = [&](SimTime at, int label) {
    armed.push_back(Armed{ev.At(sim, at, [&fired, label] { fired.push_back(label); }), at, label});
  };
  // Times from a narrow range so ties are common; pushed in random order.
  for (int label = 0; label < 64; ++label) {
    arm(SimTime::Millis(rng.UniformInt(10, 40)), label);
  }
  const SimTime save_at = SimTime::Millis(20);
  sim.RunUntil(save_at);

  struct Saved {
    SimTime at;
    std::uint64_t seq;
    int label;
  };
  std::vector<Saved> image;
  for (const Armed& a : armed) {
    if (a.at > save_at) {
      image.push_back(Saved{a.at, sim.EventSeq(a.id), a.label});
    }
  }
  ASSERT_EQ(image.size(), sim.PendingEvents());
  const std::uint64_t executed = sim.events_executed();
  const std::uint64_t cancelled = sim.events_cancelled();

  // The previous occupant runs on and arms work of its own, some of it at
  // the very times the image will re-arm.
  sim.RunUntil(SimTime::Millis(30));
  for (int label = 1000; label < 1032; ++label) {
    arm(SimTime::Millis(rng.UniformInt(25, 60)), label);
  }

  // Restore: cancel everything armed, rewind, re-arm in saved-seq order.
  for (const Armed& a : armed) {
    sim.Cancel(a.id);
  }
  ASSERT_EQ(sim.PendingEvents(), 0u);
  sim.RestoreClock(save_at, executed, cancelled);
  std::sort(image.begin(), image.end(),
            [](const Saved& a, const Saved& b) { return a.seq < b.seq; });
  fired.clear();
  for (const Saved& s : image) {
    const int label = s.label;
    ev.At(sim, s.at, [&fired, label] { fired.push_back(label); });
  }
  std::vector<Saved> want = image;
  std::sort(want.begin(), want.end(), [](const Saved& a, const Saved& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  std::vector<int> want_labels;
  for (const Saved& s : want) {
    want_labels.push_back(s.label);
  }
  // Created after the restore, tied with the last re-armed event: fires
  // after it.
  ev.At(sim, want.back().at, [&fired] { fired.push_back(-1); });
  want_labels.push_back(-1);

  while (sim.Step()) {
  }
  EXPECT_EQ(fired, want_labels);
  EXPECT_EQ(sim.events_executed(), executed + want_labels.size());
  EXPECT_EQ(sim.events_cancelled(), cancelled);
}

// An event owner as components are: it keeps its pending event's id and
// clears it when the event fires.
struct Owner {
  std::vector<std::int64_t>* log;
  EventId id = kInvalidEventId;
  void Fire(std::int64_t tag) {
    log->push_back(tag);
    id = kInvalidEventId;
  }
};

TEST(SimulatorTest, AtArmsAMemberOfItsOwner) {
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner owner{&log};
  owner.id = sim.At<&Owner::Fire>(SimTime::Millis(4), &owner, 11);
  EXPECT_EQ(sim.EventAt(owner.id), SimTime::Millis(4));
  sim.RunUntil(SimTime::Millis(4));
  EXPECT_EQ(log, std::vector<std::int64_t>{11});
  EXPECT_EQ(owner.id, kInvalidEventId);
}

TEST(SimulatorTest, RearmListPushesInSavedSeqOrderAndWritesEachIdBack) {
  // A load registers pending events in the order components describe them;
  // FireInOrder must push them in saved-seq order, so that events tied on
  // time keep their original FIFO order, and leave each owner holding the
  // live id of its event.
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner owners[4] = {{&log}, {&log}, {&log}, {&log}};
  const std::uint64_t seqs[4] = {7, 2, 9, 5};
  RearmList rearm;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(rearm.Add(seqs[i], SimTime::Millis(3), EventFn::Of<&Owner::Fire>(&owners[i], i),
                          &owners[i].id));
  }
  rearm.FireInOrder(sim);
  for (const Owner& o : owners) {
    EXPECT_EQ(sim.EventAt(o.id), SimTime::Millis(3));
  }
  EXPECT_TRUE(sim.Cancel(owners[2].id));
  sim.RunUntil(SimTime::Millis(3));
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 3, 0}));
}

TEST(SimulatorTest, PendingFailsALoadWithMoreEventsThanTheRearmListHolds) {
  // The list has a fixed capacity so that re-arming never allocates; an
  // image holding more pending events than it takes must fail its load
  // rather than drop the rest.
  for (const int n : {RearmList::kCapacity, RearmList::kCapacity + 1}) {
    Simulator sim;
    std::vector<std::int64_t> log;
    Owner owner{&log};
    std::vector<EventId> ids;
    for (int i = 0; i < n; ++i) {
      ids.push_back(sim.At<&Owner::Fire>(SimTime::Millis(1 + i), &owner, i));
    }
    SnapshotWriter w;
    SnapshotIo save(&w, &sim);
    for (EventId& id : ids) {
      save.Pending<&Owner::Fire>(id, &owner);
    }
    SnapshotReader r(w);
    RearmList rearm;
    SnapshotIo load(&r, &rearm);
    for (EventId& id : ids) {
      load.Pending<&Owner::Fire>(id, &owner);
    }
    EXPECT_EQ(r.ok(), n <= RearmList::kCapacity) << n << " events";
  }
}

}  // namespace
}  // namespace dcs
