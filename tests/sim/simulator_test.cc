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
  // occupant run on, rewind the clock (which drops everything it left armed)
  // and re-arm the saved events at their saved (time, seq), in whatever
  // order the components describe them.  The re-armed events must fire in
  // their original (time, seq) order, events created after the restore must
  // sort behind them on ties, and nothing the previous occupant armed may
  // fire.
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
  auto record = [&fired](int label) { return [&fired, label] { fired.push_back(label); }; };
  auto arm = [&](SimTime at, int label) {
    armed.push_back(Armed{ev.At(sim, at, record(label)), at, label});
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
  ASSERT_GT(sim.PendingEvents(), 0u);

  // Restore: rewind, then re-arm in shuffled order.
  sim.RestoreClock(save_at, executed, cancelled);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  std::vector<Saved> shuffled = image;
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[static_cast<std::size_t>(
                                   rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
  }
  fired.clear();
  for (const Saved& s : shuffled) {
    sim.Rearm(s.at, s.seq, ev.Make(record(s.label)));
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
  ev.At(sim, want.back().at, record(-1));
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

TEST(SimulatorTest, RearmPlacesTiedEventsInSavedSeqOrder) {
  // A load re-arms pending events in the order components describe them,
  // not in saved-seq order.  Events tied on time must still fire in saved
  // seq order, each owner must hold the live id of its event, and an event
  // armed afterwards must fire behind all of them.
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner owners[5] = {{&log}, {&log}, {&log}, {&log}, {&log}};
  const std::uint64_t seqs[4] = {7, 2, 9, 5};
  for (int i = 0; i < 4; ++i) {
    owners[i].id = sim.Rearm(SimTime::Millis(3), seqs[i], EventFn::Of<&Owner::Fire>(&owners[i], i));
  }
  owners[4].id = sim.At<&Owner::Fire>(SimTime::Millis(3), &owners[4], 4);
  for (const Owner& o : owners) {
    EXPECT_EQ(sim.EventAt(o.id), SimTime::Millis(3));
  }
  EXPECT_EQ(sim.EventSeq(owners[0].id), 7u);
  EXPECT_EQ(sim.EventSeq(owners[4].id), 10u);
  EXPECT_TRUE(sim.Cancel(owners[2].id));
  sim.RunUntil(SimTime::Millis(3));
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 3, 0, 4}));
}

TEST(SimulatorTest, RearmBeforeNowFiresAtNow) {
  // As At() does: a saved time already past fires at Now(), not in the past.
  Simulator sim;
  sim.RestoreClock(SimTime::Millis(10), 0, 0);
  std::vector<std::int64_t> log;
  Owner owner{&log};
  owner.id = sim.Rearm(SimTime::Millis(4), 0, EventFn::Of<&Owner::Fire>(&owner, 1));
  EXPECT_EQ(sim.EventAt(owner.id), SimTime::Millis(10));
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(log, std::vector<std::int64_t>{1});
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulatorTest, RestoreClockStalesEveryPendingId) {
  // A restore drops the previous occupant's events without asking their
  // owners.  An owner that still holds an old id must not be able to cancel
  // the event re-armed into the slot that id named.
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner old_owners[3] = {{&log}, {&log}, {&log}};
  for (int i = 0; i < 3; ++i) {
    old_owners[i].id = sim.At<&Owner::Fire>(SimTime::Millis(5 + i), &old_owners[i], i);
  }
  sim.RestoreClock(SimTime::Millis(1), 0, 0);
  EXPECT_EQ(sim.PendingEvents(), 0u);

  Owner new_owners[3] = {{&log}, {&log}, {&log}};
  for (int i = 0; i < 3; ++i) {
    new_owners[i].id =
        sim.Rearm(SimTime::Millis(2), static_cast<std::uint64_t>(i),
                  EventFn::Of<&Owner::Fire>(&new_owners[i], 10 + i));
  }
  // The new events reuse the old slots, under a new generation.
  std::vector<std::uint32_t> old_slots;
  std::vector<std::uint32_t> new_slots;
  for (int i = 0; i < 3; ++i) {
    old_slots.push_back(static_cast<std::uint32_t>(old_owners[i].id));
    new_slots.push_back(static_cast<std::uint32_t>(new_owners[i].id));
  }
  std::sort(old_slots.begin(), old_slots.end());
  std::sort(new_slots.begin(), new_slots.end());
  ASSERT_EQ(new_slots, old_slots);
  for (const Owner& o : old_owners) {
    EXPECT_EQ(sim.EventAt(o.id), SimTime::Zero());
    EXPECT_FALSE(sim.Cancel(o.id));
  }
  EXPECT_EQ(sim.PendingEvents(), 3u);
  EXPECT_EQ(sim.events_cancelled(), 0u);
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(log, (std::vector<std::int64_t>{10, 11, 12}));
}

TEST(SimulatorTest, PendingFailsALoadWithASeqAtOrAbove2To63) {
  // No run reaches 2^63 events.  A saved seq at or above it can only come
  // from a hostile image, and re-arming it could wrap the queue's counter
  // so that later events sort ahead of earlier ones.
  const std::uint64_t limit = SnapshotIo::kSeqLimit;
  for (const std::uint64_t seq : {std::uint64_t{0}, limit - 1, limit, ~std::uint64_t{0}}) {
    SnapshotWriter w;
    w.Bool(true);
    w.Time(SimTime::Millis(3));
    w.U64(seq);
    Simulator sim;
    std::vector<std::int64_t> log;
    Owner owner{&log};
    SnapshotReader r(w);
    SnapshotIo load(&r, &sim);
    load.Pending<&Owner::Fire>(owner.id, &owner);
    const bool valid = seq < limit;
    EXPECT_EQ(r.ok(), valid) << seq;
    EXPECT_EQ(sim.PendingEvents(), valid ? 1u : 0u) << seq;
    EXPECT_EQ(owner.id != kInvalidEventId, valid) << seq;
  }
}

TEST(SimulatorTest, PendingFailsALoadWithoutASimulator) {
  // An io built without a simulator has nowhere to re-arm an event.
  SnapshotWriter w;
  w.Bool(true);
  w.Time(SimTime::Millis(3));
  w.U64(0);
  std::vector<std::int64_t> log;
  Owner owner{&log};
  SnapshotReader r(w);
  SnapshotIo load(&r);
  load.Pending<&Owner::Fire>(owner.id, &owner);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(owner.id, kInvalidEventId);
}

}  // namespace
}  // namespace dcs
