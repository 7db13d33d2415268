#include "src/sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "src/sim/snapshot.h"
#include "tests/support/lambda_events.h"

namespace dcs {
namespace {

using testing::LambdaEvents;

// Registers a slot and arms `fn` in it at `at`: an owner with one pending
// event.  Returns the slot.
std::size_t ArmNew(Simulator& sim, LambdaEvents& ev, SimTime at, std::function<void()> fn) {
  const std::size_t slot = sim.AddTimer();
  sim.ArmTimer(slot, at, ev.Make(std::move(fn)));
  return slot;
}

TEST(SimulatorTest, TimeStartsAtZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), SimTime::Zero());
}

TEST(SimulatorTest, RunAdvancesTimeToEventInstants) {
  Simulator sim;
  LambdaEvents ev;
  std::vector<std::int64_t> seen;
  ArmNew(sim, ev, SimTime::Millis(10), [&] { seen.push_back(sim.Now().millis()); });
  ArmNew(sim, ev, SimTime::Millis(5), [&] { seen.push_back(sim.Now().millis()); });
  while (sim.Step()) {
  }
  EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 10}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulatorTest, SchedulingInThePastFiresAtNow) {
  Simulator sim;
  LambdaEvents ev;
  SimTime fired;
  const std::size_t late = sim.AddTimer();
  ArmNew(sim, ev, SimTime::Millis(10), [&] {
    sim.ArmTimer(late, SimTime::Millis(2), ev.Make([&] { fired = sim.Now(); }));
    EXPECT_EQ(sim.TimerAt(late), SimTime::Millis(10));
  });
  while (sim.Step()) {
  }
  EXPECT_EQ(fired, SimTime::Millis(10));
}

TEST(SimulatorTest, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  LambdaEvents ev;
  int fired = 0;
  ArmNew(sim, ev, SimTime::Millis(5), [&] { ++fired; });
  ArmNew(sim, ev, SimTime::Millis(15), [&] { ++fired; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
  EXPECT_EQ(sim.PendingEvents(), 1u);
}

TEST(SimulatorTest, RunUntilIncludesEventsExactlyAtDeadline) {
  Simulator sim;
  LambdaEvents ev;
  bool fired = false;
  ArmNew(sim, ev, SimTime::Millis(10), [&] { fired = true; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, StepExecutesExactlyOneEvent) {
  Simulator sim;
  LambdaEvents ev;
  int fired = 0;
  ArmNew(sim, ev, SimTime::Millis(1), [&] { ++fired; });
  ArmNew(sim, ev, SimTime::Millis(2), [&] { ++fired; });
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
  const std::size_t slot = ArmNew(sim, ev, SimTime::Millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.CancelTimer(slot));
  sim.RunUntil(SimTime::Millis(1));
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelEndsRunAfterTheCurrentCallback) {
  std::atomic<bool> cancel{false};
  Simulator sim;
  LambdaEvents ev;
  sim.BindCancel(&cancel);
  int fired = 0;
  ArmNew(sim, ev, SimTime::Millis(1), [&] {
    ++fired;
    cancel = true;
  });
  ArmNew(sim, ev, SimTime::Millis(2), [&] { ++fired; });
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
  ArmNew(sim, ev, SimTime::Millis(5), [&] {
    ++fired;
    cancel = true;
  });
  ArmNew(sim, ev, SimTime::Millis(6), [&] { ++fired; });
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(fired, 1);
  // The run did not reach the deadline, so the clock stays where it stopped.
  EXPECT_EQ(sim.Now(), SimTime::Millis(5));
}

TEST(SimulatorTest, EventsExecutedCounter) {
  Simulator sim;
  LambdaEvents ev;
  for (int i = 0; i < 5; ++i) {
    ArmNew(sim, ev, SimTime::Millis(i), [] {});
  }
  sim.RunUntil(SimTime::Millis(4));
  EXPECT_EQ(sim.events_executed(), 5u);
}

TEST(SimulatorTest, CascadingEventsRunToCompletion) {
  Simulator sim;
  LambdaEvents ev;
  const std::size_t slot = sim.AddTimer();
  int depth = 0;
  std::function<void()> chain = [&] {
    if (++depth < 100) {
      sim.ArmTimer(slot, sim.Now() + SimTime::Micros(1), ev.Make(chain));
    }
  };
  sim.ArmTimer(slot, SimTime::Micros(1), ev.Make(chain));
  while (sim.Step()) {
  }
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.Now(), SimTime::Micros(100));
}

TEST(SimulatorTest, RunUntilWithEmptyQueueJustAdvancesTime) {
  // With no slot, and with slots none of which is armed.
  Simulator sim;
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
  sim.AddTimer();
  sim.AddTimer();
  EXPECT_FALSE(sim.Step());
  sim.RunUntil(SimTime::Seconds(7));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(7));
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(SimulatorTest, FleetRestoreRearmsInSavedOrderAndDropsThePreviousOccupant) {
  // The fleet's device-recycling protocol (DeviceSim::LoadState): save the
  // armed slots of a quiescent run as (time, seq), let another occupant run
  // on, rewind the clock (which clears every slot it left armed) and re-arm
  // the saved slots at their saved (time, seq), in whatever order the
  // components describe them.  The re-armed events must fire in their
  // original (time, seq) order, events armed after the restore must sort
  // behind them on ties, and nothing the previous occupant armed may fire.
  Simulator sim;
  LambdaEvents ev;
  Rng rng(17);
  std::vector<int> fired;
  auto record = [&fired](int label) { return [&fired, label] { fired.push_back(label); }; };
  // One slot per label.  Times from a narrow range so ties are common;
  // armed in random order.
  constexpr int kLabels = 16;
  std::vector<std::size_t> slots;
  for (int label = 0; label < kLabels; ++label) {
    slots.push_back(ArmNew(sim, ev, SimTime::Millis(rng.UniformInt(10, 40)), record(label)));
  }
  const SimTime save_at = SimTime::Millis(20);
  sim.RunUntil(save_at);

  struct Saved {
    std::size_t slot;
    SimTime at;
    std::uint64_t seq;
    int label;
  };
  std::vector<Saved> image;
  for (int label = 0; label < kLabels; ++label) {
    const std::size_t slot = slots[static_cast<std::size_t>(label)];
    if (sim.TimerArmed(slot)) {
      image.push_back(Saved{slot, sim.TimerAt(slot), sim.TimerSeq(slot), label});
    }
  }
  ASSERT_EQ(image.size(), sim.PendingEvents());
  ASSERT_GT(image.size(), 1u);
  const std::uint64_t executed = sim.events_executed();
  const std::uint64_t cancelled = sim.events_cancelled();

  // The previous occupant runs on and arms work of its own, in the slots
  // that fired and in new ones, some of it at the very times the image will
  // re-arm.
  sim.RunUntil(SimTime::Millis(30));
  for (const std::size_t slot : slots) {
    if (!sim.TimerArmed(slot)) {
      sim.ArmTimer(slot, SimTime::Millis(rng.UniformInt(30, 60)), ev.Make(record(1000)));
    }
  }
  for (int label = 1001; label < 1008; ++label) {
    ArmNew(sim, ev, SimTime::Millis(rng.UniformInt(30, 60)), record(label));
  }

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
    sim.RearmTimer(s.slot, s.at, s.seq, ev.Make(record(s.label)));
  }
  std::vector<Saved> want = image;
  std::sort(want.begin(), want.end(), [](const Saved& a, const Saved& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  });
  std::vector<int> want_labels;
  for (const Saved& s : want) {
    want_labels.push_back(s.label);
  }
  // Armed after the restore, tied with the last re-armed event: fires after
  // it.
  ArmNew(sim, ev, want.back().at, record(-1));
  want_labels.push_back(-1);

  while (sim.Step()) {
  }
  EXPECT_EQ(fired, want_labels);
  EXPECT_EQ(sim.events_executed(), executed + want_labels.size());
  EXPECT_EQ(sim.events_cancelled(), cancelled);
}

// An event owner as components are: a slot of its own, registered when it
// is built, and a handler that logs its aux word.
struct Owner {
  Owner(Simulator* sim, std::vector<std::int64_t>* log) : log(log), slot(sim->AddTimer()) {}
  std::vector<std::int64_t>* log;
  std::size_t slot;
  int bumps = 0;
  void Fire(std::int64_t tag) { log->push_back(tag); }
  void Bump() { ++bumps; }
};

TEST(SimulatorTest, ArmTimerCallsAMemberOfItsOwner) {
  // A record names a member and the object it runs on; a handler that takes
  // an argument gets the record's aux word.
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner a(&sim, &log);
  Owner b(&sim, &log);
  sim.ArmTimer<&Owner::Fire>(a.slot, SimTime::Millis(4), &a, 11);
  sim.ArmTimer<&Owner::Bump>(b.slot, SimTime::Millis(2), &b);
  EXPECT_EQ(sim.TimerAt(a.slot), SimTime::Millis(4));
  sim.RunUntil(SimTime::Millis(4));
  EXPECT_EQ(log, std::vector<std::int64_t>{11});
  EXPECT_EQ(b.bumps, 1);
  EXPECT_FALSE(sim.TimerArmed(a.slot));
  EXPECT_FALSE(sim.TimerArmed(b.slot));
}

TEST(SimulatorTest, RearmPlacesTiedEventsInSavedSeqOrder) {
  // A load re-arms slots in the order components describe them, not in
  // saved-seq order.  Events tied on time must still fire in saved seq
  // order, and an event armed afterwards must fire behind all of them.
  Simulator sim;
  std::vector<std::int64_t> log;
  std::vector<Owner> owners;
  for (int i = 0; i < 5; ++i) {
    owners.emplace_back(&sim, &log);
  }
  const std::uint64_t seqs[4] = {7, 2, 9, 5};
  for (int i = 0; i < 4; ++i) {
    Owner& o = owners[static_cast<std::size_t>(i)];
    sim.RearmTimer(o.slot, SimTime::Millis(3), seqs[i], EventFn::Of<&Owner::Fire>(&o, i));
  }
  sim.ArmTimer<&Owner::Fire>(owners[4].slot, SimTime::Millis(3), &owners[4], 4);
  for (const Owner& o : owners) {
    EXPECT_EQ(sim.TimerAt(o.slot), SimTime::Millis(3));
  }
  EXPECT_EQ(sim.TimerSeq(owners[0].slot), 7u);
  EXPECT_EQ(sim.TimerSeq(owners[4].slot), 10u);
  EXPECT_TRUE(sim.CancelTimer(owners[2].slot));
  sim.RunUntil(SimTime::Millis(3));
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 3, 0, 4}));
}

TEST(SimulatorTest, RearmBeforeNowFiresAtNow) {
  // As ArmTimer() does: a saved time already past fires at Now(), not in the
  // past.
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner owner(&sim, &log);
  sim.RestoreClock(SimTime::Millis(10), 0, 0);
  sim.RearmTimer(owner.slot, SimTime::Millis(4), 0, EventFn::Of<&Owner::Fire>(&owner, 1));
  EXPECT_EQ(sim.TimerAt(owner.slot), SimTime::Millis(10));
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_EQ(log, std::vector<std::int64_t>{1});
  EXPECT_EQ(sim.Now(), SimTime::Millis(10));
}

TEST(SimulatorTest, TimersTiedOnTimeFireInSeqOrder) {
  // A jiffy-rounded wake lands on a tick time: whichever was armed first
  // fires first, in both arming orders, whatever the slots' indices.
  for (const bool low_slot_first : {true, false}) {
    SCOPED_TRACE(low_slot_first ? "slot 0 armed first" : "slot 1 armed first");
    Simulator sim;
    std::vector<std::int64_t> log;
    Owner low(&sim, &log);
    Owner high(&sim, &log);
    if (low_slot_first) {
      sim.ArmTimer<&Owner::Fire>(low.slot, SimTime::Millis(10), &low, 1);
      sim.ArmTimer<&Owner::Fire>(high.slot, SimTime::Millis(10), &high, 2);
    } else {
      sim.ArmTimer<&Owner::Fire>(high.slot, SimTime::Millis(10), &high, 2);
      sim.ArmTimer<&Owner::Fire>(low.slot, SimTime::Millis(10), &low, 1);
    }
    sim.RunUntil(SimTime::Millis(10));
    const std::vector<std::int64_t> want =
        low_slot_first ? std::vector<std::int64_t>{1, 2} : std::vector<std::int64_t>{2, 1};
    EXPECT_EQ(log, want);
    EXPECT_EQ(sim.events_executed(), 2u);
  }
}

TEST(SimulatorTest, CancelTimerOnAnEmptySlotCountsNothing) {
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner first(&sim, &log);
  Owner owner(&sim, &log);
  EXPECT_FALSE(sim.CancelTimer(owner.slot));
  EXPECT_EQ(sim.events_cancelled(), 0u);

  sim.ArmTimer<&Owner::Fire>(first.slot, SimTime::Millis(5), &first, 1);
  sim.ArmTimer<&Owner::Fire>(owner.slot, SimTime::Millis(5), &owner, 2);
  ASSERT_TRUE(sim.Step());
  // The event armed first fired; the other slot still waits.
  EXPECT_EQ(log, std::vector<std::int64_t>{1});
  EXPECT_TRUE(sim.TimerArmed(owner.slot));
  ASSERT_TRUE(sim.Step());
  // A slot that fired is empty: cancelling it is no cancel.
  EXPECT_FALSE(sim.TimerArmed(owner.slot));
  EXPECT_FALSE(sim.CancelTimer(owner.slot));
  EXPECT_EQ(sim.events_cancelled(), 0u);

  sim.ArmTimer<&Owner::Fire>(owner.slot, SimTime::Millis(9), &owner, 3);
  EXPECT_TRUE(sim.CancelTimer(owner.slot));
  EXPECT_FALSE(sim.CancelTimer(owner.slot));
  EXPECT_EQ(sim.events_cancelled(), 1u);
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

// A timer owner as the kernel's tick is: its handler re-arms its own slot.
struct Ticker {
  Simulator* sim;
  std::vector<std::int64_t>* log;
  int ticks_left;
  std::size_t slot = sim->AddTimer();
  void Tick() {
    log->push_back(100 + sim->Now().millis());
    if (--ticks_left > 0) {
      sim->ArmTimer<&Ticker::Tick>(slot, sim->Now() + SimTime::Millis(10), this);
    }
  }
};

TEST(SimulatorTest, HandlerRearmsItsOwnTimerWhileFiring) {
  Simulator sim;
  std::vector<std::int64_t> log;
  Ticker ticker{&sim, &log, 3};
  Owner wake(&sim, &log);
  sim.ArmTimer<&Ticker::Tick>(ticker.slot, SimTime::Zero(), &ticker);
  // Armed before the tick that re-arms for 10 ms, so it fires first there.
  sim.ArmTimer<&Owner::Fire>(wake.slot, SimTime::Millis(10), &wake, 1);
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(log, (std::vector<std::int64_t>{100, 1, 110, 120}));
  EXPECT_FALSE(sim.TimerArmed(ticker.slot));
  EXPECT_EQ(sim.events_executed(), 4u);
}

// A handler that registers slots, as Kernel::AddTask does mid-run, may move
// the slot array under the loop.  Nothing may be read from the old one.
TEST(SimulatorTest, AddTimerWhileFiringKeepsEveryArmedSlot) {
  Simulator sim;
  LambdaEvents ev;
  std::vector<int> fired;
  std::vector<std::size_t> added;
  ArmNew(sim, ev, SimTime::Millis(1), [&] {
    fired.push_back(0);
    for (int i = 0; i < 64; ++i) {
      added.push_back(sim.AddTimer());
    }
    sim.ArmTimer(added.back(), SimTime::Millis(2), ev.Make([&] { fired.push_back(2); }));
  });
  ArmNew(sim, ev, SimTime::Millis(2), [&] { fired.push_back(1); });
  sim.RunUntil(SimTime::Millis(5));
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(SimulatorTest, PendingEventsCountsArmedTimers) {
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner a(&sim, &log);
  Owner b(&sim, &log);
  Owner c(&sim, &log);
  sim.ArmTimer<&Owner::Fire>(b.slot, SimTime::Millis(5), &b, 1);
  sim.ArmTimer<&Owner::Fire>(c.slot, SimTime::Millis(5), &c, 2);
  sim.ArmTimer<&Owner::Fire>(a.slot, SimTime::Millis(8), &a, 3);
  EXPECT_EQ(sim.PendingEvents(), 3u);
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.PendingEvents(), 2u);
  EXPECT_TRUE(sim.TimerArmed(c.slot));
  EXPECT_TRUE(sim.CancelTimer(a.slot));
  EXPECT_EQ(sim.PendingEvents(), 1u);
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.PendingEvents(), 0u);
  EXPECT_EQ(log, (std::vector<std::int64_t>{1, 2}));
}

TEST(SimulatorTest, RestoreClockClearsTheTimers) {
  Simulator sim;
  std::vector<std::int64_t> log;
  std::vector<Owner> owners;
  for (int i = 0; i < 3; ++i) {
    owners.emplace_back(&sim, &log);
  }
  for (Owner& o : owners) {
    sim.ArmTimer<&Owner::Fire>(o.slot, SimTime::Millis(5), &o, 1);
  }
  sim.RestoreClock(SimTime::Millis(2), 7, 3);
  EXPECT_EQ(sim.PendingEvents(), 0u);
  for (const Owner& o : owners) {
    EXPECT_FALSE(sim.TimerArmed(o.slot));
  }
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(sim.events_cancelled(), 3u);

  // The registrations stay.  Armed afresh, the slots sort by the restarted
  // counter, not by index.
  sim.ArmTimer<&Owner::Fire>(owners[2].slot, SimTime::Millis(5), &owners[2], 2);
  EXPECT_EQ(sim.TimerSeq(owners[2].slot), 0u);
  sim.ArmTimer<&Owner::Fire>(owners[1].slot, SimTime::Millis(5), &owners[1], 3);
  sim.RunUntil(SimTime::Millis(5));
  EXPECT_EQ(log, (std::vector<std::int64_t>{2, 3}));
  EXPECT_EQ(sim.events_executed(), 9u);
}

TEST(SimulatorTest, RearmedTimerRaisesTheCounter) {
  // A load re-arms slots at their saved (time, seq); an event armed
  // afterwards sorts behind all of them.
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner a(&sim, &log);
  Owner b(&sim, &log);
  Owner later(&sim, &log);
  sim.RestoreClock(SimTime::Millis(1), 0, 0);
  sim.RearmTimer(a.slot, SimTime::Millis(3), 7, EventFn::Of<&Owner::Fire>(&a, 7));
  sim.RearmTimer(b.slot, SimTime::Millis(3), 3, EventFn::Of<&Owner::Fire>(&b, 3));
  EXPECT_EQ(sim.TimerAt(a.slot), SimTime::Millis(3));
  EXPECT_EQ(sim.TimerSeq(a.slot), 7u);
  sim.ArmTimer<&Owner::Fire>(later.slot, SimTime::Millis(3), &later, 8);
  EXPECT_EQ(sim.TimerSeq(later.slot), 8u);
  sim.RunUntil(SimTime::Millis(3));
  EXPECT_EQ(log, (std::vector<std::int64_t>{3, 7, 8}));
}

TEST(SimulatorTest, ArmAndCancelNeverAllocate) {
  // An arena never frees, so any allocation per arm or cancel would show in
  // allocated_bytes(): once the slots are registered it must never move,
  // however many events are armed, fired and cancelled.
  Arena arena;
  Simulator sim(&arena);
  Rng rng(0xC0FFEEu);
  std::vector<std::int64_t> log;
  std::vector<Owner> owners;
  owners.reserve(16);
  for (int i = 0; i < 16; ++i) {
    owners.emplace_back(&sim, &log);
  }
  const std::size_t bytes = arena.allocated_bytes();
  ASSERT_GT(bytes, 0u);
  for (int round = 0; round < 20'000; ++round) {
    for (Owner& o : owners) {
      if (!sim.TimerArmed(o.slot)) {
        sim.ArmTimer<&Owner::Bump>(o.slot, sim.Now() + SimTime::Micros(rng.UniformInt(0, 50)),
                                   &o);
      }
    }
    sim.CancelTimer(owners[static_cast<std::size_t>(rng.UniformInt(0, 15))].slot);
    sim.Step();
  }
  EXPECT_EQ(arena.allocated_bytes(), bytes);
  EXPECT_GT(sim.events_cancelled(), 0u);
  EXPECT_GT(sim.events_executed(), 0u);
}

TEST(SimulatorTest, RandomizedDifferentialAgainstSortedVector) {
  // Drives random interleavings of arm, cancel, Step (whose handlers may
  // re-arm their own slot while firing), and RestoreClock followed by
  // RearmTimer of the saved slots in shuffled order, over 6-16 slots,
  // against a reference: every armed event in a vector sorted by (time,
  // seq).  Observable behaviour must match: which event fires and when,
  // cancel results, pending counts and the sim.* counters.  Times are drawn
  // from a tiny range, so ties are common and the seq compare decides them.
  struct Ref {
    std::size_t slot;
    SimTime at;
    std::uint64_t seq;
    int payload;
    bool rearms;  // its handler re-arms its own slot
  };
  auto earlier = [](const Ref& a, const Ref& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  };
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Simulator sim;
    LambdaEvents ev;
    const auto n = static_cast<std::size_t>(rng.UniformInt(6, 16));
    std::vector<std::size_t> slots;
    for (std::size_t i = 0; i < n; ++i) {
      slots.push_back(sim.AddTimer());
    }
    std::vector<Ref> ref;  // sorted by (at, seq)
    std::uint64_t next_seq = 0;
    std::uint64_t executed = 0;
    std::uint64_t cancelled = 0;
    std::vector<int> fired;
    int next_payload = 0;

    auto find = [&ref](std::size_t slot) {
      return std::find_if(ref.begin(), ref.end(), [slot](const Ref& r) { return r.slot == slot; });
    };
    auto insert = [&](const Ref& r) {
      ref.insert(std::upper_bound(ref.begin(), ref.end(), r, earlier), r);
    };
    // The handler of an event: logs its payload, and maybe re-arms its slot.
    std::function<EventFn(const Ref&)> make;
    auto arm = [&](std::size_t slot, SimTime at, bool rearms) {
      const Ref r{slot, std::max(at, sim.Now()), next_seq++, next_payload++, rearms};
      sim.ArmTimer(slot, at, make(r));
      insert(r);
    };
    make = [&](const Ref& r) {
      return ev.Make([&, r] {
        fired.push_back(r.payload);
        if (r.rearms) {
          arm(r.slot, sim.Now() + SimTime::Micros(rng.UniformInt(0, 3)), rng.UniformInt(0, 1) == 0);
        }
      });
    };

    for (int step = 0; step < 5'000; ++step) {
      SCOPED_TRACE(step);
      const std::size_t slot = slots[static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<std::int64_t>(n) - 1))];
      const std::int64_t r = rng.UniformInt(0, 99);
      if (r < 40) {
        // Arm, if the slot is empty; a time up to 3 us past fires at now.
        if (find(slot) == ref.end()) {
          arm(slot, sim.Now() + SimTime::Micros(rng.UniformInt(-3, 8)), rng.UniformInt(0, 2) == 0);
        }
      } else if (r < 55) {
        const auto it = find(slot);
        const bool was_armed = it != ref.end();
        if (was_armed) {
          ref.erase(it);
          ++cancelled;
        }
        ASSERT_EQ(sim.CancelTimer(slot), was_armed);
      } else if (r < 95) {
        const SimTime deadline = sim.Now() + SimTime::Micros(rng.UniformInt(0, 4));
        if (ref.empty() || ref.front().at > deadline) {
          ASSERT_FALSE(sim.Step(deadline));
        } else {
          const Ref want = ref.front();
          ref.erase(ref.begin());
          ++executed;
          fired.clear();
          ASSERT_TRUE(sim.Step(deadline));
          ASSERT_EQ(sim.Now(), want.at);
          ASSERT_FALSE(fired.empty());
          ASSERT_EQ(fired.front(), want.payload);
        }
      } else {
        // A load: the image is every armed slot's (at, seq).  Another
        // occupant first arms the empty slots; RestoreClock drops all of
        // it, and the image re-arms in shuffled order.
        std::vector<Ref> image = ref;
        for (const std::size_t s : slots) {
          if (!sim.TimerArmed(s)) {
            sim.ArmTimer(s, sim.Now(), ev.Make([&fired] { fired.push_back(-1); }));
          }
        }
        sim.RestoreClock(sim.Now(), executed, cancelled);
        ASSERT_EQ(sim.PendingEvents(), 0u);
        next_seq = 0;
        for (std::size_t i = image.size(); i > 1; --i) {
          std::swap(image[i - 1], image[static_cast<std::size_t>(
                                      rng.UniformInt(0, static_cast<std::int64_t>(i) - 1))]);
        }
        for (const Ref& saved : image) {
          sim.RearmTimer(saved.slot, saved.at, saved.seq, make(saved));
          next_seq = std::max(next_seq, saved.seq + 1);
        }
      }
      ASSERT_EQ(sim.PendingEvents(), ref.size());
      ASSERT_EQ(sim.events_executed(), executed);
      ASSERT_EQ(sim.events_cancelled(), cancelled);
      for (const Ref& armed : ref) {
        ASSERT_EQ(sim.TimerAt(armed.slot), armed.at);
        ASSERT_EQ(sim.TimerSeq(armed.slot), armed.seq);
      }
    }
    // Drain: the rest must fire in exact reference order.
    while (!ref.empty()) {
      const Ref want = ref.front();
      ref.erase(ref.begin());
      fired.clear();
      ASSERT_TRUE(sim.Step());
      ASSERT_EQ(sim.Now(), want.at);
      ASSERT_EQ(fired.front(), want.payload);
    }
    EXPECT_FALSE(sim.Step());
  }
}

TEST(SimulatorTest, PendingFailsALoadWithASeqAtOrAbove2To63) {
  // No run reaches 2^63 events.  A saved seq at or above it can only come
  // from a hostile image, and re-arming it could wrap the simulator's
  // counter so that later events sort ahead of earlier ones.
  const std::uint64_t limit = SnapshotIo::kSeqLimit;
  for (const std::uint64_t seq : {std::uint64_t{0}, limit - 1, limit, ~std::uint64_t{0}}) {
    SnapshotWriter w;
    w.Bool(true);
    w.Time(SimTime::Millis(3));
    w.U64(seq);
    Simulator sim;
    std::vector<std::int64_t> log;
    Owner owner(&sim, &log);
    SnapshotReader r(w);
    SnapshotIo load(&r, &sim);
    load.Timer<&Owner::Fire>(owner.slot, &owner, 5);
    const bool valid = seq < limit;
    EXPECT_EQ(r.ok(), valid) << seq;
    EXPECT_EQ(sim.PendingEvents(), valid ? 1u : 0u) << seq;
    EXPECT_EQ(sim.TimerArmed(owner.slot), valid) << seq;
    if (valid) {
      EXPECT_EQ(sim.TimerSeq(owner.slot), seq);
      sim.RunUntil(SimTime::Millis(3));
      EXPECT_EQ(log, std::vector<std::int64_t>{5});
    }
  }
}

TEST(SimulatorTest, PendingFailsALoadWithoutASimulator) {
  // An io built without a simulator has nowhere to re-arm an event.
  SnapshotWriter w;
  w.Bool(true);
  w.Time(SimTime::Millis(3));
  w.U64(0);
  Simulator sim;
  std::vector<std::int64_t> log;
  Owner owner(&sim, &log);
  SnapshotReader r(w);
  SnapshotIo load(&r);
  load.Timer<&Owner::Fire>(owner.slot, &owner);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(sim.TimerArmed(owner.slot));
}

}  // namespace
}  // namespace dcs
