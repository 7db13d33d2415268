#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/sim/arena.h"
#include "src/sim/rng.h"
#include "tests/support/lambda_events.h"

namespace dcs {
namespace {

using testing::LambdaEvents;

// An event that does nothing.
constexpr EventFn kNop{[](void*, std::int64_t) {}, nullptr, 0};

TEST(EventQueueTest, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.Empty());
  EXPECT_EQ(q.Size(), 0u);
}

TEST(EventQueueTest, PushPopSingle) {
  EventQueue q;
  LambdaEvents ev;
  bool fired = false;
  q.Push(SimTime::Millis(5), ev.Make([&] { fired = true; }));
  ASSERT_FALSE(q.Empty());
  EXPECT_EQ(q.NextTime(), SimTime::Millis(5));
  auto entry = q.Pop();
  EXPECT_EQ(entry.at, SimTime::Millis(5));
  entry.fn();
  EXPECT_TRUE(fired);
  EXPECT_TRUE(q.Empty());
}

struct Counter {
  std::int64_t total = 0;
  void Add(std::int64_t n) { total += n; }
  void Bump() { ++total; }
};

TEST(EventQueueTest, EventCallsItsOwnersHandler) {
  // A record names a member and the object it runs on; a handler that takes
  // an argument gets the record's aux word.
  EventQueue q;
  Counter a;
  Counter b;
  q.Push(SimTime::Millis(1), EventFn::Of<&Counter::Add>(&a, 40));
  q.Push(SimTime::Millis(2), EventFn::Of<&Counter::Bump>(&b));
  q.Push(SimTime::Millis(3), EventFn::Of<&Counter::Add>(&a, 2));
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(a.total, 42);
  EXPECT_EQ(b.total, 1);
}

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.Push(SimTime::Millis(30), kNop);
  q.Push(SimTime::Millis(10), kNop);
  q.Push(SimTime::Millis(20), kNop);
  EXPECT_EQ(q.Pop().at, SimTime::Millis(10));
  EXPECT_EQ(q.Pop().at, SimTime::Millis(20));
  EXPECT_EQ(q.Pop().at, SimTime::Millis(30));
}

TEST(EventQueueTest, SimultaneousEventsFifo) {
  EventQueue q;
  LambdaEvents ev;
  std::vector<int> order;
  const SimTime t = SimTime::Millis(1);
  q.Push(t, ev.Make([&] { order.push_back(1); }));
  q.Push(t, ev.Make([&] { order.push_back(2); }));
  q.Push(t, ev.Make([&] { order.push_back(3); }));
  while (!q.Empty()) {
    q.Pop().fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, CancelPendingEvent) {
  EventQueue q;
  const EventId id = q.Push(SimTime::Millis(1), kNop);
  EXPECT_TRUE(q.Cancel(id));
  EXPECT_TRUE(q.Empty());
  // Double-cancel reports false.
  EXPECT_FALSE(q.Cancel(id));
}

TEST(EventQueueTest, CancelledEventSkippedByPop) {
  EventQueue q;
  LambdaEvents ev;
  bool fired_a = false;
  bool fired_b = false;
  const EventId a = q.Push(SimTime::Millis(1), ev.Make([&] { fired_a = true; }));
  q.Push(SimTime::Millis(2), ev.Make([&] { fired_b = true; }));
  q.Cancel(a);
  ASSERT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.NextTime(), SimTime::Millis(2));
  q.Pop().fn();
  EXPECT_FALSE(fired_a);
  EXPECT_TRUE(fired_b);
}

TEST(EventQueueTest, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.Cancel(999));
  EXPECT_FALSE(q.Cancel(kInvalidEventId));
}

TEST(EventQueueTest, IdsAreUniqueAndNeverReused) {
  EventQueue q;
  const EventId a = q.Push(SimTime::Millis(1), kNop);
  q.Pop();
  const EventId b = q.Push(SimTime::Millis(1), kNop);
  EXPECT_NE(a, b);
}

TEST(EventQueueTest, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  const EventId a = q.Push(SimTime::Millis(1), kNop);
  q.Push(SimTime::Millis(2), kNop);
  EXPECT_EQ(q.Size(), 2u);
  q.Cancel(a);
  EXPECT_EQ(q.Size(), 1u);
}

TEST(EventQueueTest, ManyEventsStressOrdering) {
  EventQueue q;
  for (int i = 999; i >= 0; --i) {
    q.Push(SimTime::Micros(i * 7 % 500), kNop);
  }
  SimTime last;
  while (!q.Empty()) {
    const SimTime t = q.Pop().at;
    EXPECT_GE(t, last);
    last = t;
  }
}

TEST(EventQueueTest, MillionCancelsKeepQueueStorageBounded) {
  // Regression for the unbounded-storage hazard: a workload that cancels
  // almost everything it schedules (timeouts that rarely fire) must not
  // leave anything behind per cancel.  An arena never frees, so any growth
  // of the queue's arrays shows in allocated_bytes(): after the first round
  // has sized them for 64 live events, it must never move again.
  Arena arena;
  EventQueue q(&arena);
  Rng rng(0xC0FFEEu);
  std::vector<EventId> pending;
  std::size_t cancelled = 0;
  std::size_t bytes_after_first_round = 0;
  while (cancelled < 1'000'000) {
    // Keep ~64 live events and cancel everything else before it fires.
    while (pending.size() < 64) {
      pending.push_back(
          q.Push(SimTime::Micros(rng.UniformInt(0, 1'000'000)), kNop));
    }
    (void)q.NextTime();
    for (int i = 0; i < 48; ++i) {
      const std::size_t victim =
          static_cast<std::size_t>(rng.UniformInt(0, static_cast<std::int64_t>(pending.size()) - 1));
      ASSERT_TRUE(q.Cancel(pending[victim]));
      pending[victim] = pending.back();
      pending.pop_back();
      ++cancelled;
    }
    if (bytes_after_first_round == 0) {
      bytes_after_first_round = arena.allocated_bytes();
      ASSERT_GT(bytes_after_first_round, 0u);
    }
    ASSERT_EQ(arena.allocated_bytes(), bytes_after_first_round)
        << "after " << cancelled << " cancels";
    ASSERT_EQ(q.Size(), pending.size());
  }
  EXPECT_EQ(q.Size(), pending.size());
}

// Reference model for the differential test: a sorted vector ordered by
// (time, push sequence), the queue's documented pop order.
struct RefModel {
  struct Ev {
    SimTime at;
    std::uint64_t seq;
    EventId id;
    int payload;
  };
  std::vector<Ev> events;  // kept sorted by (at, seq)
  std::uint64_t next_seq = 0;

  void Push(SimTime at, EventId id, int payload) {
    const Ev ev{at, next_seq++, id, payload};
    const auto pos = std::upper_bound(
        events.begin(), events.end(), ev, [](const Ev& a, const Ev& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
    events.insert(pos, ev);
  }
  bool Cancel(EventId id) {
    const auto it = std::find_if(events.begin(), events.end(),
                                 [id](const Ev& e) { return e.id == id; });
    if (it == events.end()) {
      return false;
    }
    events.erase(it);
    return true;
  }
  Ev Pop() {
    const Ev front = events.front();
    events.erase(events.begin());
    return front;
  }
};

TEST(EventQueueTest, RandomizedDifferentialAgainstSortedVector) {
  // Drives random push/cancel/pop/cancel-all interleavings against the
  // reference model above and demands identical observable behaviour: sizes,
  // pop order (including FIFO tie-breaks — times are drawn from a tiny range
  // so ties are common), which callback fired, and cancel return values for
  // live, popped and cancelled ids.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    EventQueue q;
    LambdaEvents ev;
    RefModel ref;
    Rng rng(seed);
    std::vector<EventId> stale;  // ids no longer live: must all Cancel()==false
    std::vector<int> fired;
    int next_payload = 0;
    for (int step = 0; step < 20'000; ++step) {
      const std::int64_t r = rng.UniformInt(0, 99);
      if (r < 45 || ref.events.empty()) {
        const SimTime at = SimTime::Micros(rng.UniformInt(0, 15));
        const int payload = next_payload++;
        const EventId id =
            q.Push(at, ev.Make([&fired, payload] { fired.push_back(payload); }));
        ref.Push(at, id, payload);
      } else if (r < 70) {
        const std::size_t victim = static_cast<std::size_t>(
            rng.UniformInt(0, static_cast<std::int64_t>(ref.events.size()) - 1));
        const EventId id = ref.events[victim].id;
        ASSERT_TRUE(ref.Cancel(id));
        ASSERT_TRUE(q.Cancel(id)) << "step " << step << " seed " << seed;
        stale.push_back(id);
      } else if (r < 95) {
        const RefModel::Ev want = ref.Pop();
        ASSERT_EQ(q.NextTime(), want.at) << "step " << step << " seed " << seed;
        auto entry = q.Pop();
        ASSERT_EQ(entry.at, want.at) << "step " << step << " seed " << seed;
        ASSERT_EQ(entry.id, want.id) << "step " << step << " seed " << seed;
        fired.clear();
        entry.fn();
        ASSERT_EQ(fired, std::vector<int>{want.payload});
        stale.push_back(entry.id);
      } else if (r < 98) {
        if (!stale.empty()) {
          const std::size_t i = static_cast<std::size_t>(rng.UniformInt(
              0, static_cast<std::int64_t>(stale.size()) - 1));
          EXPECT_FALSE(q.Cancel(stale[i]));
        }
      } else {
        for (const RefModel::Ev& ev : ref.events) {
          ASSERT_TRUE(q.Cancel(ev.id)) << "step " << step << " seed " << seed;
          stale.push_back(ev.id);
        }
        ref.events.clear();
      }
      ASSERT_EQ(q.Size(), ref.events.size());
      ASSERT_EQ(q.Empty(), ref.events.empty());
    }
    // Drain: the remaining pops must come out in exact reference order.
    while (!ref.events.empty()) {
      const RefModel::Ev want = ref.Pop();
      auto entry = q.Pop();
      ASSERT_EQ(entry.at, want.at);
      ASSERT_EQ(entry.id, want.id);
    }
    EXPECT_TRUE(q.Empty());
  }
}

TEST(EventQueueTest, CancelThenReuseSlot) {
  // Cancelled events free their slots at once; the next push reuses one.
  // The stale ids must keep failing even though the slot is live again.
  EventQueue q;
  const EventId a = q.Push(SimTime::Millis(1), kNop);
  const EventId b = q.Push(SimTime::Millis(2), kNop);
  ASSERT_TRUE(q.Cancel(b));
  ASSERT_TRUE(q.Cancel(a));
  const EventId c = q.Push(SimTime::Millis(3), kNop);
  EXPECT_FALSE(q.Cancel(a));
  EXPECT_FALSE(q.Cancel(b));
  EXPECT_EQ(q.Size(), 1u);
  EXPECT_EQ(q.Pop().id, c);
  EXPECT_TRUE(q.Empty());
}

}  // namespace
}  // namespace dcs
