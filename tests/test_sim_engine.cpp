// Unit tests: discrete-event engine and event queue.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dtnsim/sim/engine.hpp"

namespace dtnsim::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(30, [&] { order.push_back(3); });
  q.push(10, [&] { order.push_back(1); });
  q.push(20, [&] { order.push_back(2); });
  Nanos t = 0;
  while (auto fn = q.pop(&t)) fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) q.push(100, [&order, i] { order.push_back(i); });
  Nanos t = 0;
  while (auto fn = q.pop(&t)) fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NowAdvancesWithEvents) {
  Engine e;
  Nanos seen = -1;
  e.schedule(1000, [&] { seen = e.now(); });
  e.run();
  EXPECT_EQ(seen, 1000);
  EXPECT_EQ(e.events_executed(), 1u);
}

TEST(Engine, ScheduleAtAbsoluteTime) {
  Engine e;
  std::vector<Nanos> times;
  e.schedule_at(500, [&] { times.push_back(e.now()); });
  e.schedule_at(100, [&] { times.push_back(e.now()); });
  e.run();
  EXPECT_EQ(times, (std::vector<Nanos>{100, 500}));
}

TEST(Engine, NegativeDelayClampsToNow) {
  Engine e;
  e.schedule(100, [&] {
    e.schedule(-50, [&] { EXPECT_EQ(e.now(), 100); });
  });
  e.run();
}

TEST(Engine, RunUntilStopsAtHorizon) {
  Engine e;
  int fired = 0;
  e.schedule(10, [&] { ++fired; });
  e.schedule(20, [&] { ++fired; });
  e.schedule(30, [&] { ++fired; });
  e.run_until(20);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.now(), 20);
  e.run();
  EXPECT_EQ(fired, 3);
}

TEST(Engine, RunUntilAdvancesClockEvenWhenIdle) {
  Engine e;
  e.run_until(5000);
  EXPECT_EQ(e.now(), 5000);
}

TEST(Engine, SelfReschedulingChain) {
  Engine e;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 10) e.schedule(100, tick);
  };
  e.schedule(100, tick);
  e.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(e.now(), 1000);
}

TEST(Engine, EveryFiresAtExactMultiplesThroughUntil) {
  Engine e;
  std::vector<Nanos> at;
  e.every(100, 500, [&] { at.push_back(e.now()); });
  e.run();
  EXPECT_EQ(at, (std::vector<Nanos>{100, 200, 300, 400, 500}));
  EXPECT_EQ(e.events_executed(), 5u);

  // Counted from now(); an `until` between multiples stops one short of it.
  at.clear();
  e.every(100, 950, [&] { at.push_back(e.now()); });
  e.run();
  EXPECT_EQ(at, (std::vector<Nanos>{600, 700, 800, 900}));

  // A zero period is clamped to 1 ns.
  at.clear();
  e.every(0, 903, [&] { at.push_back(e.now()); });
  e.run();
  EXPECT_EQ(at, (std::vector<Nanos>{901, 902, 903}));
}

TEST(Engine, EveryNeverFiresWhenPeriodExceedsUntil) {
  Engine e;
  int fired = 0;
  e.every(600, 500, [&] { ++fired; });
  e.run_until(1000);
  e.every(100, 1050, [&] { ++fired; });
  e.run();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(e.events_executed(), 0u);
}

TEST(Engine, EveryRequeuesOnlyAfterCallbackReturns) {
  // A one-shot pushed from inside the callback for the next firing's time
  // was queued before the re-queue, so it runs first.
  Engine e;
  std::vector<std::string> log;
  // Built with += : GCC 12's -Wrestrict misfires on "P" + std::to_string().
  auto entry = [&e](std::string tag) {
    tag += std::to_string(e.now());
    return tag;
  };
  e.every(100, 200, [&] {
    log.push_back(entry("P"));
    e.schedule(100, [&] { log.push_back(entry("O")); });
  });
  e.run();
  EXPECT_EQ(log, (std::vector<std::string>{"P100", "O200", "P200", "O300"}));
}

TEST(Engine, EveryCoincidentOrderLongerPeriodFirstThenArmOrder) {
  // Armed like the fluid engine: round first, then two samplers.
  Engine e;
  std::vector<std::string> at10;
  const auto source = [&](const char* name) {
    return [&e, &at10, name] {
      if (e.now() == 10) at10.emplace_back(name);
    };
  };
  e.every(2, 10, source("round"));
  e.every(2, 10, source("ss"));
  e.every(10, 10, source("probe"));
  e.run();
  EXPECT_EQ(at10, (std::vector<std::string>{"probe", "round", "ss"}));
}

TEST(Engine, EventsScheduledInsideCallbacksRun) {
  Engine e;
  bool inner = false;
  e.schedule(10, [&] { e.schedule(10, [&] { inner = true; }); });
  e.run();
  EXPECT_TRUE(inner);
  EXPECT_EQ(e.now(), 20);
}

}  // namespace
}  // namespace dtnsim::sim
