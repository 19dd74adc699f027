// Unit tests for the discrete-event engine, RNG, stream seeds, periodic tasks.
#include "sim/engine.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/rng.h"

namespace phoenix::sim {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_seconds(30 * kSecond), 30.0);
  EXPECT_EQ(from_seconds(2.5), 2'500'000u);
  EXPECT_EQ(from_seconds(0.0), 0u);
}

TEST(TimeTest, FormatDuration) {
  EXPECT_EQ(format_duration(348), "348us");
  EXPECT_EQ(format_duration(2 * kMillisecond), "2.00ms");
  EXPECT_EQ(format_duration(30 * kSecond), "30.00s");
  EXPECT_EQ(format_duration(32'320'000), "32.32s");
}

TEST(EngineTest, StartsAtTimeZero) {
  Engine engine;
  EXPECT_EQ(engine.now(), 0u);
  EXPECT_EQ(engine.pending(), 0u);
  EXPECT_FALSE(engine.step());
}

TEST(EngineTest, ExecutesInTimeOrder) {
  Engine engine;
  std::vector<int> order;
  engine.schedule_at(300, [&] { order.push_back(3); });
  engine.schedule_at(100, [&] { order.push_back(1); });
  engine.schedule_at(200, [&] { order.push_back(2); });
  engine.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(engine.now(), 300u);
}

TEST(EngineTest, TiesBreakFifo) {
  Engine engine;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    engine.schedule_at(50, [&order, i] { order.push_back(i); });
  }
  engine.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EngineTest, ScheduleAfterUsesCurrentTime) {
  Engine engine;
  SimTime observed = 0;
  engine.schedule_at(100, [&] {
    engine.schedule_after(50, [&] { observed = engine.now(); });
  });
  engine.run();
  EXPECT_EQ(observed, 150u);
}

TEST(EngineTest, PastScheduleClampsToNow) {
  Engine engine;
  engine.schedule_at(100, [] {});
  engine.run();
  SimTime when = kNever;
  engine.schedule_at(10, [&] { when = engine.now(); });  // in the past
  engine.run();
  EXPECT_EQ(when, 100u);
}

TEST(EngineTest, CancelPreventsExecution) {
  Engine engine;
  bool fired = false;
  const EventId id = engine.schedule_at(100, [&] { fired = true; });
  EXPECT_TRUE(engine.cancel(id));
  engine.run();
  EXPECT_FALSE(fired);
  EXPECT_FALSE(engine.cancel(id));  // already cancelled
}

TEST(EngineTest, CancelInvalidIdReturnsFalse) {
  Engine engine;
  EXPECT_FALSE(engine.cancel(EventId{}));
  EXPECT_FALSE(engine.cancel(EventId{999}));
}

TEST(EngineTest, RunUntilAdvancesClockExactly) {
  Engine engine;
  int fired = 0;
  engine.schedule_at(100, [&] { ++fired; });
  engine.schedule_at(200, [&] { ++fired; });
  engine.schedule_at(300, [&] { ++fired; });
  EXPECT_EQ(engine.run_until(250), 2u);
  EXPECT_EQ(engine.now(), 250u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(engine.run_until(1000), 1u);
  EXPECT_EQ(engine.now(), 1000u);
}

TEST(EngineTest, RunForIsRelative) {
  Engine engine;
  engine.run_until(500);
  int fired = 0;
  engine.schedule_after(100, [&] { ++fired; });
  engine.run_for(100);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(engine.now(), 600u);
}

TEST(EngineTest, MaxEventsLimit) {
  Engine engine;
  int fired = 0;
  for (int i = 0; i < 10; ++i) engine.schedule_at(static_cast<SimTime>(i), [&] { ++fired; });
  EXPECT_EQ(engine.run(3), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(EngineTest, EventsScheduledDuringRunAreExecuted) {
  Engine engine;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) engine.schedule_after(10, recurse);
  };
  engine.schedule_after(10, recurse);
  engine.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(engine.now(), 50u);
}

TEST(EngineTest, ExecutedCounterCounts) {
  Engine engine;
  for (int i = 0; i < 7; ++i) engine.schedule_at(static_cast<SimTime>(i), [] {});
  engine.run();
  EXPECT_EQ(engine.executed(), 7u);
}

TEST(PeriodicTaskTest, FiresAtPeriod) {
  Engine engine;
  std::vector<SimTime> fires;
  PeriodicTask task(engine, 100, [&] { fires.push_back(engine.now()); });
  task.start();
  engine.run_until(350);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 300}));
}

TEST(PeriodicTaskTest, StartAfterCustomInitialDelay) {
  Engine engine;
  std::vector<SimTime> fires;
  PeriodicTask task(engine, 100, [&] { fires.push_back(engine.now()); });
  task.start_after(5);
  engine.run_until(215);
  EXPECT_EQ(fires, (std::vector<SimTime>{5, 105, 205}));
}

TEST(PeriodicTaskTest, StopFromOutside) {
  Engine engine;
  int count = 0;
  PeriodicTask task(engine, 100, [&] { ++count; });
  task.start();
  engine.run_until(250);
  task.stop();
  engine.run_until(1000);
  EXPECT_EQ(count, 2);
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTaskTest, StopFromInsideTick) {
  Engine engine;
  int count = 0;
  PeriodicTask task(engine, 100, [&] {
    if (++count == 3) task.stop();
  });
  task.start();
  engine.run_until(10'000);
  EXPECT_EQ(count, 3);
}

TEST(PeriodicTaskTest, RestartResetsPhase) {
  Engine engine;
  std::vector<SimTime> fires;
  PeriodicTask task(engine, 100, [&] { fires.push_back(engine.now()); });
  task.start();
  engine.run_until(150);  // fired at 100
  task.start_after(30);   // re-arm: next at 180
  engine.run_until(300);  // fires at 180, 280
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 180, 280}));
}

TEST(PeriodicTaskTest, SetPeriodTakesEffectOnNextArm) {
  Engine engine;
  std::vector<SimTime> fires;
  PeriodicTask task(engine, 100, [&] { fires.push_back(engine.now()); });
  task.start();
  // The tick at t=100 re-arms itself with the old period before we change
  // it, so the new 50-tick cadence begins after the t=200 tick.
  engine.run_until(100);
  task.set_period(50);
  engine.run_until(300);
  EXPECT_EQ(fires, (std::vector<SimTime>{100, 200, 250, 300}));
}

TEST(PeriodicTaskTest, DestructorCancelsCleanly) {
  Engine engine;
  int count = 0;
  {
    PeriodicTask task(engine, 100, [&] { ++count; });
    task.start();
    engine.run_until(150);
  }
  engine.run_until(1000);
  EXPECT_EQ(count, 1);
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(3);
  EXPECT_EQ(rng.uniform_int(42, 42), 42u);
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng rng(4);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.exponential(10.0);
  EXPECT_NEAR(sum / n, 10.0, 0.5);
}

TEST(RngTest, NormalMoments) {
  Rng rng(5);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = rng.normal(3.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(StreamSeedTest, DerivationIsPure) {
  EXPECT_EQ(derive_stream_seed(42, 3), derive_stream_seed(42, 3));
  EXPECT_EQ(derive_stream_seed(0, 0), derive_stream_seed(0, 0));
}

TEST(StreamSeedTest, AdjacentStreamsDiverge) {
  // Child seeds differ, and the streams they seed do not overlap in their
  // first draws (the practical "independence" separate consumers need).
  const std::uint64_t root = 0x1234;
  for (std::uint64_t a = 0; a < 8; ++a) {
    for (std::uint64_t b = a + 1; b < 8; ++b) {
      ASSERT_NE(derive_stream_seed(root, a), derive_stream_seed(root, b));
      Rng ra(derive_stream_seed(root, a));
      Rng rb(derive_stream_seed(root, b));
      bool all_equal = true;
      for (int i = 0; i < 16; ++i) {
        if (ra.next() != rb.next()) all_equal = false;
      }
      ASSERT_FALSE(all_equal) << "streams " << a << " and " << b << " collide";
    }
  }
}

TEST(StreamSeedTest, DifferentRootsGiveDifferentStreams) {
  EXPECT_NE(derive_stream_seed(1, 0), derive_stream_seed(2, 0));
}

}  // namespace
}  // namespace phoenix::sim
