#include <gtest/gtest.h>

#include <vector>

#include "src/sim/co.h"
#include "src/sim/condition.h"
#include "src/sim/resource.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"

namespace calliope {
namespace {

TEST(SimulatorTest, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.ScheduleAt(SimTime::Millis(20), [&] { order.push_back(2); });
  sim.ScheduleAt(SimTime::Millis(10), [&] { order.push_back(1); });
  sim.ScheduleAt(SimTime::Millis(30), [&] { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), SimTime::Millis(30));
}

TEST(SimulatorTest, EqualTimesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.ScheduleAt(SimTime::Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
  }
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadlineWhenQueueDrains) {
  Simulator sim;
  sim.ScheduleAt(SimTime::Millis(1), [] {});
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_EQ(sim.Now(), SimTime::Seconds(5));
}

TEST(SimulatorTest, RunUntilDoesNotFireLaterEvents) {
  Simulator sim;
  bool fired = false;
  sim.ScheduleAt(SimTime::Seconds(10), [&] { fired = true; });
  sim.RunUntil(SimTime::Seconds(5));
  EXPECT_FALSE(fired);
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelledEventDoesNotFire) {
  Simulator sim;
  bool fired = false;
  EventToken token = sim.ScheduleCancelableAt(SimTime::Millis(1), [&] { fired = true; });
  token.Cancel();
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StaleTokenCancelDoesNotKillSlotReuser) {
  // Cancellation slots recycle once their event fires; a stale token held
  // past that point sees a generation mismatch and must not cancel whatever
  // event reused the slot.
  Simulator sim;
  bool first_fired = false;
  bool second_fired = false;
  EventToken stale = sim.ScheduleCancelableAt(SimTime::Millis(1), [&] { first_fired = true; });
  sim.Run();
  EXPECT_TRUE(first_fired);
  EventToken reuser = sim.ScheduleCancelableAt(SimTime::Millis(2), [&] { second_fired = true; });
  EXPECT_TRUE(reuser.valid());
  stale.Cancel();
  sim.Run();
  EXPECT_TRUE(second_fired);
}

TEST(SimulatorTest, CancelTwiceViaCopyCountsOnce) {
  Simulator sim;
  bool fired = false;
  EventToken token = sim.ScheduleCancelableAt(SimTime::Millis(1), [&] { fired = true; });
  EventToken copy = token;
  token.Cancel();
  copy.Cancel();  // generation already bumped: a no-op, not a double count
  EXPECT_EQ(sim.cancelled_pending(), 1);
  sim.Run();
  EXPECT_FALSE(fired);
  // The cancelled event drained through the queue as a no-op and left the
  // pending count balanced.
  EXPECT_EQ(sim.cancelled_pending(), 0);
}

TEST(SimulatorTest, LazyPurgeSweepsCancelledBacklog) {
  // The schedule/cancel/reschedule timer pattern (flow-mode page sleeps)
  // parks cancelled events in the queue; once they dominate, the lazy purge
  // sweeps them without disturbing live events.
  Simulator sim;
  int fired = 0;
  std::vector<EventToken> tokens;
  tokens.reserve(100);
  for (int i = 0; i < 100; ++i) {
    tokens.push_back(
        sim.ScheduleCancelableAt(SimTime::Millis(10 + i), [&] { ++fired; }));
  }
  for (int i = 1; i < 100; ++i) {
    tokens[static_cast<size_t>(i)].Cancel();
  }
  // The sweep ran at least once mid-loop: far fewer than 99 still parked.
  EXPECT_LT(sim.cancelled_pending(), 99);
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.cancelled_pending(), 0);
}

TEST(SimulatorTest, NestedSchedulingFromCallback) {
  Simulator sim;
  int count = 0;
  sim.ScheduleAt(SimTime::Millis(1), [&] {
    ++count;
    sim.ScheduleAfter(SimTime::Millis(1), [&] { ++count; });
  });
  sim.Run();
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), SimTime::Millis(2));
}

Task DelayTwice(Simulator& sim, std::vector<int64_t>& wakeups) {
  co_await sim.Delay(SimTime::Millis(5));
  wakeups.push_back(sim.Now().millis());
  co_await sim.Delay(SimTime::Millis(7));
  wakeups.push_back(sim.Now().millis());
}

TEST(TaskTest, DelayResumesAtRightTimes) {
  Simulator sim;
  std::vector<int64_t> wakeups;
  DelayTwice(sim, wakeups);
  sim.Run();
  EXPECT_EQ(wakeups, (std::vector<int64_t>{5, 12}));
}

Task WaitOnCondition(Simulator& sim, Condition& cond, int& wakes) {
  co_await cond.Wait();
  ++wakes;
  co_await cond.Wait();
  ++wakes;
}

TEST(ConditionTest, NotifyAllWakesEveryWaiterOnce) {
  Simulator sim;
  Condition cond(sim);
  int wakes = 0;
  WaitOnCondition(sim, cond, wakes);
  WaitOnCondition(sim, cond, wakes);
  sim.Run();
  EXPECT_EQ(wakes, 0);
  cond.NotifyAll();
  sim.Run();
  EXPECT_EQ(wakes, 2);  // each waiter woke once, re-waited
  cond.NotifyAll();
  sim.Run();
  EXPECT_EQ(wakes, 4);
}

TEST(ConditionTest, NotifyOneWakesSingleWaiter) {
  Simulator sim;
  Condition cond(sim);
  int wakes = 0;
  WaitOnCondition(sim, cond, wakes);
  WaitOnCondition(sim, cond, wakes);
  sim.Run();
  cond.NotifyOne();
  sim.Run();
  EXPECT_EQ(wakes, 1);
}

TEST(ConditionTest, DestroyingConditionWithWaitersDoesNotLeakOrCrash) {
  Simulator sim;
  Condition* cond = new Condition(sim);
  int wakes = 0;
  WaitOnCondition(sim, *cond, wakes);
  sim.Run();
  delete cond;  // parked frame destroyed here
  EXPECT_EQ(wakes, 0);
}

Task UseResource(Simulator& sim, Resource& res, SimTime service, std::vector<int64_t>& done) {
  co_await res.Use(service);
  done.push_back(sim.Now().millis());
}

TEST(ResourceTest, ServesFifoSerially) {
  Simulator sim;
  Resource res(sim, "r");
  std::vector<int64_t> done;
  UseResource(sim, res, SimTime::Millis(10), done);
  UseResource(sim, res, SimTime::Millis(5), done);
  UseResource(sim, res, SimTime::Millis(1), done);
  sim.Run();
  EXPECT_EQ(done, (std::vector<int64_t>{10, 15, 16}));
  EXPECT_EQ(res.completed(), 3);
}

TEST(ResourceTest, TracksUtilization) {
  Simulator sim;
  Resource res(sim, "r");
  res.Submit(SimTime::Millis(30), [] {});
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_NEAR(res.Utilization(), 0.3, 1e-9);
  EXPECT_EQ(res.BusyTime(), SimTime::Millis(30));
}

TEST(ResourceTest, UtilizationCountsInProgressWork) {
  Simulator sim;
  Resource res(sim, "r");
  res.Submit(SimTime::Millis(100), [] {});
  sim.RunUntil(SimTime::Millis(50));
  EXPECT_NEAR(res.Utilization(), 1.0, 1e-9);
}

Task AcquireSem(Simulator& sim, Semaphore& sem, int& holders) {
  co_await sem.Acquire();
  ++holders;
}

TEST(SemaphoreTest, LimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int holders = 0;
  AcquireSem(sim, sem, holders);
  AcquireSem(sim, sem, holders);
  AcquireSem(sim, sem, holders);
  sim.Run();
  EXPECT_EQ(holders, 2);
  sem.Release();
  sim.Run();
  EXPECT_EQ(holders, 3);
}

TEST(SemaphoreTest, ReleaseWithNoWaitersIncrementsCount) {
  Simulator sim;
  Semaphore sem(sim, 0);
  sem.Release();
  EXPECT_EQ(sem.count(), 1);
  EXPECT_TRUE(sem.TryAcquire());
  EXPECT_FALSE(sem.TryAcquire());
}

Co<int> AddAfterDelay(Simulator& sim, int a, int b) {
  co_await sim.Delay(SimTime::Millis(3));
  co_return a + b;
}

Co<int> Doubler(Simulator& sim, int x) {
  const int sum = co_await AddAfterDelay(sim, x, x);
  co_return sum * 2;
}

Task RunCoChain(Simulator& sim, int& result) {
  result = co_await Doubler(sim, 10);
}

TEST(CoTest, NestedCoChainsPropagateValues) {
  Simulator sim;
  int result = 0;
  RunCoChain(sim, result);
  sim.Run();
  EXPECT_EQ(result, 40);
  EXPECT_EQ(sim.Now(), SimTime::Millis(3));
}

Co<void> SleepCo(Simulator& sim, SimTime d) { co_await sim.Delay(d); }

Task DeepChain(Simulator& sim, int& progress) {
  for (int i = 0; i < 100; ++i) {
    co_await SleepCo(sim, SimTime::Millis(1));
    ++progress;
  }
}

TEST(CoTest, AbandonedChainIsReclaimedBySimulatorTeardown) {
  int progress = 0;
  {
    Simulator sim;
    DeepChain(sim, progress);
    sim.RunUntil(SimTime::Millis(50));  // mid-flight: 50 iterations done
  }
  // Simulator destroyed with the chain parked; ASAN/valgrind would flag leaks.
  EXPECT_EQ(progress, 50);
}

TEST(CoTest, AbandonedResourceWaitersAreReclaimed) {
  std::vector<int64_t> done;
  {
    Simulator sim;
    Resource res(sim, "r");
    UseResource(sim, res, SimTime::Seconds(10), done);
    UseResource(sim, res, SimTime::Seconds(10), done);
    sim.RunUntil(SimTime::Seconds(1));
  }
  EXPECT_TRUE(done.empty());
}

}  // namespace
}  // namespace calliope
