#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include "netcore/error.hpp"

namespace dynaddr::sim {
namespace {

using net::Duration;
using net::TimePoint;

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue queue(TimePoint{0});
    std::vector<int> order;
    queue.schedule(TimePoint{30}, [&](TimePoint) { order.push_back(3); });
    queue.schedule(TimePoint{10}, [&](TimePoint) { order.push_back(1); });
    queue.schedule(TimePoint{20}, [&](TimePoint) { order.push_back(2); });
    while (queue.run_next()) {
    }
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesRunFifo) {
    EventQueue queue(TimePoint{0});
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        queue.schedule(TimePoint{100}, [&, i](TimePoint) { order.push_back(i); });
    while (queue.run_next()) {
    }
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelRemovesPending) {
    EventQueue queue(TimePoint{0});
    int fired = 0;
    const EventId id = queue.schedule(TimePoint{10}, [&](TimePoint) { ++fired; });
    queue.schedule(TimePoint{20}, [&](TimePoint) { ++fired; });
    EXPECT_TRUE(queue.cancel(id));
    EXPECT_FALSE(queue.cancel(id));  // already cancelled
    while (queue.run_next()) {
    }
    EXPECT_EQ(fired, 1);
}

TEST(EventQueue, NextTimeReflectsEarliest) {
    EventQueue queue(TimePoint{0});
    EXPECT_FALSE(queue.next_time());
    queue.schedule(TimePoint{50}, [](TimePoint) {});
    queue.schedule(TimePoint{5}, [](TimePoint) {});
    ASSERT_TRUE(queue.next_time());
    EXPECT_EQ(queue.next_time()->unix_seconds(), 5);
}

TEST(Simulation, ClockAdvancesWithEvents) {
    Simulation sim(TimePoint{0});
    std::vector<std::int64_t> seen;
    sim.after(Duration{10}, [&](TimePoint t) { seen.push_back(t.unix_seconds()); });
    sim.after(Duration{5}, [&](TimePoint t) {
        seen.push_back(t.unix_seconds());
        EXPECT_EQ(sim.now().unix_seconds(), 5);
    });
    sim.run_until(TimePoint{100});
    EXPECT_EQ(seen, (std::vector<std::int64_t>{5, 10}));
    EXPECT_EQ(sim.now().unix_seconds(), 100);
    EXPECT_EQ(sim.executed(), 2u);
}

TEST(Simulation, EventsCanScheduleEvents) {
    Simulation sim(TimePoint{0});
    int depth = 0;
    std::function<void(TimePoint)> recur = [&](TimePoint) {
        if (++depth < 5) sim.after(Duration{1}, recur);
    };
    sim.after(Duration{1}, recur);
    sim.run_until(TimePoint{100});
    EXPECT_EQ(depth, 5);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
    Simulation sim(TimePoint{0});
    int fired = 0;
    sim.at(TimePoint{10}, [&](TimePoint) { ++fired; });
    sim.at(TimePoint{20}, [&](TimePoint) { ++fired; });
    sim.run_until(TimePoint{15});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.now().unix_seconds(), 15);
    sim.run_until(TimePoint{20});  // inclusive boundary
    EXPECT_EQ(fired, 2);
}

TEST(Simulation, RejectsPastScheduling) {
    Simulation sim(TimePoint{100});
    EXPECT_THROW(sim.at(TimePoint{99}, [](TimePoint) {}), Error);
    EXPECT_THROW(sim.after(Duration{-1}, [](TimePoint) {}), Error);
    EXPECT_NO_THROW(sim.at(TimePoint{100}, [](TimePoint) {}));
}

TEST(Simulation, CancelWorksThroughFacade) {
    Simulation sim(TimePoint{0});
    int fired = 0;
    const EventId id = sim.after(Duration{10}, [&](TimePoint) { ++fired; });
    EXPECT_TRUE(sim.cancel(id));
    sim.run_all();
    EXPECT_EQ(fired, 0);
}

TEST(Simulation, RunAllDrainsEverything) {
    Simulation sim(TimePoint{0});
    int fired = 0;
    for (int i = 1; i <= 10; ++i)
        sim.after(Duration{i}, [&](TimePoint) { ++fired; });
    EXPECT_EQ(sim.run_all(), 10u);
    EXPECT_EQ(fired, 10);
    EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace dynaddr::sim
