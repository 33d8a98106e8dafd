#include "sim/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/progress.hpp"
#include "netcore/obs/timeseries.hpp"

namespace dynaddr::sim {

namespace {
struct SimMetrics {
    /// Rate-worthy twin of the end-of-run `scenario.sim_events` total:
    /// incremented per event so the time-series recorder can chart event
    /// throughput over simulated time.
    obs::Counter& executed = obs::counter("sim.events_executed");
};
SimMetrics& sim_metrics() {
    static SimMetrics metrics;
    return metrics;
}
}  // namespace

Simulation::Simulation(net::TimePoint start) : now_(start), queue_(start) {
    obs::push_sim_clock(&now_);
    // Live observability: while this simulation exists, time-series
    // samples follow simulated time. The tick is a pure observer (it only
    // reads metric atomics), so its interleaving cannot perturb the world.
    auto& recorder = obs::SeriesRecorder::instance();
    if (recorder.enabled()) {
        recorder.sim_attached();
        series_attached_ = true;
        const auto period = net::Duration::seconds(std::max<std::int64_t>(
            1, std::llround(recorder.config().interval_seconds)));
        queue_.schedule_every(start + period, period, [](net::TimePoint t) {
            obs::SeriesRecorder::instance().sample(
                double(t.unix_seconds()));
        });
    }
}

Simulation::~Simulation() {
    if (series_attached_) obs::SeriesRecorder::instance().sim_detached();
    obs::pop_sim_clock(&now_);
}

EventId Simulation::at(net::TimePoint when, EventQueue::Callback callback) {
    if (when < now_)
        throw Error("scheduling event in the past: " + when.to_string() +
                    " < " + now_.to_string());
    return queue_.schedule(when, std::move(callback));
}

EventId Simulation::after(net::Duration delay, EventQueue::Callback callback) {
    if (delay < net::Duration{0}) throw Error("negative event delay");
    return queue_.schedule(now_ + delay, std::move(callback));
}

EventId Simulation::every(net::TimePoint first, net::Duration period,
                          EventQueue::Callback callback) {
    if (first < now_)
        throw Error("scheduling periodic event in the past: " +
                    first.to_string() + " < " + now_.to_string());
    return queue_.schedule_every(first, period, std::move(callback));
}

std::uint64_t Simulation::run_until(net::TimePoint end) {
    std::uint64_t ran = 0;
    // Peeking no further than `end` keeps the wheel cursor at or before
    // the clock this leaves behind, so later at(now()) stays on the fast
    // path.
    while (auto next = queue_.next_time_until(end)) {
        now_ = *next;
        queue_.run_next();
        ++ran;
        ++executed_;
        // Per-event (not bulk at return) so recorder ticks that fire
        // mid-run see a moving count — the series is a real rate.
        sim_metrics().executed.inc();
        // Progress watermarks for /top: two relaxed stores per event.
        obs::progress_note_sim_time(now_);
        obs::progress_note_events(executed_);
    }
    if (end > now_) now_ = end;
    return ran;
}

std::uint64_t Simulation::run_all() {
    std::uint64_t ran = 0;
    while (auto next = queue_.next_time()) {
        now_ = *next;
        queue_.run_next();
        ++ran;
        ++executed_;
        sim_metrics().executed.inc();
        obs::progress_note_sim_time(now_);
        obs::progress_note_events(executed_);
    }
    return ran;
}

}  // namespace dynaddr::sim
