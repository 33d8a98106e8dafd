#include "atlas/kroot.hpp"

#include <algorithm>
#include <optional>

#include "netcore/error.hpp"

namespace dynaddr::atlas {

namespace {

void validate(const Timeline& timeline, const KRootSamplingPolicy& policy) {
    if (!timeline.finalized()) throw Error("timeline must be finalized");
    if (policy.dense_cadence.count() <= 0 || policy.base_cadence.count() <= 0)
        throw Error("cadences must be positive");
    if (policy.base_cadence.count() % policy.dense_cadence.count() != 0)
        throw Error("base cadence must be a multiple of the dense cadence");
}

/// The windows `[e - dense_window, e + dense_window)` around the sorted
/// event times, merged where they touch or overlap.
std::vector<net::TimeInterval> dense_windows(
    const std::vector<net::TimePoint>& events, const KRootSamplingPolicy& policy) {
    std::vector<net::TimeInterval> dense;
    for (net::TimePoint e : events) {
        const net::TimeInterval ivl{e - policy.dense_window, e + policy.dense_window};
        if (!dense.empty() && ivl.begin <= dense.back().end)
            dense.back().end = std::max(dense.back().end, ivl.end);
        else
            dense.push_back(ivl);
    }
    return dense;
}

/// The sampling grid `begin + k * step` clipped to the window. Both grids
/// are anchored at the window start, so the sparse one is a subset of the
/// dense one.
struct Grid {
    std::int64_t begin;
    std::int64_t end;

    /// Grid points of cadence `step` in [a, b) ∩ [begin, end).
    [[nodiscard]] std::int64_t points(net::TimePoint a, net::TimePoint b,
                                      std::int64_t step) const {
        const std::int64_t lo = std::max(a.unix_seconds(), begin) - begin;
        const std::int64_t hi = std::min(b.unix_seconds(), end) - begin;
        if (hi <= lo) return 0;
        return (hi + step - 1) / step - (lo + step - 1) / step;
    }
};

const net::TimeInterval& span_of(const net::TimeInterval& ivl) { return ivl; }
const net::TimeInterval& span_of(const AddressEpoch& epoch) { return epoch.when; }

/// "Is t inside one of these intervals?" for non-decreasing t. The
/// timeline keeps each interval list sorted and disjoint, so the interval
/// that can contain t is the first one ending after it, and that index
/// only moves forward: amortised O(1) per query.
template <typename T>
class IntervalCursor {
public:
    explicit IntervalCursor(const std::vector<T>& items) : items_(items) {}

    bool contains(net::TimePoint t) {
        while (next_ < items_.size() && span_of(items_[next_]).end <= t) ++next_;
        return next_ < items_.size() && span_of(items_[next_]).begin <= t;
    }

private:
    const std::vector<T>& items_;
    std::size_t next_ = 0;
};

}  // namespace

std::size_t kroot_instant_count(const Timeline& timeline,
                                net::TimeInterval window,
                                const KRootSamplingPolicy& policy) {
    validate(timeline, policy);
    const Grid grid{window.begin.unix_seconds(), window.end.unix_seconds()};
    const std::int64_t dense_step = policy.dense_cadence.count();
    const std::int64_t sparse_step = policy.base_cadence.count();
    // Sparse points everywhere, plus the dense points of each (disjoint)
    // merged window that are not already sparse points.
    std::int64_t count = grid.points(window.begin, window.end, sparse_step);
    for (const auto& ivl : dense_windows(timeline.event_times(), policy))
        count += grid.points(ivl.begin, ivl.end, dense_step) -
                 grid.points(ivl.begin, ivl.end, sparse_step);
    return std::size_t(count);
}

void emit_kroot_records(const Timeline& timeline, net::TimeInterval window,
                        const KRootSamplingPolicy& policy, rng::Stream rng,
                        BundleSink& out) {
    validate(timeline, policy);
    const std::vector<net::TimePoint> events = timeline.event_times();
    const std::vector<net::TimeInterval> dense = dense_windows(events, policy);

    IntervalCursor probe_down(timeline.probe_down_intervals());
    IntervalCursor net_down(timeline.net_down_intervals());
    IntervalCursor epochs(timeline.epochs());
    // Every query below is at a non-decreasing time, as the cursors need:
    // for an instant t after t_prev, each event e in (t_prev, t] is asked
    // about at e - 1 s >= t_prev first, then t itself.
    auto reachable = [&](net::TimePoint t) {
        return !net_down.contains(t) && epochs.contains(t);
    };

    // The last event e <= t with the probe communicable just before it
    // (at e - 1 s): when an ongoing loss of connectivity began.
    std::size_t next_event = 0;
    std::optional<net::TimePoint> lost_at;
    const net::Duration one_second = net::Duration::seconds(1);

    auto sample = [&](net::TimePoint t) {
        for (; next_event < events.size() && events[next_event] <= t; ++next_event) {
            const net::TimePoint before = events[next_event] - one_second;
            if (!probe_down.contains(before) && reachable(before))
                lost_at = events[next_event];
        }
        if (probe_down.contains(t)) return;  // no probe, no measurement
        KRootPingRecord record;
        record.probe = timeline.probe();
        record.timestamp = t;
        record.sent = 3;
        if (reachable(t)) {
            record.success = rng.bernoulli(policy.partial_loss_probability)
                                 ? int(rng.uniform_int(1, 2))
                                 : 3;
            // Synced within the last reporting interval.
            record.lts_seconds = rng.uniform_int(10, 235);
        } else {
            record.success = 0;
            const net::TimePoint since = lost_at.value_or(window.begin);
            record.lts_seconds = (t - since).count() + rng.uniform_int(0, 235);
        }
        out.add_kroot(record);
    };

    // Walk the dense grid, visiting a point when it lies on the sparse grid
    // or inside the current merged dense window, and jumping straight to
    // the next such point otherwise. The sparse grid is a subset of the
    // dense one and no step passes `next_sparse`, so t meets every sparse
    // point exactly.
    const std::int64_t t0 = window.begin.unix_seconds();
    const std::int64_t dense_step = policy.dense_cadence.count();
    const std::int64_t sparse_step = policy.base_cadence.count();
    std::int64_t next_sparse = t0;
    std::size_t next_dense = 0;
    for (std::int64_t t = t0; t < window.end.unix_seconds();) {
        while (next_dense < dense.size() &&
               dense[next_dense].end.unix_seconds() <= t)
            ++next_dense;
        const bool in_dense = next_dense < dense.size() &&
                              dense[next_dense].begin.unix_seconds() <= t;
        const bool on_sparse = t == next_sparse;
        if (on_sparse) next_sparse += sparse_step;
        if (in_dense || on_sparse) sample(net::TimePoint{t});
        if (in_dense) {
            t += dense_step;
            continue;
        }
        std::int64_t next = next_sparse;
        if (next_dense < dense.size()) {
            // The window starts after t; its first dense grid point.
            const std::int64_t offset = dense[next_dense].begin.unix_seconds() - t0;
            next = std::min(next, t0 + (offset + dense_step - 1) / dense_step *
                                           dense_step);
        }
        t = next;
    }
}

}  // namespace dynaddr::atlas
