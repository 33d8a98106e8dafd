#include "kroot_reference.hpp"

#include <algorithm>
#include <optional>

#include "netcore/error.hpp"

namespace dynaddr::atlas {

namespace {

/// The last instant <= t at which the probe was communicable, exploiting
/// that state is piecewise-constant between timeline events. Returns
/// nullopt when the probe was never communicable before t.
std::optional<net::TimePoint> last_communicable_at_or_before(
    const Timeline& timeline, const std::vector<net::TimePoint>& events,
    net::TimePoint t) {
    if (timeline.communicable(t)) return t;
    auto it = std::upper_bound(events.begin(), events.end(), t);
    while (it != events.begin()) {
        --it;
        const net::TimePoint boundary = *it;
        // The segment ending at `boundary`; sample just inside it.
        if (timeline.communicable(boundary - net::Duration::seconds(1)))
            return boundary;
    }
    return std::nullopt;
}

}  // namespace

std::vector<net::TimePoint> reference_kroot_instants(
    const Timeline& timeline, net::TimeInterval window,
    const KRootSamplingPolicy& policy) {
    if (!timeline.finalized()) throw Error("timeline must be finalized");
    if (policy.dense_cadence.count() <= 0 || policy.base_cadence.count() <= 0)
        throw Error("cadences must be positive");
    if (policy.base_cadence.count() % policy.dense_cadence.count() != 0)
        throw Error("base cadence must be a multiple of the dense cadence");

    // Merge dense windows around events.
    std::vector<net::TimeInterval> dense;
    for (net::TimePoint e : timeline.event_times()) {
        const net::TimeInterval ivl{e - policy.dense_window, e + policy.dense_window};
        if (!dense.empty() && ivl.begin <= dense.back().end)
            dense.back().end = std::max(dense.back().end, ivl.end);
        else
            dense.push_back(ivl);
    }

    // Build the emission instants: sparse grid everywhere + dense grid
    // inside dense windows. Grids are anchored at window.begin so the
    // sparse grid is a subset of the dense one.
    const std::int64_t t0 = window.begin.unix_seconds();
    const std::int64_t d = policy.dense_cadence.count();
    auto align_up = [&](net::TimePoint t) {
        std::int64_t offset = t.unix_seconds() - t0;
        if (offset < 0) offset = 0;
        return net::TimePoint{t0 + (offset + d - 1) / d * d};
    };

    std::vector<net::TimePoint> instants;
    for (net::TimePoint t = window.begin; t < window.end;
         t += policy.base_cadence)
        instants.push_back(t);
    for (const auto& ivl : dense)
        for (net::TimePoint t = align_up(ivl.begin); t < ivl.end && t < window.end;
             t += policy.dense_cadence)
            if (t >= window.begin) instants.push_back(t);
    std::sort(instants.begin(), instants.end());
    instants.erase(std::unique(instants.begin(), instants.end()), instants.end());
    return instants;
}

std::vector<KRootPingRecord> reference_kroot_records(
    const Timeline& timeline, net::TimeInterval window,
    const KRootSamplingPolicy& policy, rng::Stream rng) {
    const std::vector<net::TimePoint> instants =
        reference_kroot_instants(timeline, window, policy);
    const std::vector<net::TimePoint> events = timeline.event_times();

    std::vector<KRootPingRecord> records;
    records.reserve(instants.size());
    for (net::TimePoint t : instants) {
        if (!timeline.probe_up(t)) continue;  // no probe, no measurement
        KRootPingRecord record;
        record.probe = timeline.probe();
        record.timestamp = t;
        record.sent = 3;
        const bool reachable = timeline.communicable(t);
        if (reachable) {
            record.success = rng.bernoulli(policy.partial_loss_probability)
                                 ? int(rng.uniform_int(1, 2))
                                 : 3;
            // Synced within the last reporting interval.
            record.lts_seconds = rng.uniform_int(10, 235);
        } else {
            record.success = 0;
            auto last = last_communicable_at_or_before(timeline, events, t);
            const net::TimePoint since = last.value_or(window.begin);
            record.lts_seconds = (t - since).count() + rng.uniform_int(0, 235);
        }
        records.push_back(record);
    }
    return records;
}

}  // namespace dynaddr::atlas
