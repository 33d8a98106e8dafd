// Differential test of the k-root sweep emitter against the per-instant
// reference (kroot_reference.cpp): on hand-built edge cases, on random
// finalized timelines and on the timelines of a fault-injected scenario,
// both must emit the same records in the same order (which also pins the
// rng draw sequence), and kroot_instant_count must equal the reference's
// instant count.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "atlas/kroot.hpp"
#include "isp/presets.hpp"
#include "kroot_reference.hpp"
#include "sim/faults.hpp"

namespace dynaddr::atlas {
namespace {

using net::Duration;
using net::TimeInterval;
using net::TimePoint;

const TimePoint kT0 = TimePoint::from_date(2015, 3, 1);

PeerAddress v4(std::uint32_t host) {
    return PeerAddress::ipv4(net::IPv4Address{0x0A000000u + host});
}

KRootSamplingPolicy policy_of(std::int64_t dense, std::int64_t base,
                              std::int64_t half_window, double loss = 0.3) {
    KRootSamplingPolicy policy;
    policy.dense_cadence = Duration::seconds(dense);
    policy.base_cadence = Duration::seconds(base);
    policy.dense_window = Duration::seconds(half_window);
    policy.partial_loss_probability = loss;
    return policy;
}

std::string describe(const KRootPingRecord& r) {
    std::ostringstream out;
    out << "probe " << r.probe << " t " << r.timestamp.unix_seconds()
        << " sent " << r.sent << " success " << r.success << " lts "
        << r.lts_seconds;
    return out.str();
}

/// Sweep vs reference, record for record, plus the instant count. Returns
/// the record count so callers can check a case is not vacuous.
std::size_t expect_matches_reference(const Timeline& timeline,
                                     TimeInterval window,
                                     const KRootSamplingPolicy& policy,
                                     std::uint64_t seed) {
    const auto expected =
        reference_kroot_records(timeline, window, policy, rng::Stream(seed));
    DatasetBundle bundle;
    bundle.kroot_pings.push_back(KRootPingRecord{});  // appends after what is there
    BundleCollector collector(bundle);
    emit_kroot_records(timeline, window, policy, rng::Stream(seed), collector);
    const std::vector<KRootPingRecord>& actual = bundle.kroot_pings;
    EXPECT_EQ(actual.size(), expected.size() + 1);
    for (std::size_t i = 0; i < expected.size() && i + 1 < actual.size(); ++i) {
        const std::string want = describe(expected[i]);
        const std::string got = describe(actual[i + 1]);
        if (want != got) {
            ADD_FAILURE() << "record " << i << ": sweep " << got
                          << ", reference " << want;
            break;
        }
    }
    EXPECT_EQ(kroot_instant_count(timeline, window, policy),
              reference_kroot_instants(timeline, window, policy).size());
    return expected.size();
}

TEST(KRootSweep, ProbeDownAtWindowStart) {
    const TimeInterval window{kT0, kT0 + Duration::days(1)};
    for (const std::int64_t down_from : {-3600, 0}) {
        Timeline timeline(7);
        timeline.set_address(kT0 - Duration::hours(2), v4(1));
        timeline.probe_down_begin(kT0 + Duration::seconds(down_from));
        timeline.probe_down_end(kT0 + Duration::seconds(1000));
        timeline.record_boot(kT0 + Duration::seconds(1000),
                             RebootCause::PowerCycle);
        timeline.finalize(window.end);
        EXPECT_GT(expect_matches_reference(timeline, window,
                                           policy_of(240, 3600, 960), 1),
                  0u);
        EXPECT_GT(expect_matches_reference(timeline, window,
                                           policy_of(240, 240, 960), 2),
                  0u);
    }
}

TEST(KRootSweep, NeverCommunicableProbe) {
    const TimeInterval window{kT0, kT0 + Duration::days(2)};
    // No address ever: every record is all-lost, with LTS measured from
    // the window start.
    Timeline no_address(8);
    no_address.net_down_begin(kT0 + Duration::hours(5));
    no_address.net_down_end(kT0 + Duration::hours(6));
    no_address.finalize(window.end);
    EXPECT_GT(expect_matches_reference(no_address, window,
                                       policy_of(240, 7200, 2700), 3),
              0u);
    // An address, but the network is down the whole time.
    Timeline net_down(9);
    net_down.net_down_begin(kT0 - Duration::hours(1));
    net_down.set_address(kT0, v4(2));
    net_down.finalize(window.end);
    EXPECT_GT(expect_matches_reference(net_down, window,
                                       policy_of(240, 7200, 2700), 4),
              0u);
}

TEST(KRootSweep, EventsExactlyOnGridPoints) {
    const TimeInterval window{kT0, kT0 + Duration::days(1)};
    Timeline timeline(10);
    timeline.set_address(kT0, v4(3));
    // Every boundary sits on the dense grid, several on the sparse one.
    timeline.net_down_begin(kT0 + Duration::seconds(3600));
    timeline.net_down_end(kT0 + Duration::seconds(3600 + 240));
    timeline.clear_address(kT0 + Duration::seconds(7200));
    timeline.set_address(kT0 + Duration::seconds(7200 + 480), v4(4));
    timeline.probe_down_begin(kT0 + Duration::seconds(14400));
    timeline.record_boot(kT0 + Duration::seconds(14400),
                         RebootCause::Firmware);
    timeline.probe_down_end(kT0 + Duration::seconds(14400 + 240));
    timeline.set_address(kT0 + Duration::seconds(21600), v4(5));
    timeline.finalize(window.end);
    for (const std::int64_t half_window : {0, 240, 960})
        EXPECT_GT(expect_matches_reference(timeline, window,
                                           policy_of(240, 3600, half_window), 5),
                  0u);
}

TEST(KRootSweep, DenseWindowsCrossBothWindowEdges) {
    const TimeInterval window{kT0, kT0 + Duration::hours(10)};
    Timeline timeline(11);
    timeline.set_address(kT0 - Duration::seconds(300), v4(6));
    timeline.net_down_begin(kT0 + Duration::seconds(100));
    timeline.net_down_end(kT0 + Duration::seconds(700));
    timeline.net_down_begin(window.end - Duration::seconds(500));
    timeline.net_down_end(window.end + Duration::seconds(900));
    timeline.finalize(window.end + Duration::hours(1));
    EXPECT_GT(expect_matches_reference(timeline, window,
                                       policy_of(240, 3600, 1800), 6),
              0u);
    // A window that is all dense: one merged window covers both edges.
    EXPECT_GT(expect_matches_reference(timeline, window,
                                       policy_of(240, 7200, 40000), 7),
              0u);
}

TEST(KRootSweep, BaseCadenceEqualsDenseCadence) {
    const TimeInterval window{kT0, kT0 + Duration::days(1)};
    Timeline timeline(12);
    timeline.set_address(kT0, v4(7));
    timeline.net_down_begin(kT0 + Duration::seconds(40001));
    timeline.net_down_end(kT0 + Duration::seconds(42407));
    timeline.finalize(window.end);
    const std::size_t records = expect_matches_reference(
        timeline, window, policy_of(240, 240, 960), 8);
    EXPECT_EQ(records, 86400u / 240u);
}

TEST(KRootSweep, EmptyAndUnalignedWindows) {
    Timeline timeline(13);
    timeline.set_address(kT0, v4(8));
    timeline.finalize(kT0 + Duration::days(1));
    EXPECT_EQ(expect_matches_reference(timeline, {kT0, kT0},
                                       policy_of(240, 3600, 960), 9),
              0u);
    // A window end that is not on the grid.
    EXPECT_GT(expect_matches_reference(
                  timeline, {kT0 + Duration::seconds(17), kT0 + Duration::seconds(9001)},
                  policy_of(240, 960, 960), 10),
              0u);
}

/// A random finalized timeline around `window`: builder calls at
/// non-decreasing times (the Timeline contract), some on grid points, some
/// repeated at the same instant, some before or after the window.
Timeline random_timeline(rng::Stream& rng, ProbeId probe, TimeInterval window,
                         std::int64_t dense_cadence) {
    Timeline timeline(probe);
    const std::int64_t span = (window.end - window.begin).count();
    TimePoint t = window.begin - Duration::seconds(rng.uniform_int(0, span / 4 + 1));
    const int actions = int(rng.uniform_int(0, 40));
    for (int i = 0; i < actions; ++i) {
        switch (rng.uniform_int(0, 3)) {
            case 0: break;  // same instant as the previous action
            case 1: {       // snap to the next dense grid point
                const std::int64_t offset = (t - window.begin).count();
                const std::int64_t step = dense_cadence;
                const std::int64_t next =
                    offset < 0 ? -(-offset / step) * step
                               : (offset + step - 1) / step * step;
                t = window.begin + Duration::seconds(next);
                break;
            }
            default:
                t = t + Duration::seconds(rng.uniform_int(1, span / 8 + 2));
        }
        switch (rng.uniform_int(0, 7)) {
            case 0: timeline.set_address(t, v4(std::uint32_t(rng.uniform_int(1, 3)))); break;
            case 1: timeline.clear_address(t); break;
            case 2: timeline.probe_down_begin(t); break;
            case 3: timeline.probe_down_end(t); break;
            case 4: timeline.net_down_begin(t); break;
            case 5: timeline.net_down_end(t); break;
            case 6: timeline.record_boot(t, RebootCause::PowerCycle); break;
            default: timeline.set_address(t, v4(std::uint32_t(rng.uniform_int(1, 3))));
        }
    }
    const TimePoint end = std::max(
        t, window.end + Duration::seconds(rng.uniform_int(-span / 8, span / 8)));
    timeline.finalize(end);
    return timeline;
}

TEST(KRootSweep, RandomTimelinesMatchReference) {
    rng::Stream rng(20260801);
    const std::int64_t dense_cadences[] = {60, 240, 300};
    const std::int64_t multiples[] = {1, 2, 3, 15};
    const std::int64_t half_windows[] = {0, 60, 250, 960, 2700, 20000};
    const double losses[] = {0.0, 0.002, 0.5, 1.0};
    std::size_t records = 0;
    for (int trial = 0; trial < 600; ++trial) {
        const std::int64_t dense = dense_cadences[rng.uniform_int(0, 2)];
        const std::int64_t base = dense * multiples[rng.uniform_int(0, 3)];
        const auto policy = policy_of(dense, base, half_windows[rng.uniform_int(0, 5)],
                                      losses[rng.uniform_int(0, 3)]);
        const TimePoint begin = kT0 + Duration::seconds(rng.uniform_int(0, 86400));
        const TimeInterval window{begin,
                                  begin + Duration::seconds(rng.uniform_int(0, 4 * 86400))};
        const Timeline timeline =
            random_timeline(rng, ProbeId(trial), window, dense);
        SCOPED_TRACE("trial " + std::to_string(trial));
        records += expect_matches_reference(timeline, window, policy,
                                            std::uint64_t(trial));
        if (HasFailure()) break;
    }
    EXPECT_GT(records, 10000u);
}

TEST(KRootSweep, ScenarioTimelinesMatchReference) {
    // Real timelines, with fault-injected power storms and outages, under
    // the outage preset's thinned policy and under full cadence.
    auto config = isp::presets::quick_scenario();
    config.faults = sim::FaultPlan::parse("chaos,seed=7");
    const auto scenario = isp::run_scenario(config);
    ASSERT_FALSE(scenario.timelines.empty());
    const auto thinned = *isp::presets::outage_scenario().kroot;
    std::size_t records = 0;
    for (const auto& timeline : scenario.timelines) {
        SCOPED_TRACE("probe " + std::to_string(timeline.probe()));
        records += expect_matches_reference(timeline, config.window, thinned,
                                            timeline.probe());
        records += expect_matches_reference(timeline, config.window,
                                            *config.kroot, timeline.probe());
        if (HasFailure()) break;
    }
    EXPECT_GT(records, 0u);
}

}  // namespace
}  // namespace dynaddr::atlas
