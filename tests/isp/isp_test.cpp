#include <gtest/gtest.h>

#include "atlas/controller.hpp"
#include "dhcp/server.hpp"
#include "isp/outage_model.hpp"
#include "isp/presets.hpp"
#include "netcore/error.hpp"

namespace dynaddr::isp {
namespace {

using net::Duration;
using net::TimeInterval;
using net::TimePoint;

TimeInterval year() {
    return {TimePoint::from_date(2015, 1, 1), TimePoint::from_date(2016, 1, 1)};
}

/// Minimal CPE target for outage scheduling (the injector only needs the
/// four fail/restore entry points, exercised via a real Cpe in
/// integration tests; here we only check the schedule itself).
struct ScheduleProbe {
    sim::Simulation sim{TimePoint::from_date(2015, 1, 1)};
};

TEST(OutageModel, RatesRoughlyMatchConfiguration) {
    OutageRates rates;
    rates.power_per_year = 10.0;
    rates.net_per_year = 20.0;
    // Aggregate over many schedules for a stable mean.
    int power = 0, net = 0;
    const int trials = 60;
    for (int i = 0; i < trials; ++i) {
        ScheduleProbe probe;
        // A dummy CPE is required by the signature; build a tiny real one.
        pool::AddressPool pool(
            pool::PoolConfig{{net::IPv4Prefix::parse_or_throw("10.0.0.0/24")},
                             pool::AllocationStrategy::Sticky, 0.0, 0.0},
            rng::Stream(1));
        dhcp::Server server({}, pool, probe.sim);
        atlas::DatasetBundle bundle;
        atlas::BundleCollector datasets(bundle);
        atlas::Controller controller(probe.sim, rng::Stream(2), datasets);
        atlas::Timeline timeline(1);
        atlas::ProbeConfig probe_config;
        probe_config.id = 1;
        atlas::Probe device(probe_config, probe.sim, rng::Stream(3), controller,
                            timeline);
        atlas::CpeConfig cpe_config;
        atlas::Cpe cpe(cpe_config, 1, probe.sim, rng::Stream(4), device,
                       timeline, &server, nullptr);
        const auto planned = schedule_outages(probe.sim, cpe, rates, year(),
                                              rng::Stream(std::uint64_t(i)));
        for (const auto& outage : planned)
            (outage.kind == PlannedOutage::Kind::Power ? power : net)++;
    }
    EXPECT_NEAR(power / double(trials), 10.0, 1.5);
    EXPECT_NEAR(net / double(trials), 20.0, 2.5);
}

TEST(OutageModel, SameKindOutagesNeverOverlapAndStayInWindow) {
    OutageRates rates;
    rates.power_per_year = 40.0;
    rates.net_per_year = 40.0;
    rates.short_fraction = 0.3;  // plenty of long ones
    ScheduleProbe probe;
    pool::AddressPool pool(
        pool::PoolConfig{{net::IPv4Prefix::parse_or_throw("10.0.0.0/24")},
                         pool::AllocationStrategy::Sticky, 0.0, 0.0},
        rng::Stream(1));
    dhcp::Server server({}, pool, probe.sim);
    atlas::DatasetBundle bundle;
    atlas::BundleCollector datasets(bundle);
    atlas::Controller controller(probe.sim, rng::Stream(2), datasets);
    atlas::Timeline timeline(1);
    atlas::ProbeConfig probe_config;
    probe_config.id = 1;
    atlas::Probe device(probe_config, probe.sim, rng::Stream(3), controller,
                        timeline);
    atlas::Cpe cpe({}, 1, probe.sim, rng::Stream(4), device, timeline, &server,
                   nullptr);
    const auto planned =
        schedule_outages(probe.sim, cpe, rates, year(), rng::Stream(77));
    ASSERT_GT(planned.size(), 30u);
    net::TimePoint last_power_end = year().begin;
    net::TimePoint last_net_end = year().begin;
    for (const auto& outage : planned) {
        EXPECT_GE(outage.when.begin, year().begin);
        EXPECT_LE(outage.when.end, year().end);
        EXPECT_LT(outage.when.begin, outage.when.end);
        auto& last_end = outage.kind == PlannedOutage::Kind::Power
                             ? last_power_end
                             : last_net_end;
        EXPECT_GE(outage.when.begin, last_end) << "same-kind overlap";
        last_end = outage.when.end;
    }
    // Duration cap honoured.
    for (const auto& outage : planned)
        EXPECT_LE(outage.when.length(), rates.max_duration);
}

TEST(OutageModel, MixtureCoversShortAndLongBins) {
    OutageRates rates;
    rates.power_per_year = 120.0;
    rates.net_per_year = 120.0;
    ScheduleProbe probe;
    pool::AddressPool pool(
        pool::PoolConfig{{net::IPv4Prefix::parse_or_throw("10.0.0.0/24")},
                         pool::AllocationStrategy::Sticky, 0.0, 0.0},
        rng::Stream(1));
    dhcp::Server server({}, pool, probe.sim);
    atlas::DatasetBundle bundle;
    atlas::BundleCollector datasets(bundle);
    atlas::Controller controller(probe.sim, rng::Stream(2), datasets);
    atlas::Timeline timeline(1);
    atlas::ProbeConfig probe_config;
    probe_config.id = 1;
    atlas::Probe device(probe_config, probe.sim, rng::Stream(3), controller,
                        timeline);
    atlas::Cpe cpe({}, 1, probe.sim, rng::Stream(4), device, timeline, &server,
                   nullptr);
    const auto planned =
        schedule_outages(probe.sim, cpe, rates, year(), rng::Stream(5));
    int sub_10m = 0, over_6h = 0;
    for (const auto& outage : planned) {
        if (outage.when.length() < Duration::minutes(10)) ++sub_10m;
        if (outage.when.length() > Duration::hours(6)) ++over_6h;
    }
    EXPECT_GT(sub_10m, 20) << "short blips populate Figure 9's left bins";
    EXPECT_GT(over_6h, 5) << "long-tail outages populate the right bins";
}

TEST(Presets, ScenarioSubsetsAreSelfConsistent) {
    const auto outage = presets::outage_scenario();
    EXPECT_GE(outage.isps.size(), 10u);
    ASSERT_TRUE(outage.kroot.has_value());
    for (const auto& isp : outage.isps)
        for (const auto& cohort : isp.cohorts)
            EXPECT_GE(cohort.outages.power_per_year +
                          cohort.outages.net_per_year,
                      20.0)
                << isp.name << " must clear the >=3-outages bar";

    const auto quick = presets::quick_scenario();
    EXPECT_LT(quick.window.length().count(), 100 * 86400);
    EXPECT_EQ(quick.isps.size(), 4u);
}

TEST(Presets, PaperWorldPeriodicIspsHavePeriodicCohorts) {
    const auto world = presets::paper_world();
    auto has_period = [&](std::uint32_t asn, double hours) {
        for (const auto& isp : world) {
            if (isp.asn != asn) continue;
            for (const auto& cohort : isp.cohorts)
                if (cohort.session_timeout &&
                    cohort.session_timeout->to_hours() == hours)
                    return true;
        }
        return false;
    };
    EXPECT_TRUE(has_period(3215, 168.0));  // Orange
    EXPECT_TRUE(has_period(3320, 24.0));   // DTAG
    EXPECT_TRUE(has_period(2856, 337.0));  // BT
    EXPECT_TRUE(has_period(6057, 12.0));   // ANTEL
    EXPECT_TRUE(has_period(5617, 22.0));   // Orange Polska
    EXPECT_TRUE(has_period(5617, 24.0));
    EXPECT_TRUE(has_period(12714, 47.0));  // Net by Net
}

TEST(Scenario, ValidatesBrokenSpecs) {
    ScenarioConfig config;
    config.window = {TimePoint::from_date(2015, 1, 1),
                     TimePoint::from_date(2015, 2, 1)};
    IspSpec bad;
    bad.asn = 0;
    bad.name = "NoAsn";
    bad.pool_prefixes = {net::IPv4Prefix::parse_or_throw("10.0.0.0/24")};
    bad.announced_prefixes = {net::IPv4Prefix::parse_or_throw("10.0.0.0/16")};
    bad.cohorts = {Cohort{}};
    config.isps = {bad};
    EXPECT_THROW(run_scenario(config), Error);

    config.isps[0].asn = 1;
    config.isps[0].announced_prefixes.clear();  // pool not covered
    EXPECT_THROW(run_scenario(config), Error);

    config.isps[0].announced_prefixes = {
        net::IPv4Prefix::parse_or_throw("10.0.0.0/16")};
    AdminRenumbering event;
    event.when = TimePoint::from_date(2015, 1, 15);
    event.retire_pool_index = 0;
    event.enable_pool_index = 0;  // same index: invalid
    config.isps[0].admin_events = {event};
    EXPECT_THROW(run_scenario(config), Error);
}

}  // namespace
}  // namespace dynaddr::isp
