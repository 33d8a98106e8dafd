#include "atlas/cpe.hpp"

#include <gtest/gtest.h>

#include "atlas/controller.hpp"
#include "dhcp/server.hpp"
#include "netcore/error.hpp"

namespace dynaddr::atlas {
namespace {

using net::Duration;
using net::IPv4Address;
using net::IPv4Prefix;
using net::TimePoint;

/// Full CPE rig: pool + one backend + probe + timeline.
struct Rig {
    explicit Rig(CpeConfig config, std::uint64_t seed = 1)
        : sim(TimePoint{0}),
          pool(pool::PoolConfig{{IPv4Prefix::parse_or_throw("10.0.0.0/22")},
                                config.wan == CpeConfig::Wan::Dhcp
                                    ? pool::AllocationStrategy::Sticky
                                    : pool::AllocationStrategy::RandomSpread,
                                0.0,
                                0.0},
               rng::Stream(seed)),
          dhcp_server(dhcp::ServerConfig{Duration::hours(4), std::nullopt}, pool,
                      sim),
          radius(ppp::RadiusConfig{config.wan == CpeConfig::Wan::Ppp
                                       ? std::optional(Duration::hours(24))
                                       : std::nullopt},
                 pool, sim),
          datasets(bundle),
          controller(sim, rng::Stream(seed + 1), datasets),
          timeline(1),
          probe(make_probe_config(), sim, rng::Stream(seed + 2), controller,
                timeline),
          cpe(config, 1, sim, rng::Stream(seed + 3), probe, timeline,
              config.wan == CpeConfig::Wan::Dhcp ? &dhcp_server : nullptr,
              config.wan == CpeConfig::Wan::Ppp ? &radius : nullptr) {
        controller.register_probe(probe);
    }

    static ProbeConfig make_probe_config() {
        ProbeConfig config;
        config.id = 1;
        return config;
    }

    sim::Simulation sim;
    pool::AddressPool pool;
    dhcp::Server dhcp_server;
    ppp::RadiusServer radius;
    DatasetBundle bundle;
    BundleCollector datasets;
    Controller controller;
    Timeline timeline;
    Probe probe;
    Cpe cpe;
};

CpeConfig dhcp_cpe() {
    CpeConfig config;
    config.wan = CpeConfig::Wan::Dhcp;
    return config;
}

CpeConfig ppp_cpe() {
    CpeConfig config;
    config.wan = CpeConfig::Wan::Ppp;
    return config;
}

TEST(Cpe, StartBringsUpWanAndProbe) {
    Rig rig(dhcp_cpe());
    rig.cpe.start();
    EXPECT_TRUE(rig.cpe.wan_address());
    rig.sim.run_until(TimePoint{600});
    EXPECT_TRUE(rig.probe.connected());
    rig.timeline.finalize(rig.sim.now());
    ASSERT_EQ(rig.timeline.epochs().size(), 1u);
}

TEST(Cpe, RejectsMismatchedBackend) {
    Rig rig(dhcp_cpe());
    CpeConfig ppp_config = ppp_cpe();
    Timeline timeline(2);
    ProbeConfig probe_config;
    probe_config.id = 2;
    Probe probe(probe_config, rig.sim, rng::Stream(9), rig.controller, timeline);
    EXPECT_THROW(Cpe(ppp_config, 2, rig.sim, rng::Stream(10), probe, timeline,
                     &rig.dhcp_server, nullptr),
                 Error);
}

TEST(Cpe, PowerOutagePowersProbeViaUsb) {
    Rig rig(dhcp_cpe());
    rig.cpe.start();
    rig.sim.run_until(TimePoint{3600});
    rig.cpe.power_fail();
    EXPECT_FALSE(rig.cpe.powered());
    EXPECT_FALSE(rig.probe.running());
    rig.sim.run_until(TimePoint{7200});
    rig.cpe.power_restore();
    rig.sim.run_until(TimePoint{7200 + 900});
    EXPECT_TRUE(rig.probe.connected());
    rig.timeline.finalize(rig.sim.now());
    // Initial boot + power-cycle boot.
    ASSERT_EQ(rig.timeline.boots().size(), 2u);
    EXPECT_EQ(rig.timeline.boots()[1].cause, RebootCause::PowerCycle);
    // DHCP + sticky pool: same address after the cycle.
    ASSERT_EQ(rig.timeline.epochs().size(), 2u);
    EXPECT_EQ(rig.timeline.epochs()[0].address, rig.timeline.epochs()[1].address);
}

TEST(Cpe, SelfPoweredProbeSurvivesCpePowerCut) {
    auto config = dhcp_cpe();
    config.probe_usb_powered = false;
    Rig rig(config);
    rig.cpe.start();
    rig.sim.run_until(TimePoint{3600});
    rig.cpe.power_fail();
    EXPECT_TRUE(rig.probe.running()) << "own supply: probe stays up";
    rig.sim.run_until(TimePoint{4000});
    rig.cpe.power_restore();
    rig.sim.run_until(TimePoint{6000});
    rig.timeline.finalize(rig.sim.now());
    // No reboot beyond the initial one: the paper's power-outage false
    // negative scenario.
    EXPECT_EQ(rig.timeline.boots().size(), 1u);
}

TEST(Cpe, NetworkOutageRecordedAndPppRenumbers) {
    Rig rig(ppp_cpe());
    rig.cpe.start();
    rig.sim.run_until(TimePoint{3600});
    const auto before = *rig.cpe.wan_address();
    rig.cpe.net_fail();
    EXPECT_FALSE(rig.cpe.wan_address()) << "PPP session drops with carrier";
    rig.sim.run_until(TimePoint{3900});
    rig.cpe.net_restore();
    rig.sim.run_until(TimePoint{4800});
    ASSERT_TRUE(rig.cpe.wan_address());
    EXPECT_NE(*rig.cpe.wan_address(), before) << "random pool: fresh address";
    rig.timeline.finalize(rig.sim.now());
    ASSERT_EQ(rig.timeline.net_down_intervals().size(), 1u);
    EXPECT_EQ(rig.timeline.net_down_intervals()[0].begin.unix_seconds(), 3600);
}

TEST(Cpe, DhcpKeepsAddressThroughShortNetworkOutage) {
    Rig rig(dhcp_cpe());
    rig.cpe.start();
    rig.sim.run_until(TimePoint{3600});
    const auto before = *rig.cpe.wan_address();
    rig.cpe.net_fail();
    EXPECT_TRUE(rig.cpe.wan_address()) << "DHCP lease survives the blip";
    rig.sim.run_until(TimePoint{3900});
    rig.cpe.net_restore();
    rig.sim.run_until(TimePoint{90000});
    EXPECT_EQ(*rig.cpe.wan_address(), before);
    rig.timeline.finalize(rig.sim.now());
    EXPECT_EQ(rig.timeline.epochs().size(), 1u) << "one uninterrupted epoch";
}

TEST(Cpe, NightlyReconnectRenumbersAtConfiguredHour) {
    auto config = ppp_cpe();
    config.daily_reconnect_hour = 3;
    Rig rig(config);
    rig.cpe.start();
    rig.sim.run_until(TimePoint{5 * 86400});
    rig.timeline.finalize(rig.sim.now());
    const auto changes = rig.timeline.address_changes();
    ASSERT_GE(changes.size(), 4u);
    for (const auto& change : changes) {
        // Each change lands in hour 3 (+ redial seconds).
        EXPECT_EQ(change.at.hour_of_day(), 3)
            << "change at " << change.at.to_string();
    }
}

TEST(Cpe, SwitchBackendMovesSubscriberBetweenProtocols) {
    Rig rig(dhcp_cpe());
    rig.cpe.start();
    rig.sim.run_until(TimePoint{3600});
    rig.cpe.switch_backend(nullptr, &rig.radius, CpeConfig::Wan::Ppp);
    rig.sim.run_until(TimePoint{7200});
    // Same pool + same subscriber id here, so sticky allocation may hand
    // the very address back; what matters is the clean protocol handover.
    ASSERT_TRUE(rig.cpe.wan_address());
    EXPECT_EQ(rig.radius.open_sessions(), 1u);
    EXPECT_EQ(rig.dhcp_server.active_leases(), 0u) << "old lease released";
}

TEST(Cpe, PowerFailWhileBootingIsSafe) {
    Rig rig(dhcp_cpe());
    rig.cpe.start();
    rig.sim.run_until(TimePoint{3600});
    rig.cpe.power_fail();
    rig.sim.run_until(TimePoint{3700});
    rig.cpe.power_restore();
    // Cut again before the CPE boot delay elapses.
    rig.cpe.power_fail();
    rig.sim.run_until(TimePoint{4000});
    rig.cpe.power_restore();
    rig.sim.run_until(TimePoint{10000});
    EXPECT_TRUE(rig.cpe.wan_address());
    EXPECT_TRUE(rig.probe.connected());
}

}  // namespace
}  // namespace dynaddr::atlas
