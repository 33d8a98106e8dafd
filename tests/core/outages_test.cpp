#include "core/outages.hpp"

#include <gtest/gtest.h>

namespace dynaddr::core {
namespace {

using atlas::KRootPingRecord;
using atlas::PeerAddress;
using atlas::UptimeRecord;
using net::Duration;
using net::IPv4Address;
using net::TimePoint;

KRootPingRecord ping(std::int64_t at, int success, std::int64_t lts) {
    return {16893, TimePoint{at}, 3, success, lts};
}

/// The paper's Table 3: an outage from 09:05:48 to 09:21:40 on Jan 27.
std::vector<KRootPingRecord> table3_records() {
    auto t = [](int h, int m, int s) {
        return net::TimePoint::from_civil({2015, 1, 27, h, m, s}).unix_seconds();
    };
    return {
        ping(t(9, 1, 42), 3, 86),   ping(t(9, 5, 48), 0, 151),
        ping(t(9, 9, 45), 0, 388),  ping(t(9, 13, 36), 0, 619),
        ping(t(9, 17, 49), 0, 872), ping(t(9, 21, 40), 0, 1103),
        ping(t(9, 25, 39), 3, 1342), ping(t(9, 29, 36), 3, 146),
    };
}

TEST(NetworkOutages, DetectsTable3Outage) {
    const auto outages = detect_network_outages(table3_records());
    ASSERT_EQ(outages.size(), 1u);
    EXPECT_EQ(outages[0].kind, DetectedOutage::Kind::Network);
    EXPECT_EQ(outages[0].begin,
              net::TimePoint::from_civil({2015, 1, 27, 9, 5, 48}));
    EXPECT_EQ(outages[0].end,
              net::TimePoint::from_civil({2015, 1, 27, 9, 21, 40}));
}

TEST(NetworkOutages, AllLossWithoutLtsGrowthIsNotAnOutage) {
    // k-root itself unreachable but the probe still syncs with the
    // controller: LTS stays small, so no network outage.
    const std::vector<KRootPingRecord> records = {
        ping(0, 3, 100),  ping(240, 0, 120), ping(480, 0, 90),
        ping(720, 0, 110), ping(960, 3, 100),
    };
    EXPECT_TRUE(detect_network_outages(records).empty());
}

TEST(NetworkOutages, PartialLossBreaksRun) {
    const std::vector<KRootPingRecord> records = {
        ping(0, 3, 100),   ping(240, 0, 500),  ping(480, 1, 100),
        ping(720, 0, 500), ping(960, 0, 800),  ping(1200, 3, 100),
    };
    const auto outages = detect_network_outages(records);
    ASSERT_EQ(outages.size(), 2u);
    EXPECT_EQ(outages[0].begin.unix_seconds(), 240);
    EXPECT_EQ(outages[0].end.unix_seconds(), 240);
    EXPECT_EQ(outages[1].begin.unix_seconds(), 720);
    EXPECT_EQ(outages[1].end.unix_seconds(), 960);
}

TEST(NetworkOutages, EmptyAndAllHealthy) {
    EXPECT_TRUE(detect_network_outages({}).empty());
    const std::vector<KRootPingRecord> healthy = {ping(0, 3, 50), ping(240, 3, 60)};
    EXPECT_TRUE(detect_network_outages(healthy).empty());
}

TEST(NetworkOutages, MalformedCountsDoNotStallTheScan) {
    // Fault-garbled rows carry negative counts. Such a record is neither
    // skipped as healthy nor part of an all-lost run under separate tests,
    // so the scan must still move past it; it breaks a run like a healthy
    // record does.
    auto garbled = [](std::int64_t at, int sent, int success) {
        return KRootPingRecord{16893, TimePoint{at}, sent, success, 900};
    };
    const std::vector<KRootPingRecord> records = {
        ping(0, 3, 100),         garbled(240, -1, 0),  ping(480, 0, 500),
        garbled(720, 3, -2),     ping(960, 0, 700),    ping(1200, 0, 800),
        garbled(1440, -3, -3),   garbled(1680, 0, -1), ping(1920, 3, 100),
    };
    const auto outages = detect_network_outages(records);
    ASSERT_EQ(outages.size(), 2u);
    EXPECT_EQ(outages[0].begin.unix_seconds(), 480);
    EXPECT_EQ(outages[0].end.unix_seconds(), 480);
    EXPECT_EQ(outages[1].begin.unix_seconds(), 960);
    EXPECT_EQ(outages[1].end.unix_seconds(), 1200);
}

UptimeRecord uptime(std::int64_t at, std::uint64_t value) {
    return {206, TimePoint{at}, value};
}

TEST(Reboots, DetectsTable4Reset) {
    // The paper's Table 4: counter 315038 then 19 => reboot 19 s before
    // the 17:50:55 report.
    auto t = [](int h, int m, int s) {
        return net::TimePoint::from_civil({2015, 1, 1, h, m, s}).unix_seconds();
    };
    const std::vector<UptimeRecord> records = {
        uptime(t(3, 15, 18), 262531), uptime(t(17, 50, 26), 315038),
        uptime(t(17, 50, 55), 19),    uptime(t(17, 53, 59), 203),
        uptime(t(18, 59, 44), 4147),
    };
    const auto reboots = detect_reboots(records);
    ASSERT_EQ(reboots.size(), 1u);
    EXPECT_EQ(reboots[0].at,
              net::TimePoint::from_civil({2015, 1, 1, 17, 50, 36}));
}

TEST(Reboots, MonotoneCounterMeansNoReboot) {
    const std::vector<UptimeRecord> records = {uptime(0, 100), uptime(500, 600),
                                               uptime(900, 1000)};
    EXPECT_TRUE(detect_reboots(records).empty());
}

TEST(Reboots, MultipleResets) {
    const std::vector<UptimeRecord> records = {uptime(1000, 900), uptime(2000, 50),
                                               uptime(3000, 1050), uptime(5000, 10)};
    const auto reboots = detect_reboots(records);
    ASSERT_EQ(reboots.size(), 2u);
    EXPECT_EQ(reboots[0].at.unix_seconds(), 1950);
    EXPECT_EQ(reboots[1].at.unix_seconds(), 4990);
}

TEST(Firmware, SpikesDetectedAgainstMedian) {
    // 30-day window: baseline 2 probes reboot per day; days 10-12 spike to
    // 20 probes.
    std::vector<RebootInference> reboots;
    const TimePoint start = TimePoint::from_date(2015, 1, 1);
    for (int day = 0; day < 30; ++day) {
        const int count = (day >= 10 && day <= 12) ? 20 : 2;
        for (int p = 0; p < count; ++p)
            reboots.push_back(
                {atlas::ProbeId(p + 1),
                 start + Duration::days(day) + Duration::hours(1 + p % 20)});
    }
    const auto analysis = detect_firmware_spikes(
        reboots, {start, start + Duration::days(30)});
    EXPECT_DOUBLE_EQ(analysis.median_per_day, 2.0);
    ASSERT_EQ(analysis.release_days.size(), 1u);
    EXPECT_EQ(analysis.release_days[0], start + Duration::days(10));
}

TEST(Firmware, SingleSpikeDayIsIgnored) {
    std::vector<RebootInference> reboots;
    const TimePoint start = TimePoint::from_date(2015, 1, 1);
    for (int day = 0; day < 20; ++day) {
        const int count = day == 5 ? 20 : 2;
        for (int p = 0; p < count; ++p)
            reboots.push_back({atlas::ProbeId(p + 1),
                               start + Duration::days(day) + Duration::hours(1)});
    }
    const auto analysis =
        detect_firmware_spikes(reboots, {start, start + Duration::days(20)});
    EXPECT_TRUE(analysis.release_days.empty());
}

TEST(Firmware, FilterDropsFirstRebootAfterRelease) {
    const TimePoint release = TimePoint::from_date(2015, 4, 14);
    const std::vector<net::TimePoint> releases = {release};
    const std::vector<RebootInference> reboots = {
        {1, release - Duration::days(2)},   // before: kept
        {1, release + Duration::hours(5)},  // first after: dropped
        {1, release + Duration::days(2)},   // second after: kept
        {2, release + Duration::days(6)},   // probe 2's first: dropped
        {2, release + Duration::days(10)},  // outside window: kept
    };
    const auto kept = filter_firmware_reboots(reboots, releases);
    ASSERT_EQ(kept.size(), 3u);
    EXPECT_EQ(kept[0].probe, 1u);
    EXPECT_EQ(kept[0].at, release - Duration::days(2));
    EXPECT_EQ(kept[1].at, release + Duration::days(2));
    EXPECT_EQ(kept[2].probe, 2u);
}

TEST(PowerOutages, RebootWithMissingPingsIsPowerOutage) {
    // Records every 240 s, a 30-minute hole around the reboot.
    std::vector<KRootPingRecord> records;
    for (std::int64_t t = 0; t <= 3600; t += 240) records.push_back(ping(t, 3, 50));
    for (std::int64_t t = 5400; t <= 9000; t += 240) records.push_back(ping(t, 3, 50));
    const std::vector<RebootInference> reboots = {{16893, TimePoint{5300}}};
    const auto outages = detect_power_outages(reboots, records);
    ASSERT_EQ(outages.size(), 1u);
    EXPECT_EQ(outages[0].kind, DetectedOutage::Kind::Power);
    EXPECT_EQ(outages[0].begin.unix_seconds(), 3600);
    EXPECT_EQ(outages[0].end.unix_seconds(), 5400);
}

TEST(PowerOutages, RebootWithoutMissingPingsIsNotPower) {
    // Probe-only blip: records continue at full cadence around the reboot.
    std::vector<KRootPingRecord> records;
    for (std::int64_t t = 0; t <= 9000; t += 240) records.push_back(ping(t, 3, 50));
    const std::vector<RebootInference> reboots = {{16893, TimePoint{5300}}};
    EXPECT_TRUE(detect_power_outages(reboots, records).empty());
}

TEST(PowerOutages, RebootAtDataEdgeIgnored) {
    std::vector<KRootPingRecord> records = {ping(1000, 3, 50), ping(1240, 3, 50)};
    // Before the first and after the last record: no flanking pair.
    EXPECT_TRUE(detect_power_outages({{{16893, TimePoint{500}}}}, records).empty());
    EXPECT_TRUE(detect_power_outages({{{16893, TimePoint{99999}}}}, records).empty());
}

ProbeLog two_connection_log(bool change) {
    ProbeLog log;
    log.probe = 1;
    atlas::ConnectionLogEntry a;
    a.probe = 1;
    a.start = TimePoint{0};
    a.end = TimePoint{10000};
    a.address = PeerAddress::ipv4(IPv4Address(10, 0, 0, 1));
    atlas::ConnectionLogEntry b = a;
    b.start = TimePoint{11500};
    b.end = TimePoint{50000};
    if (change) b.address = PeerAddress::ipv4(IPv4Address(10, 0, 0, 2));
    log.entries = {a, b};
    return log;
}

DetectedOutage outage_at(std::int64_t begin, std::int64_t end,
                         DetectedOutage::Kind kind) {
    return {kind, 1, TimePoint{begin}, TimePoint{end}};
}

TEST(GapAttribution, PriorityNetworkOverPower) {
    const auto log = two_connection_log(true);
    const std::vector<DetectedOutage> network = {
        outage_at(10100, 10600, DetectedOutage::Kind::Network)};
    const std::vector<DetectedOutage> power = {
        outage_at(10050, 11000, DetectedOutage::Kind::Power)};
    const auto gaps = attribute_gaps(log, network, power);
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].cause, GapCause::NetworkOutage);
    EXPECT_TRUE(gaps[0].address_changed);
}

TEST(GapAttribution, PowerWhenNoNetwork) {
    const auto log = two_connection_log(false);
    const std::vector<DetectedOutage> power = {
        outage_at(10050, 11000, DetectedOutage::Kind::Power)};
    const auto gaps = attribute_gaps(log, {}, power);
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].cause, GapCause::PowerOutage);
    EXPECT_FALSE(gaps[0].address_changed);
}

TEST(GapAttribution, NoOutageGap) {
    const auto log = two_connection_log(true);
    const auto gaps = attribute_gaps(log, {}, {});
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].cause, GapCause::NoOutage);
}

TEST(GapAttribution, DistantOutageNotAssociated) {
    const auto log = two_connection_log(true);
    const std::vector<DetectedOutage> network = {
        outage_at(30000, 31000, DetectedOutage::Kind::Network)};
    const auto gaps = attribute_gaps(log, network, {});
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].cause, GapCause::NoOutage);
}

TEST(OutageOutcomes, ChangeDetectedThroughOverlap) {
    const auto log = two_connection_log(true);
    const std::vector<DetectedOutage> outages = {
        outage_at(10100, 10600, DetectedOutage::Kind::Network),
        outage_at(40000, 41000, DetectedOutage::Kind::Network)};
    const auto outcomes = outage_outcomes(log, outages);
    ASSERT_EQ(outcomes.size(), 2u);
    EXPECT_TRUE(outcomes[0].address_change);
    EXPECT_FALSE(outcomes[1].address_change) << "mid-connection outage";
}

TEST(SplitByProbe, PartitionsSortedRecords) {
    std::vector<KRootPingRecord> records;
    for (int p = 1; p <= 3; ++p)
        for (int i = 0; i < p; ++i)
            records.push_back({atlas::ProbeId(p), TimePoint{i * 240}, 3, 3, 50});
    std::vector<KRootPingRecord> storage;
    const auto split = split_kroot_by_probe(records, storage);
    ASSERT_EQ(split.size(), 3u);
    EXPECT_EQ(split.at(1).size(), 1u);
    EXPECT_EQ(split.at(2).size(), 2u);
    EXPECT_EQ(split.at(3).size(), 3u);
    EXPECT_TRUE(storage.empty()) << "sorted input is split in place";
    EXPECT_EQ(split.at(2).data(), records.data() + 1);
}

TEST(SplitByProbe, GroupsInterleavedRecordsKeepingOrder) {
    // Emission order, as a live-written bundle reads back: probes
    // interleave, each probe's own records in time order.
    std::vector<UptimeRecord> records;
    for (int i = 0; i < 4; ++i)
        for (int p = 3; p >= 1; --p)
            records.push_back({atlas::ProbeId(p), TimePoint{i * 100},
                               std::uint64_t(i)});
    std::vector<UptimeRecord> storage;
    const auto split = split_uptime_by_probe(records, storage);
    ASSERT_EQ(split.size(), 3u);
    EXPECT_EQ(storage.size(), records.size());
    for (const auto& [probe, span] : split) {
        ASSERT_EQ(span.size(), 4u) << "probe " << probe;
        for (std::size_t i = 0; i < span.size(); ++i) {
            EXPECT_EQ(span[i].probe, probe);
            EXPECT_EQ(span[i].timestamp.unix_seconds(), std::int64_t(i) * 100);
        }
    }
}

}  // namespace
}  // namespace dynaddr::core
