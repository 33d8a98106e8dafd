#include "atlas/datasets.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "netcore/error.hpp"

namespace dynaddr::atlas {
namespace {

using net::IPv4Address;
using net::TimePoint;

TEST(PeerAddress, V4RoundTrip) {
    const auto addr = PeerAddress::ipv4(IPv4Address(91, 55, 174, 103));
    EXPECT_EQ(addr.to_string(), "91.55.174.103");
    auto parsed = PeerAddress::parse("91.55.174.103");
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, addr);
    EXPECT_TRUE(parsed->is_v4());
}

TEST(PeerAddress, V6RoundTrip) {
    const auto addr = PeerAddress::ipv6_token(0xABCD1234);
    const std::string text = addr.to_string();
    EXPECT_NE(text.find(':'), std::string::npos);
    auto parsed = PeerAddress::parse(text);
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, addr);
    EXPECT_FALSE(parsed->is_v4());
}

TEST(PeerAddress, RejectsGarbage) {
    EXPECT_FALSE(PeerAddress::parse("not-an-address"));
    EXPECT_FALSE(PeerAddress::parse("1.2.3"));
    EXPECT_FALSE(PeerAddress::parse("2001:db8::zz:1"));
    EXPECT_FALSE(PeerAddress::parse(""));
}

TEST(Datasets, ConnectionLogCsvRoundTrip) {
    std::vector<ConnectionLogEntry> entries = {
        {206, TimePoint::from_date(2015, 1, 1),
         TimePoint::from_civil({2015, 1, 1, 17, 34, 11}),
         PeerAddress::ipv4(IPv4Address(91, 55, 169, 37))},
        {206, TimePoint::from_civil({2015, 1, 1, 18, 0, 54}),
         TimePoint::from_civil({2015, 1, 1, 18, 42, 31}),
         PeerAddress::ipv6_token(42)},
    };
    std::stringstream buffer;
    write_connection_log_csv(buffer, entries);
    const auto back = read_connection_log_csv(buffer);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].probe, 206u);
    EXPECT_EQ(back[0].start, entries[0].start);
    EXPECT_EQ(back[0].end, entries[0].end);
    EXPECT_EQ(back[0].address, entries[0].address);
    EXPECT_EQ(back[1].address, entries[1].address);
}

TEST(Datasets, KRootCsvRoundTrip) {
    std::vector<KRootPingRecord> records = {
        {16893, TimePoint::from_civil({2015, 1, 27, 9, 5, 48}), 3, 0, 151},
        {16893, TimePoint::from_civil({2015, 1, 27, 9, 9, 45}), 3, 3, 86},
    };
    std::stringstream buffer;
    write_kroot_csv(buffer, records);
    const auto back = read_kroot_csv(buffer);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].success, 0);
    EXPECT_EQ(back[0].lts_seconds, 151);
    EXPECT_EQ(back[1].sent, 3);
}

TEST(Datasets, UptimeCsvRoundTrip) {
    std::vector<UptimeRecord> records = {
        {206, TimePoint::from_civil({2015, 1, 1, 17, 50, 55}), 19},
    };
    std::stringstream buffer;
    write_uptime_csv(buffer, records);
    const auto back = read_uptime_csv(buffer);
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0].uptime_seconds, 19u);
}

TEST(Datasets, ProbesCsvRoundTripWithTags) {
    std::vector<ProbeMetadata> probes = {
        {1, ProbeVersion::V3, "DE", {"multihomed", "datacentre"}},
        {2, ProbeVersion::V1, "US", {}},
    };
    std::stringstream buffer;
    write_probes_csv(buffer, probes);
    const auto back = read_probes_csv(buffer);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0].tags, (std::vector<std::string>{"multihomed", "datacentre"}));
    EXPECT_EQ(back[0].version, ProbeVersion::V3);
    EXPECT_TRUE(back[1].tags.empty());
    EXPECT_EQ(back[1].version, ProbeVersion::V1);
}

TEST(Datasets, BundleSortOrdersByProbeThenTime) {
    DatasetBundle bundle;
    bundle.connection_log = {
        {2, TimePoint{100}, TimePoint{200}, PeerAddress::ipv4(IPv4Address(1, 1, 1, 1))},
        {1, TimePoint{300}, TimePoint{400}, PeerAddress::ipv4(IPv4Address(1, 1, 1, 2))},
        {1, TimePoint{100}, TimePoint{200}, PeerAddress::ipv4(IPv4Address(1, 1, 1, 3))},
    };
    bundle.kroot_pings = {{5, TimePoint{50}, 3, 3, 0}, {4, TimePoint{10}, 3, 3, 0}};
    bundle.sort();
    EXPECT_EQ(bundle.connection_log[0].probe, 1u);
    EXPECT_EQ(bundle.connection_log[0].start.unix_seconds(), 100);
    EXPECT_EQ(bundle.connection_log[1].start.unix_seconds(), 300);
    EXPECT_EQ(bundle.connection_log[2].probe, 2u);
    EXPECT_EQ(bundle.kroot_pings[0].probe, 4u);
}

/// Every field of the records, so a reordering of equal keys shows.
std::vector<std::string> rows_of(const DatasetBundle& bundle) {
    std::vector<std::string> rows;
    for (const auto& e : bundle.connection_log)
        rows.push_back("c " + std::to_string(e.probe) + ' ' + e.start.to_string() +
                       ' ' + e.end.to_string() + ' ' + e.address.to_string());
    for (const auto& r : bundle.kroot_pings)
        rows.push_back("k " + std::to_string(r.probe) + ' ' +
                       r.timestamp.to_string() + ' ' + std::to_string(r.success) +
                       ' ' + std::to_string(r.lts_seconds));
    for (const auto& r : bundle.uptime_records)
        rows.push_back("u " + std::to_string(r.probe) + ' ' +
                       r.timestamp.to_string() + ' ' +
                       std::to_string(r.uptime_seconds));
    for (const auto& p : bundle.probes)
        rows.push_back("p " + std::to_string(p.probe) + ' ' + p.country_code);
    return rows;
}

/// What a plain std::sort of each dataset gives.
DatasetBundle plainly_sorted(DatasetBundle bundle) {
    auto by_probe_time = [](const auto& a, const auto& b) {
        if (a.probe != b.probe) return a.probe < b.probe;
        return a.timestamp < b.timestamp;
    };
    std::sort(bundle.connection_log.begin(), bundle.connection_log.end(),
              [](const ConnectionLogEntry& a, const ConnectionLogEntry& b) {
                  if (a.probe != b.probe) return a.probe < b.probe;
                  return a.start < b.start;
              });
    std::sort(bundle.kroot_pings.begin(), bundle.kroot_pings.end(), by_probe_time);
    std::sort(bundle.uptime_records.begin(), bundle.uptime_records.end(),
              by_probe_time);
    std::sort(bundle.probes.begin(), bundle.probes.end(),
              [](const ProbeMetadata& a, const ProbeMetadata& b) {
                  return a.probe < b.probe;
              });
    return bundle;
}

/// `n` records of each dataset; key(i) gives record i's (probe, time).
template <typename Key>
DatasetBundle bundle_of(int n, Key key) {
    DatasetBundle bundle;
    for (int i = 0; i < n; ++i) {
        const auto [probe, at] = key(i);
        const TimePoint t{at};
        bundle.connection_log.push_back(
            {probe, t, t + net::Duration::seconds(60),
             PeerAddress::ipv4(IPv4Address(std::uint32_t(0x0A000000 + i)))});
        bundle.kroot_pings.push_back({probe, t, 3, i % 4, std::int64_t(i)});
        bundle.uptime_records.push_back({probe, t, std::uint64_t(i)});
        bundle.probes.push_back(
            {probe, ProbeVersion::V3, std::to_string(i), {}});
    }
    return bundle;
}

TEST(Datasets, BundleSortKeepsStrictlyOrderedAndSortsTheRest) {
    const int n = 600;  // past std::sort's insertion-sort cutoff
    const std::vector<std::pair<const char*, DatasetBundle>> cases = {
        {"strictly ordered", bundle_of(n, [](int i) {
             return std::pair{ProbeId(1 + i / 50), std::int64_t(i % 50) * 240};
         })},
        {"unordered", bundle_of(n, [](int i) {
             return std::pair{ProbeId(1 + (i * 7919) % 13),
                              std::int64_t((i * 104729) % 1000)};
         })},
        {"equal keys in order", bundle_of(n, [](int i) {
             return std::pair{ProbeId(1 + i / 300), std::int64_t(0)};
         })},
        {"one step back", bundle_of(n, [](int i) {
             return std::pair{ProbeId(1), std::int64_t(i == n - 1 ? 0 : i + 1)};
         })},
    };
    for (const auto& [name, input] : cases) {
        SCOPED_TRACE(name);
        DatasetBundle bundle = input;
        bundle.sort();
        EXPECT_EQ(rows_of(bundle), rows_of(plainly_sorted(input)));
    }
    // The equal-key case is only a check when std::sort really reorders
    // equal keys; then skipping merely non-decreasing input would differ.
    const DatasetBundle& equal_keys = cases[2].second;
    EXPECT_NE(rows_of(plainly_sorted(equal_keys)), rows_of(equal_keys));
    // Strictly ordered input comes back unchanged (its metadata repeats
    // probe ids, so it is left out here).
    DatasetBundle ordered = cases[0].second;
    ordered.probes.clear();
    const auto before = rows_of(ordered);
    ordered.sort();
    EXPECT_EQ(rows_of(ordered), before);
}

TEST(Datasets, BundleDirectoryRoundTrip) {
    DatasetBundle bundle;
    bundle.connection_log = {{1, TimePoint{0}, TimePoint{10},
                              PeerAddress::ipv4(IPv4Address(9, 9, 9, 9))}};
    bundle.kroot_pings = {{1, TimePoint{5}, 3, 3, 30}};
    bundle.uptime_records = {{1, TimePoint{5}, 1000}};
    bundle.probes = {{1, ProbeVersion::V2, "FR", {"home"}}};
    const std::string dir = (std::filesystem::temp_directory_path() /
                             ("dynaddr_bundle_test_" +
                              std::to_string(::getpid())))
                                .string();
    write_bundle(dir, bundle);
    const auto back = read_bundle(dir);
    EXPECT_EQ(back.connection_log.size(), 1u);
    EXPECT_EQ(back.kroot_pings.size(), 1u);
    EXPECT_EQ(back.uptime_records.size(), 1u);
    ASSERT_EQ(back.probes.size(), 1u);
    EXPECT_EQ(back.probes[0].country_code, "FR");
    std::filesystem::remove_all(dir);
}

TEST(Datasets, TestingAddressIsRipeNcc) {
    EXPECT_EQ(testing_address().to_string(), "193.0.0.78");
}

}  // namespace
}  // namespace dynaddr::atlas
