// Failure injection: the pipeline must survive hostile or corrupted
// datasets — real scrapes contain out-of-order rows, duplicates,
// overlapping connections, inverted timestamps and nonsense counters.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "atlas/binary_bundle.hpp"
#include "core/pipeline.hpp"
#include "core/streaming_pipeline.hpp"
#include "isp/presets.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"
#include "sim/faults.hpp"

namespace dynaddr::core {
namespace {

using atlas::ConnectionLogEntry;
using atlas::DatasetBundle;
using atlas::PeerAddress;
using net::Duration;
using net::IPv4Address;
using net::TimePoint;

const TimePoint kStart = TimePoint::from_date(2015, 1, 1);

ConnectionLogEntry entry(atlas::ProbeId probe, std::int64_t start_s,
                         std::int64_t end_s, const char* address) {
    ConnectionLogEntry e;
    e.probe = probe;
    e.start = kStart + Duration{start_s};
    e.end = kStart + Duration{end_s};
    e.address = PeerAddress::ipv4(IPv4Address::parse_or_throw(address));
    return e;
}

AnalysisResults run(const DatasetBundle& bundle) {
    bgp::PrefixTable table;
    table.announce_range(bgp::month_key(2015, 1), bgp::month_key(2015, 12),
                         net::IPv4Prefix::parse_or_throw("10.0.0.0/8"), 100);
    bgp::AsRegistry registry;
    AnalysisPipeline pipeline;
    return pipeline.run(bundle, table, registry);
}

TEST(Robustness, EmptyBundleThrowsCleanly) {
    DatasetBundle bundle;
    EXPECT_THROW(run(bundle), Error);
}

TEST(Robustness, OutOfOrderAndDuplicateEntries) {
    DatasetBundle bundle;
    // Shuffled order, one exact duplicate.
    bundle.connection_log = {
        entry(1, 200000, 300000, "10.0.0.2"),
        entry(1, 0, 100000, "10.0.0.1"),
        entry(1, 200000, 300000, "10.0.0.2"),  // duplicate
        entry(1, 400000, 500000, "10.0.0.3"),
    };
    const auto results = run(bundle);
    ASSERT_EQ(results.changes.size(), 1u);
    // Duplicate merges into the same run: still two changes.
    EXPECT_EQ(results.changes[0].changes.size(), 2u);
}

TEST(Robustness, InvertedAndZeroLengthConnections) {
    DatasetBundle bundle;
    auto inverted = entry(1, 100000, 50000, "10.0.0.1");  // end < start
    auto zero = entry(1, 200000, 200000, "10.0.0.2");
    bundle.connection_log = {inverted, zero, entry(1, 300000, 400000, "10.0.0.3")};
    const auto results = run(bundle);  // must not crash or hang
    EXPECT_EQ(results.filter.total(), 1);
}

TEST(Robustness, OverlappingConnections) {
    DatasetBundle bundle;
    bundle.connection_log = {
        entry(1, 0, 500000, "10.0.0.1"),
        entry(1, 100000, 200000, "10.0.0.2"),  // nested inside the first
        entry(1, 450000, 800000, "10.0.0.1"),
    };
    const auto results = run(bundle);
    ASSERT_EQ(results.changes.size(), 1u);
    // Negative-length "spans" must not poison the TTF.
    for (const auto& probe : results.periodicity.probes)
        EXPECT_GE(probe.ttf.total_hours(), 0.0);
}

TEST(Robustness, GarbageUptimeAndKrootRecords) {
    DatasetBundle bundle;
    bundle.connection_log = {entry(1, 0, 100000, "10.0.0.1"),
                             entry(1, 120000, 400000, "10.0.0.2")};
    bundle.probes = {{1, atlas::ProbeVersion::V3, "DE", {}}};
    // Uptime counter jitters wildly (clock steps, 64-bit wrap noise).
    bundle.uptime_records = {
        {1, kStart + Duration{1000}, 5000},
        {1, kStart + Duration{2000}, 0},                      // reset to 0
        {1, kStart + Duration{3000}, ~std::uint64_t{0} - 5},  // absurd value
        {1, kStart + Duration{4000}, 10},
    };
    // k-root records with sent == 0 and negative LTS.
    bundle.kroot_pings = {
        {1, kStart + Duration{1000}, 0, 0, -50},
        {1, kStart + Duration{1240}, 3, 0, -1},
        {1, kStart + Duration{1480}, 3, 3, 10},
    };
    const auto results = run(bundle);
    // sent==0 rows are not "all pings lost"; negative LTS never grows.
    for (const auto& [probe, outages] : results.network_outages)
        EXPECT_TRUE(outages.empty());
}

TEST(Robustness, ProbeWithSingleConnection) {
    DatasetBundle bundle;
    bundle.connection_log = {entry(7, 0, 1000, "10.0.0.1")};
    const auto results = run(bundle);
    EXPECT_EQ(results.filter.count(ProbeCategory::NeverChanged), 1);
    EXPECT_TRUE(results.changes.empty());
}

TEST(Robustness, CsvRejectsCorruptRows) {
    // Bad address and truncated row must throw ParseError, not UB.
    {
        std::istringstream in("probe,start,end,address\n"
                              "1,2015-01-01 00:00:00,2015-01-01 01:00:00,999.1.2.3\n");
        EXPECT_THROW(atlas::read_connection_log_csv(in), ParseError);
    }
    {
        std::istringstream in("probe,start,end,address\n"
                              "1,2015-01-01 00:00:00,bad-time,10.0.0.1\n");
        EXPECT_THROW(atlas::read_connection_log_csv(in), ParseError);
    }
    {
        std::istringstream in("probe,timestamp,sent,success,lts\n"
                              "1,2015-01-01 00:00:00,three,0,5\n");
        EXPECT_THROW(atlas::read_kroot_csv(in), ParseError);
    }
    {
        std::istringstream in("probe,version,country,tags\n"
                              "1,9,DE,\n");
        EXPECT_THROW(atlas::read_probes_csv(in), ParseError);
    }
}

TEST(Robustness, MassiveProbeIdsAndAddressEdges) {
    DatasetBundle bundle;
    bundle.connection_log = {
        entry(0xFFFFFFFF, 0, 1000, "0.0.0.0"),
        entry(0xFFFFFFFF, 2000, 3000, "255.255.255.255"),
        entry(0xFFFFFFFF, 4000, 5000, "0.0.0.0"),
        entry(0xFFFFFFFF, 6000, 7000, "255.255.255.255"),
    };
    const auto results = run(bundle);  // extreme values, no crash
    EXPECT_EQ(results.filter.total(), 1);
}

TEST(Robustness, AnalysisWindowNarrowerThanData) {
    DatasetBundle bundle;
    bundle.connection_log = {entry(1, 0, 100000, "10.0.0.1"),
                             entry(1, 200000, 40000000, "10.0.0.2"),
                             entry(1, 40100000, 40200000, "10.0.0.3")};
    bgp::PrefixTable table;
    bgp::AsRegistry registry;
    AnalysisPipeline pipeline;
    // Explicit window ending mid-data: firmware day indexing must not
    // walk off its array.
    const auto results = pipeline.run(
        bundle, table, registry,
        net::TimeInterval{kStart, kStart + Duration::days(30)});
    EXPECT_EQ(results.window.length(), Duration::days(30));
}

TEST(Robustness, GarbledBinaryBundleStreamsToTheEnd) {
    // Garbled blocks that still decode hand the pipeline nonsense
    // counters (negative sent/success pings); the analysis must get
    // through them and finish rather than spin on one record.
    namespace fs = std::filesystem;
    auto config = isp::presets::quick_scenario();
    const fs::path dir =
        fs::temp_directory_path() /
        ("dynaddr_garbled_stream_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    isp::ScenarioResult scenario;
    {
        atlas::BinaryBundleWriter writer(dir.string());
        config.bundle_sink = &writer;
        scenario = isp::run_scenario(config);
        config.bundle_sink = nullptr;
        writer.close();
    }
    auto& rejected = obs::counter("faults.binary.rows_rejected");
    const auto rejected_before = rejected.value();
    sim::ScopedFaultInjector scope(
        sim::FaultPlan::parse("garbage,csv.rate=0.01,seed=3"));
    StreamingPipeline::Options options;
    options.config.threads = 1;
    StreamingPipeline pipeline(scenario.prefix_table, scenario.registry,
                               options);
    pipeline.open(config.window);
    feed_binary_bundle(pipeline, dir.string());
    const auto results = pipeline.finish();
    fs::remove_all(dir);
    EXPECT_GT(pipeline.probes_seen(), 0u);
    EXPECT_GT(results.filter.total(), 0);
    EXPECT_GT(rejected.value(), rejected_before)
        << "the fault plan garbled nothing; the test no longer exercises "
           "garbled input";
}

}  // namespace
}  // namespace dynaddr::core
