#include <gtest/gtest.h>

#include <algorithm>

#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "isp/presets.hpp"
#include "netcore/obs/metrics.hpp"
#include "sim/faults.hpp"

namespace dynaddr {
namespace {

using core::ProbeCategory;

/// One shared quick-scenario run for all tests in this file (the sim takes
/// ~100 ms; results are immutable).
class QuickScenario : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        config_ = new isp::ScenarioConfig(isp::presets::quick_scenario());
        scenario_ = new isp::ScenarioResult(isp::run_scenario(*config_));
        core::AnalysisPipeline pipeline;
        results_ = new core::AnalysisResults(
            pipeline.run(scenario_->bundle, scenario_->prefix_table,
                         scenario_->registry, config_->window));
    }
    static void TearDownTestSuite() {
        delete results_;
        delete scenario_;
        delete config_;
    }

    static isp::ScenarioConfig* config_;
    static isp::ScenarioResult* scenario_;
    static core::AnalysisResults* results_;
};

isp::ScenarioConfig* QuickScenario::config_ = nullptr;
isp::ScenarioResult* QuickScenario::scenario_ = nullptr;
core::AnalysisResults* QuickScenario::results_ = nullptr;

TEST_F(QuickScenario, DeterministicAcrossRuns) {
    const auto again = isp::run_scenario(*config_);
    ASSERT_EQ(again.bundle.connection_log.size(),
              scenario_->bundle.connection_log.size());
    for (std::size_t i = 0; i < again.bundle.connection_log.size(); i += 37) {
        EXPECT_EQ(again.bundle.connection_log[i].start,
                  scenario_->bundle.connection_log[i].start);
        EXPECT_EQ(again.bundle.connection_log[i].address,
                  scenario_->bundle.connection_log[i].address);
    }
    EXPECT_EQ(again.bundle.kroot_pings.size(),
              scenario_->bundle.kroot_pings.size());
}

TEST_F(QuickScenario, SpecialProbesAreFilteredCorrectly) {
    // Every special probe must land in a non-analyzable category.
    for (const auto& truth : scenario_->truths) {
        if (!truth.special) continue;
        const auto category = results_->filter.category.at(truth.probe);
        EXPECT_NE(category, ProbeCategory::Analyzable)
            << "special probe " << truth.probe << " leaked into analysis";
    }
    // Counts match the configured mix for unambiguous categories.
    EXPECT_EQ(results_->filter.count(ProbeCategory::Ipv6Only),
              config_->specials.ipv6_only);
    EXPECT_EQ(results_->filter.count(ProbeCategory::DualStack),
              config_->specials.dual_stack);
    EXPECT_EQ(results_->filter.count(ProbeCategory::AlternatingMultihomed),
              config_->specials.untagged_alternating);
    EXPECT_EQ(results_->filter.count(ProbeCategory::TaggedMultihomed),
              config_->specials.tagged_stable +
                  config_->specials.tagged_alternating);
    EXPECT_EQ(results_->filter.count(ProbeCategory::TestingAddressOnly),
              config_->specials.testing_then_stable);
}

TEST_F(QuickScenario, MoversAreMultiAs) {
    for (const auto& truth : scenario_->truths) {
        if (!truth.mover) continue;
        EXPECT_TRUE(results_->mapping.multi_as.contains(truth.probe))
            << "mover " << truth.probe << " not flagged multi-AS";
    }
}

TEST_F(QuickScenario, PeriodicIspsRecovered) {
    // DTAG: 24 h period; Orange: 168 h. The pipeline must find both from
    // data alone.
    bool found_dtag = false, found_orange = false;
    for (const auto& row : results_->periodicity.as_rows) {
        if (row.asn == 3320 && row.d_hours == 24.0) found_dtag = true;
        if (row.asn == 3215 && row.d_hours == 168.0) found_orange = true;
    }
    EXPECT_TRUE(found_dtag);
    EXPECT_TRUE(found_orange);
    // LGI and Verizon must NOT appear as periodic.
    for (const auto& row : results_->periodicity.as_rows) {
        EXPECT_NE(row.asn, 6830u);
        EXPECT_NE(row.asn, 701u);
    }
}

TEST_F(QuickScenario, InferredPeriodMatchesGroundTruthPerProbe) {
    // Per-probe: every analyzable PPP probe with a configured session
    // timeout and a dominant mode must report that period.
    std::map<atlas::ProbeId, const isp::ProbeTruth*> truth_by_probe;
    for (const auto& truth : scenario_->truths)
        truth_by_probe[truth.probe] = &truth;
    int checked = 0;
    for (const auto& probe : results_->periodicity.probes) {
        if (!probe.period_hours) continue;
        const auto* truth = truth_by_probe.at(probe.probe);
        if (truth->special || truth->mover || !truth->configured_period) continue;
        EXPECT_DOUBLE_EQ(*probe.period_hours,
                         truth->configured_period->to_hours())
            << "probe " << probe.probe;
        ++checked;
    }
    EXPECT_GE(checked, 10);
}

TEST_F(QuickScenario, GroundTruthChangesMatchDetectedChanges) {
    // For analyzable non-mover CPE probes, the pipeline's change count
    // must match the simulator's timeline (which is ground truth).
    std::map<atlas::ProbeId, const atlas::Timeline*> timelines;
    for (const auto& timeline : scenario_->timelines)
        timelines[timeline.probe()] = &timeline;
    int compared = 0;
    for (const auto& changes : results_->changes) {
        auto it = timelines.find(changes.probe);
        if (it == timelines.end()) continue;  // special probe
        const auto truth_changes = it->second->address_changes();
        EXPECT_EQ(changes.changes.size(), truth_changes.size())
            << "probe " << changes.probe;
        ++compared;
    }
    EXPECT_GE(compared, 15);
}

TEST_F(QuickScenario, RadiusAccountingAgreesWithDetectedDurations) {
    // DTAG's RADIUS records are simulator ground truth for session length;
    // the connection-log-derived spans must agree for interior sessions.
    const auto& records = scenario_->radius_records.at(3320);
    ASSERT_FALSE(records.empty());
    int full_days = 0;
    for (const auto& record : records)
        if (std::abs(record.duration().to_hours() - 24.0) < 0.1) ++full_days;
    EXPECT_GT(full_days, 200);  // 8 probes x ~59 days, minus outage cuts
}

TEST_F(QuickScenario, PrefixTableCoversAllAnalyzableAddresses) {
    for (const auto& log : results_->filter.analyzable) {
        if (results_->mapping.unmapped.contains(log.probe)) continue;
        for (const auto& entry : log.entries) {
            if (!entry.address.is_v4()) continue;
            EXPECT_TRUE(scenario_->prefix_table
                            .origin_as(entry.address.v4, entry.start)
                            .has_value())
                << entry.address.to_string();
        }
    }
}

TEST_F(QuickScenario, OutagesDetectedForOutageHeavyProbes) {
    std::size_t network = 0, power = 0;
    for (const auto& [probe, list] : results_->network_outages)
        network += list.size();
    for (const auto& [probe, list] : results_->power_outages)
        power += list.size();
    EXPECT_GT(network, 5u);
    EXPECT_GT(power, 3u);
}

TEST_F(QuickScenario, DetectedOutagesCorrespondToPlannedOnes) {
    // Every detected network outage of a CPE probe must overlap a planned
    // outage window (no phantom detections). Power detection bounds are
    // ping-gap based, so allow the sampling slack.
    std::map<atlas::ProbeId, const isp::ProbeTruth*> truth_by_probe;
    for (const auto& truth : scenario_->truths)
        truth_by_probe[truth.probe] = &truth;
    int checked = 0;
    for (const auto& [probe, outages] : results_->network_outages) {
        const auto* truth = truth_by_probe.at(probe);
        for (const auto& outage : outages) {
            bool matched = false;
            for (const auto& planned : truth->outages) {
                if (planned.kind != isp::PlannedOutage::Kind::Network) continue;
                if (outage.begin <= planned.when.end &&
                    planned.when.begin <= outage.end + net::Duration::seconds(300))
                    matched = true;
            }
            EXPECT_TRUE(matched) << "phantom network outage on probe " << probe
                                 << " at " << outage.begin.to_string();
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST_F(QuickScenario, PppProbesRenumberOnOutagesMoreThanDhcp) {
    // Orange (PPP) should show a much higher change-per-outage rate than
    // LGI (sticky DHCP).
    auto rate_for = [&](std::uint32_t asn) {
        int outages = 0, changes = 0;
        auto feed = [&](const auto& outcomes_map) {
            for (const auto& [probe, outcomes] : outcomes_map) {
                auto as = results_->mapping.as_of(probe);
                if (!as || *as != asn) continue;
                for (const auto& outcome : outcomes) {
                    ++outages;
                    changes += outcome.address_change;
                }
            }
        };
        feed(results_->network_outcomes);
        feed(results_->power_outcomes);
        return std::pair{outages, changes};
    };
    const auto [orange_outages, orange_changes] = rate_for(3215);
    const auto [lgi_outages, lgi_changes] = rate_for(6830);
    ASSERT_GT(orange_outages, 0);
    ASSERT_GT(lgi_outages, 0);
    const double orange_rate = double(orange_changes) / orange_outages;
    const double lgi_rate = double(lgi_changes) / lgi_outages;
    EXPECT_GT(orange_rate, 0.8);
    EXPECT_LT(lgi_rate, 0.4);
}

TEST_F(QuickScenario, ReportsRenderWithoutThrowing) {
    EXPECT_FALSE(core::render_table2(results_->filter).empty());
    EXPECT_FALSE(core::render_table5(results_->periodicity).empty());
    EXPECT_FALSE(core::render_table6(results_->cond_prob).empty());
    EXPECT_FALSE(core::render_table7(results_->prefix_changes).empty());
    EXPECT_FALSE(core::render_summary(*results_).empty());
    EXPECT_FALSE(
        core::render_firmware_series(results_->firmware, results_->window)
            .empty());
}

TEST(AdminRenumberingIntegration, PlantedEventIsRecoveredEndToEnd) {
    // Quick scenario + a planted block swap in LGI (index 2) at day 30.
    auto config = isp::presets::quick_scenario();
    auto& lgi = config.isps[2];
    ASSERT_EQ(lgi.asn, 6830u);
    // Enough subscribers that the retired block holds >= 3 probes.
    lgi.cohorts.front().probe_count = 40;
    lgi.pool_prefixes.push_back(net::IPv4Prefix::parse_or_throw("95.80.0.0/22"));
    lgi.announced_prefixes.push_back(
        net::IPv4Prefix::parse_or_throw("95.80.0.0/16"));
    isp::AdminRenumbering event;
    event.when = net::TimePoint::from_date(2015, 1, 20);
    event.retire_pool_index = 0;
    event.enable_pool_index = lgi.pool_prefixes.size() - 1;
    lgi.admin_events.push_back(event);

    const auto scenario = isp::run_scenario(config);
    core::AnalysisPipeline pipeline;
    core::PipelineConfig pipeline_config;
    pipeline_config.admin.quiet_after = net::Duration::days(10);
    // The two-month window leaves little room; a few block users churn
    // away days before the event, so widen the burst window slightly.
    pipeline_config.admin.departure_window = net::Duration::days(5);
    core::AnalysisPipeline tuned(pipeline_config);
    const auto results = tuned.run(scenario.bundle, scenario.prefix_table,
                                   scenario.registry, config.window);
    bool found = false;
    for (const auto& detected : results.admin_events)
        found = found ||
                (detected.asn == 6830 &&
                 detected.retired_prefix ==
                     net::IPv4Prefix::parse_or_throw("62.163.0.0/16"));
    EXPECT_TRUE(found) << "planted administrative renumbering not recovered";
    // The retired aggregate must vanish from the February snapshot.
    EXPECT_FALSE(scenario.prefix_table.origin_as(
        net::IPv4Address::parse_or_throw("62.163.0.1"),
        net::TimePoint::from_date(2015, 2, 10)));
    EXPECT_EQ(scenario.prefix_table.origin_as(
                  net::IPv4Address::parse_or_throw("95.80.0.1"),
                  net::TimePoint::from_date(2015, 2, 10)),
              6830u);
    // And without a planted event the same world stays clean.
    const auto clean_config = isp::presets::quick_scenario();
    const auto clean = isp::run_scenario(clean_config);
    const auto clean_results = tuned.run(clean.bundle, clean.prefix_table,
                                         clean.registry, clean_config.window);
    EXPECT_TRUE(clean_results.admin_events.empty());
}

TEST(PaperWorld, AnnouncedPrefixesAreDisjointAcrossIsps) {
    const auto world = isp::presets::paper_world();
    std::vector<std::pair<net::IPv4Prefix, std::string>> announced;
    for (const auto& isp : world)
        for (const auto& prefix : isp.announced_prefixes)
            announced.emplace_back(prefix, isp.name);
    for (std::size_t i = 0; i < announced.size(); ++i)
        for (std::size_t j = i + 1; j < announced.size(); ++j)
            EXPECT_FALSE(announced[i].first.contains(announced[j].first) ||
                         announced[j].first.contains(announced[i].first))
                << announced[i].second << " " << announced[i].first.to_string()
                << " overlaps " << announced[j].second << " "
                << announced[j].first.to_string();
}

TEST(PaperWorld, EveryIspIsInternallyConsistent) {
    for (const auto& isp : isp::presets::paper_world()) {
        EXPECT_GT(isp.asn, 0u) << isp.name;
        EXPECT_FALSE(isp.cohorts.empty()) << isp.name;
        EXPECT_FALSE(isp.countries.empty()) << isp.name;
        std::uint64_t capacity = 0;
        int probes = 0;
        for (const auto& prefix : isp.pool_prefixes) capacity += prefix.size();
        for (const auto& cohort : isp.cohorts) probes += cohort.probe_count;
        EXPECT_GT(capacity, std::uint64_t(probes) * 4) << isp.name;
        for (const auto& pool : isp.pool_prefixes) {
            int covering = 0;
            for (const auto& agg : isp.announced_prefixes)
                covering += agg.contains(pool);
            EXPECT_EQ(covering, 1) << isp.name << " " << pool.to_string();
        }
    }
}

/// The event queue's invariant on whole worlds: the simulation anchors
/// its wheel at the window start and never schedules into the past, so
/// no event of a preset run takes the late-insert path.
void expect_no_late_inserts(const isp::ScenarioConfig& config) {
    const obs::Counter& late = obs::counter("sim.wheel.late_inserts");
    const std::uint64_t before = late.value();
    const auto scenario = isp::run_scenario(config);
    EXPECT_GT(scenario.sim_events, 0u);
    EXPECT_EQ(late.value(), before);
}

TEST(WheelInvariant, QuickPresetNeverLateInserts) {
    expect_no_late_inserts(isp::presets::quick_scenario());
}

TEST(WheelInvariant, OutagePresetNeverLateInserts) {
    expect_no_late_inserts(isp::presets::outage_scenario());
}

TEST(WheelInvariant, PaperPresetNeverLateInserts) {
    expect_no_late_inserts(isp::presets::paper_scenario());
}

// -- the emission route ------------------------------------------------------
// run_scenario hands every record to one sink; a caller's bundle_sink must
// see exactly what ScenarioResult::bundle holds, dataset by dataset.

/// Keeps whatever it is sent, in arrival order.
class RecordingSink final : public atlas::BundleSink {
public:
    void add_connection(const atlas::ConnectionLogEntry& entry) override {
        seen.connection_log.push_back(entry);
    }
    void add_kroot(const atlas::KRootPingRecord& record) override {
        seen.kroot_pings.push_back(record);
    }
    void add_uptime(const atlas::UptimeRecord& record) override {
        seen.uptime_records.push_back(record);
    }
    void add_probe(const atlas::ProbeMetadata& meta) override {
        seen.probes.push_back(meta);
    }

    atlas::DatasetBundle seen;
};

template <typename Record>
void expect_same_records(const std::vector<Record>& seen,
                         const std::vector<Record>& bundle, const char* dataset) {
    ASSERT_EQ(seen.size(), bundle.size()) << dataset;
    const auto mismatch = std::mismatch(seen.begin(), seen.end(), bundle.begin());
    EXPECT_EQ(mismatch.first, seen.end())
        << dataset << ": first difference at record "
        << (mismatch.first - seen.begin());
}

void expect_sink_sees_the_bundle(isp::ScenarioConfig config) {
    RecordingSink sink;
    config.bundle_sink = &sink;
    const auto scenario = isp::run_scenario(config);
    sink.seen.sort();
    expect_same_records(sink.seen.connection_log, scenario.bundle.connection_log,
                        "connection_log");
    expect_same_records(sink.seen.kroot_pings, scenario.bundle.kroot_pings,
                        "kroot");
    expect_same_records(sink.seen.uptime_records, scenario.bundle.uptime_records,
                        "uptime");
    expect_same_records(sink.seen.probes, scenario.bundle.probes, "probes");
    EXPECT_FALSE(scenario.bundle.connection_log.empty());
    EXPECT_FALSE(scenario.bundle.kroot_pings.empty());
    EXPECT_FALSE(scenario.bundle.uptime_records.empty());
}

TEST(BundleSinkTee, QuickPresetSinkSeesTheBundle) {
    expect_sink_sees_the_bundle(isp::presets::quick_scenario());
}

TEST(BundleSinkTee, OutagePresetSinkSeesTheBundle) {
    expect_sink_sees_the_bundle(isp::presets::outage_scenario());
}

TEST(BundleSinkTee, OutagePresetUnderChaosSinkSeesTheBundle) {
    auto config = isp::presets::outage_scenario();
    config.faults = sim::FaultPlan::parse("chaos,seed=7");
    expect_sink_sees_the_bundle(config);
}

}  // namespace
}  // namespace dynaddr
