#include "core/pipeline.hpp"

#include <algorithm>
#include <span>
#include <unordered_map>

#include "core/pipeline_internal.hpp"
#include "core/streaming_pipeline.hpp"
#include "netcore/error.hpp"
#include "netcore/obs/log.hpp"
#include "netcore/obs/metrics.hpp"
#include "netcore/obs/trace.hpp"
#include "netcore/parallel.hpp"

DYNADDR_LOG_MODULE(pipeline);

namespace dynaddr::core {

namespace detail {

PipelineMetrics& pipeline_metrics() {
    static PipelineMetrics metrics;
    return metrics;
}

namespace {

/// table2_funnel counter suffix per filter category. Registered as a
/// metrics block so the JSON export groups them.
const char* funnel_name(ProbeCategory category) {
    switch (category) {
        case ProbeCategory::Analyzable: return "table2_funnel.analyzable";
        case ProbeCategory::NeverChanged: return "table2_funnel.never_changed";
        case ProbeCategory::DualStack: return "table2_funnel.dual_stack";
        case ProbeCategory::Ipv6Only: return "table2_funnel.ipv6_only";
        case ProbeCategory::TaggedMultihomed:
            return "table2_funnel.tagged_multihomed";
        case ProbeCategory::AlternatingMultihomed:
            return "table2_funnel.alternating_multihomed";
        case ProbeCategory::TestingAddressOnly:
            return "table2_funnel.testing_address_only";
    }
    return "table2_funnel.unknown";
}

}  // namespace

void record_funnel(const FilterReport& report) {
    static const bool block_registered = [] {
        obs::metrics_block("table2_funnel");
        return true;
    }();
    (void)block_registered;
    obs::counter("table2_funnel.total").inc(std::uint64_t(report.total()));
    for (const auto& [category, count] : report.counts)
        obs::counter(funnel_name(category)).inc(std::uint64_t(count));
}

}  // namespace detail

const ProbeChanges* AnalysisResults::changes_of(atlas::ProbeId probe) const {
    auto it = std::lower_bound(changes.begin(), changes.end(), probe,
                               [](const ProbeChanges& c, atlas::ProbeId id) {
                                   return c.probe < id;
                               });
    if (it == changes.end() || it->probe != probe) return nullptr;
    return &*it;
}

DurationBinAnalysis duration_bins_for_as(
    const AnalysisResults& results, std::uint32_t asn,
    std::optional<DetectedOutage::Kind> kind) {
    DurationBinAnalysis bins;
    auto feed = [&](const std::map<atlas::ProbeId, std::vector<OutageOutcome>>&
                        outcomes) {
        for (const auto& [probe, list] : outcomes) {
            auto probe_as = results.mapping.as_of(probe);
            if (!probe_as || *probe_as != asn) continue;
            for (const auto& outcome : list) bins.add(outcome);
        }
    };
    if (!kind || *kind == DetectedOutage::Kind::Network)
        feed(results.network_outcomes);
    if (!kind || *kind == DetectedOutage::Kind::Power)
        feed(results.power_outcomes);
    return bins;
}

namespace {

// ---------------------------------------------------------------------------
// Per-probe stage functions. Each is a pure function of one probe's data so
// the pool can run probes in any order; the caller merges the pre-sized
// per-shard slots in shard order, keeping output identical for any thread
// count (see par::ThreadPool's determinism contract).
// ---------------------------------------------------------------------------

/// §5 output for one probe: everything the per-probe outage loop derives.
struct ProbeOutageAnalysis {
    bool present = false;  ///< false when the probe has no k-root records
    std::vector<DetectedOutage> network;
    std::vector<DetectedOutage> power;
    std::vector<OutageOutcome> network_outcomes;
    std::vector<OutageOutcome> power_outcomes;
    ProbeCondProb tally;
};

/// The §5 outage stage for one analyzable probe. `version` is nullopt when
/// the probe is absent from the probe archive; such probes keep network
/// detection but are excluded from power detection — the paper (§5.1) only
/// trusts v3 uptime semantics, and an unknown probe may be v1/v2.
ProbeOutageAnalysis analyze_probe_outages(
    const ProbeLog& log, std::span<const atlas::KRootPingRecord> kroot,
    std::optional<atlas::ProbeVersion> version,
    const std::vector<RebootInference>* reboots,
    const OutageDetectorConfig& config) {
    ProbeOutageAnalysis out;
    out.present = true;

    // Network outages: every probe version.
    out.network = detect_network_outages(kroot, config);

    // Power outages: v3 only — v1/v2 reboot on new TCP connections and
    // would fake power cuts (paper §5.1); unknown versions are excluded
    // for the same reason.
    if (version && *version == atlas::ProbeVersion::V3 && reboots) {
        out.power = detect_power_outages(*reboots, kroot, config);
        // A "power outage" whose window is explained by a detected
        // network outage is the network event seen twice; keep the
        // network attribution (paper §3.6 priority).
        std::erase_if(out.power, [&](const DetectedOutage& p) {
            for (const auto& n : out.network)
                if (n.begin < p.end && p.begin < n.end) return true;
            return false;
        });
    }

    out.network_outcomes = outage_outcomes(log, out.network);
    out.power_outcomes = outage_outcomes(log, out.power);
    out.tally =
        tally_probe(log.probe, out.network_outcomes, out.power_outcomes);
    return out;
}

}  // namespace

AnalysisResults AnalysisPipeline::run(
    const atlas::DatasetBundle& bundle, const bgp::PrefixTable& table,
    const bgp::AsRegistry& registry,
    std::optional<net::TimeInterval> window) const {
    // The batch entry point is a thin adapter over the streaming pipeline;
    // run_reference() below keeps the historical one-stage-at-a-time
    // implementation as the differential oracle. The emptiness check runs
    // up front so the error surfaces before any feeding, exactly like the
    // reference.
    if (!window && bundle.connection_log.empty())
        throw Error("empty connection log");
    StreamingPipeline::Options options;
    options.config = config_;
    options.keep_analyzable_logs = true;
    StreamingPipeline streaming(table, registry, options);
    streaming.open(window);
    streaming.feed_bundle(bundle);
    return streaming.finish();
}

AnalysisResults AnalysisPipeline::run_reference(
    const atlas::DatasetBundle& bundle, const bgp::PrefixTable& table,
    const bgp::AsRegistry& registry,
    std::optional<net::TimeInterval> window) const {
    detail::PipelineMetrics& metrics = detail::pipeline_metrics();
    metrics.runs.inc();
    obs::ObsSpan run_span("pipeline.run", "pipeline", &metrics.run_latency);
    AnalysisResults results;

    // -- observation window ---------------------------------------------------
    // Emptiness is checked before any scan so the sentinel bounds below can
    // never leak into results. An explicit window with an empty log is
    // valid: the pipeline runs with that window and every per-probe
    // analysis comes back empty (firmware detection still sees uptime data).
    if (!window && bundle.connection_log.empty())
        throw Error("empty connection log");
    if (window) {
        results.window = *window;
    } else {
        net::TimePoint lo{std::int64_t{1} << 60}, hi{-(std::int64_t{1} << 60)};
        for (const auto& e : bundle.connection_log) {
            lo = std::min(lo, e.start);
            hi = std::max(hi, e.end);
        }
        results.window = {lo, hi + net::Duration::seconds(1)};
    }

    // One pool for every per-probe stage; size 1 is exactly the
    // historical sequential path (no workers, plain loop).
    par::ThreadPool pool(par::resolve_threads(config_.threads));

    // -- §3: filtering and change extraction ----------------------------------
    const auto logs = group_by_probe(bundle.connection_log);
    {
        obs::ObsSpan span("pipeline.filter_probes", "pipeline",
                          &metrics.filter_latency);
        results.filter = filter_probes(logs, bundle.probes, config_.filter);
        results.ipv6_privacy = analyze_ipv6_privacy(logs, config_.ipv6);
        results.mapping = map_probes_to_as(results.filter.analyzable, table);
    }
    metrics.probes_in.inc(std::uint64_t(results.filter.total()));
    metrics.probes_analyzable.inc(
        std::uint64_t(results.filter.analyzable.size()));
    {
        std::unordered_map<atlas::ProbeId, atlas::ProbeVersion> version;
        for (const auto& meta : bundle.probes) version[meta.probe] = meta.version;
        for (const auto& log : results.filter.analyzable)
            if (auto it = version.find(log.probe); it != version.end())
                results.probe_versions.emplace(log.probe, it->second);
    }
    detail::record_funnel(results.filter);
    DYNADDR_LOG(Info, pipeline, "filtered ", results.filter.total(),
                " probes, ", results.filter.analyzable.size(), " analyzable");

    // Parallel stage: change extraction, one shard per analyzable probe.
    const auto& analyzable = results.filter.analyzable;
    results.changes.resize(analyzable.size());
    {
        obs::ObsSpan span("pipeline.extract_changes", "pipeline",
                          &metrics.changes_latency);
        pool.parallel_for_shards(analyzable.size(), [&](std::size_t i) {
            obs::ObsSpan shard("pipeline.extract_changes.shard", "shard");
            results.changes[i] = extract_changes(analyzable[i]);
        });
    }
    {
        std::size_t n = 0;
        for (const auto& c : results.changes) n += c.changes.size();
        metrics.changes_extracted.inc(n);
        DYNADDR_LOG(Info, pipeline, "extracted ", n, " address changes from ",
                    analyzable.size(), " probes");
    }

    // -- §4: periodicity; geography — cross-population, sequential barrier -----
    {
        obs::ObsSpan span("pipeline.periodicity", "pipeline",
                          &metrics.periodicity_latency);
        results.periodicity = analyze_periodicity(
            results.changes, results.mapping, registry, config_.periodicity);
        results.geography = analyze_geography(results.changes, bundle.probes);
    }

    // -- §6: prefixes -----------------------------------------------------------
    {
        obs::ObsSpan span("pipeline.prefix_changes", "pipeline",
                          &metrics.prefix_latency);
        results.prefix_changes = analyze_prefix_changes(
            results.changes, results.mapping, table, registry);
    }

    // -- §8 future work: administrative renumbering ------------------------------
    results.admin_events = detect_admin_renumbering(
        results.changes, results.mapping, table, results.window.end,
        config_.admin);

    // -- §5: outages (needs k-root + uptime data) -------------------------------
    if (bundle.kroot_pings.empty() && bundle.uptime_records.empty())
        return results;

    std::vector<atlas::KRootPingRecord> kroot_storage;
    std::vector<atlas::UptimeRecord> uptime_storage;
    const auto kroot = split_kroot_by_probe(bundle.kroot_pings, kroot_storage);
    const auto uptime =
        split_uptime_by_probe(bundle.uptime_records, uptime_storage);

    // Parallel stage: reboot detection, one shard per probe with uptime
    // data. Shard-order concatenation reproduces the sequential map walk.
    std::vector<std::span<const atlas::UptimeRecord>> uptime_spans;
    uptime_spans.reserve(uptime.size());
    for (const auto& [probe, records] : uptime) uptime_spans.push_back(records);
    std::vector<std::vector<RebootInference>> reboot_slots(uptime_spans.size());
    {
        obs::ObsSpan span("pipeline.detect_reboots", "pipeline",
                          &metrics.reboot_latency);
        pool.parallel_for_shards(uptime_spans.size(), [&](std::size_t i) {
            obs::ObsSpan shard("pipeline.detect_reboots.shard", "shard");
            reboot_slots[i] = detect_reboots(uptime_spans[i]);
        });
    }
    std::vector<RebootInference> all_reboots;
    for (const auto& slot : reboot_slots)
        all_reboots.insert(all_reboots.end(), slot.begin(), slot.end());
    metrics.reboots_detected.inc(all_reboots.size());
    DYNADDR_LOG(Debug, pipeline, "detected ", all_reboots.size(),
                " reboots across ", uptime_spans.size(), " probes");

    // Reboots across the whole population feed the firmware-spike filter —
    // a cross-population sequential barrier.
    results.firmware =
        detect_firmware_spikes(all_reboots, results.window, config_.outage);
    const auto filtered_reboots = filter_firmware_reboots(
        all_reboots, results.firmware.release_days, config_.outage);
    std::map<atlas::ProbeId, std::vector<RebootInference>> reboots_by_probe;
    for (const auto& reboot : filtered_reboots)
        reboots_by_probe[reboot.probe].push_back(reboot);

    // Parallel stage: the §5 per-probe outage loop, one shard per
    // analyzable probe.
    std::vector<ProbeOutageAnalysis> outage_slots(analyzable.size());
    {
        obs::ObsSpan span("pipeline.outages", "pipeline",
                          &metrics.outage_latency);
        pool.parallel_for_shards(analyzable.size(), [&](std::size_t i) {
            const ProbeLog& log = analyzable[i];
            const auto kroot_it = kroot.find(log.probe);
            if (kroot_it == kroot.end()) return;  // slot stays absent
            obs::ObsSpan shard("pipeline.outages.shard", "shard");
            std::optional<atlas::ProbeVersion> probe_version;
            if (auto it = results.probe_versions.find(log.probe);
                it != results.probe_versions.end())
                probe_version = it->second;
            const std::vector<RebootInference>* reboots = nullptr;
            if (auto it = reboots_by_probe.find(log.probe);
                it != reboots_by_probe.end())
                reboots = &it->second;
            outage_slots[i] = analyze_probe_outages(log, kroot_it->second,
                                                    probe_version, reboots,
                                                    config_.outage);
        });
    }

    // Merge in shard order: analyzable is sorted by probe id, so map
    // insertion order and tally order match the sequential run exactly.
    std::vector<ProbeCondProb> tallies;
    for (std::size_t i = 0; i < outage_slots.size(); ++i) {
        auto& slot = outage_slots[i];
        if (!slot.present) continue;
        const atlas::ProbeId probe = analyzable[i].probe;
        tallies.push_back(slot.tally);
        results.network_outages.emplace(probe, std::move(slot.network));
        results.power_outages.emplace(probe, std::move(slot.power));
        results.network_outcomes.emplace(probe,
                                         std::move(slot.network_outcomes));
        results.power_outcomes.emplace(probe, std::move(slot.power_outcomes));
    }
    metrics.outage_probes.inc(tallies.size());
    results.cond_prob = analyze_cond_prob(tallies, results.mapping, registry,
                                          config_.cond_prob);
    return results;
}

}  // namespace dynaddr::core
