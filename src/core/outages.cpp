#include "core/outages.hpp"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "netcore/error.hpp"

namespace dynaddr::core {

namespace {

/// Pings were sent and none came back. The run scan and the skip test
/// share this one predicate, so every record either starts a run or is
/// skipped: a garbled count (negative sent or success) is simply not an
/// all-lost record, and the scan always advances.
bool all_lost(const atlas::KRootPingRecord& record) {
    return record.sent > 0 && record.success == 0;
}

}  // namespace

std::vector<DetectedOutage> detect_network_outages(
    std::span<const atlas::KRootPingRecord> records,
    const OutageDetectorConfig& config) {
    std::vector<DetectedOutage> outages;
    std::size_t i = 0;
    while (i < records.size()) {
        if (!all_lost(records[i])) {
            ++i;
            continue;
        }
        // Maximal run of all-lost records.
        std::size_t j = i;
        std::int64_t max_lts = 0;
        while (j < records.size() && all_lost(records[j])) {
            max_lts = std::max(max_lts, records[j].lts_seconds);
            ++j;
        }
        // LTS must confirm loss of controller contact, else the probe was
        // still reporting (k-root unreachable but network fine).
        if (max_lts >= config.min_lts_seconds) {
            DetectedOutage outage;
            outage.kind = DetectedOutage::Kind::Network;
            outage.probe = records[i].probe;
            outage.begin = records[i].timestamp;
            outage.end = records[j - 1].timestamp;
            outages.push_back(outage);
        }
        i = j;
    }
    return outages;
}

std::vector<RebootInference> detect_reboots(
    std::span<const atlas::UptimeRecord> records) {
    std::vector<RebootInference> reboots;
    for (std::size_t i = 1; i < records.size(); ++i) {
        if (records[i].uptime_seconds < records[i - 1].uptime_seconds) {
            reboots.push_back(
                {records[i].probe,
                 records[i].timestamp -
                     net::Duration{std::int64_t(records[i].uptime_seconds)}});
        }
    }
    return reboots;
}

FirmwareAnalysis detect_firmware_spikes(std::span<const RebootInference> reboots,
                                        net::TimeInterval window,
                                        const OutageDetectorConfig& config) {
    FirmwareAnalysis analysis;
    const int days = int(window.length().count() / 86400) + 1;
    // Unique probes per day.
    std::map<int, std::unordered_set<atlas::ProbeId>> probes_by_day;
    for (const auto& reboot : reboots) {
        if (reboot.at < window.begin || reboot.at >= window.end) continue;
        const int day = int((reboot.at - window.begin).count() / 86400);
        probes_by_day[day].insert(reboot.probe);
    }
    std::vector<int> counts(std::size_t(days), 0);
    for (const auto& [day, probes] : probes_by_day) {
        counts[std::size_t(day)] = int(probes.size());
        analysis.probes_rebooted_per_day[day] = int(probes.size());
    }
    // Median over all days (zeros included: quiet days count). Even-sized
    // windows take the mean of the two middle elements — the upper element
    // alone would bias the spike threshold upward.
    std::vector<int> sorted = counts;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.empty()) {
        analysis.median_per_day = 0.0;
    } else {
        const std::size_t mid = sorted.size() / 2;
        analysis.median_per_day =
            sorted.size() % 2 != 0
                ? double(sorted[mid])
                : (double(sorted[mid - 1]) + double(sorted[mid])) / 2.0;
    }

    const double threshold =
        std::max(1.0, config.spike_factor * analysis.median_per_day);
    int run_start = -1;
    for (int day = 0; day <= days; ++day) {
        const bool spiking =
            day < days && double(counts[std::size_t(day)]) > threshold;
        if (spiking && run_start < 0) run_start = day;
        if (!spiking && run_start >= 0) {
            if (day - run_start >= config.spike_min_days)
                analysis.release_days.push_back(
                    window.begin + net::Duration::days(run_start));
            run_start = -1;
        }
    }
    return analysis;
}

std::vector<RebootInference> filter_firmware_reboots(
    std::span<const RebootInference> reboots,
    std::span<const net::TimePoint> release_days,
    const OutageDetectorConfig& config) {
    std::vector<RebootInference> sorted(reboots.begin(), reboots.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const RebootInference& a, const RebootInference& b) {
                  if (a.probe != b.probe) return a.probe < b.probe;
                  return a.at < b.at;
              });
    std::vector<net::TimePoint> releases(release_days.begin(), release_days.end());
    std::sort(releases.begin(), releases.end());

    std::vector<RebootInference> kept;
    kept.reserve(sorted.size());
    // Per probe, drop the first reboot inside each release's window.
    std::unordered_map<atlas::ProbeId, std::unordered_set<std::size_t>> consumed;
    for (const auto& reboot : sorted) {
        bool drop = false;
        for (std::size_t r = 0; r < releases.size(); ++r) {
            if (reboot.at < releases[r] ||
                reboot.at >= releases[r] + config.firmware_attribution_window)
                continue;
            auto& used = consumed[reboot.probe];
            if (!used.contains(r)) {
                used.insert(r);
                drop = true;
            }
            break;
        }
        if (!drop) kept.push_back(reboot);
    }
    return kept;
}

std::vector<DetectedOutage> detect_power_outages(
    std::span<const RebootInference> reboots,
    std::span<const atlas::KRootPingRecord> records,
    const OutageDetectorConfig& config) {
    std::vector<DetectedOutage> outages;
    for (const auto& reboot : reboots) {
        // Records flanking the reboot instant.
        auto after = std::lower_bound(
            records.begin(), records.end(), reboot.at,
            [](const atlas::KRootPingRecord& r, net::TimePoint t) {
                return r.timestamp < t;
            });
        if (after == records.begin() || after == records.end()) continue;
        const auto& prev = *std::prev(after);
        const auto& next = *after;
        if (next.timestamp - prev.timestamp < config.min_power_gap)
            continue;  // no missing pings: probe-only blip, not a power cut
        DetectedOutage outage;
        outage.kind = DetectedOutage::Kind::Power;
        outage.probe = reboot.probe;
        outage.begin = prev.timestamp;
        outage.end = next.timestamp;
        outages.push_back(outage);
    }
    return outages;
}

namespace {

/// True when `outage` overlaps `gap` widened by slack.
bool overlaps(const DetectedOutage& outage, const net::TimeInterval& gap,
              net::Duration slack) {
    return outage.begin < gap.end + slack && gap.begin - slack < outage.end;
}

}  // namespace

std::vector<GapAttribution> attribute_gaps(
    const ProbeLog& log, std::span<const DetectedOutage> network,
    std::span<const DetectedOutage> power, net::Duration slack) {
    std::vector<GapAttribution> gaps;
    for (std::size_t i = 1; i < log.entries.size(); ++i) {
        GapAttribution gap;
        gap.gap = {log.entries[i - 1].end, log.entries[i].start};
        gap.address_changed =
            !(log.entries[i - 1].address == log.entries[i].address);
        gap.cause = GapCause::NoOutage;
        for (const auto& outage : network) {
            if (overlaps(outage, gap.gap, slack)) {
                gap.cause = GapCause::NetworkOutage;
                break;
            }
        }
        if (gap.cause == GapCause::NoOutage) {
            for (const auto& outage : power) {
                if (overlaps(outage, gap.gap, slack)) {
                    gap.cause = GapCause::PowerOutage;
                    break;
                }
            }
        }
        gaps.push_back(gap);
    }
    return gaps;
}

std::vector<OutageOutcome> outage_outcomes(const ProbeLog& log,
                                           std::span<const DetectedOutage> outages,
                                           net::Duration slack) {
    std::vector<OutageOutcome> outcomes;
    outcomes.reserve(outages.size());
    for (const auto& outage : outages) {
        OutageOutcome outcome{outage, false};
        for (std::size_t i = 1; i < log.entries.size(); ++i) {
            const net::TimeInterval gap{log.entries[i - 1].end,
                                        log.entries[i].start};
            if (!overlaps(outage, gap, slack)) continue;
            if (!(log.entries[i - 1].address == log.entries[i].address)) {
                outcome.address_change = true;
                break;
            }
        }
        outcomes.push_back(outcome);
    }
    return outcomes;
}

namespace {

/// The per-probe runs of `records`; nullopt when a probe's records are
/// not contiguous.
template <typename Record>
std::optional<std::map<atlas::ProbeId, std::span<const Record>>> probe_runs(
    std::span<const Record> records) {
    std::map<atlas::ProbeId, std::span<const Record>> out;
    std::size_t i = 0;
    while (i < records.size()) {
        std::size_t j = i;
        while (j < records.size() && records[j].probe == records[i].probe) ++j;
        if (!out.emplace(records[i].probe, records.subspan(i, j - i)).second)
            return std::nullopt;
        i = j;
    }
    return out;
}

template <typename Record>
std::map<atlas::ProbeId, std::span<const Record>> split_by_probe(
    std::span<const Record> records, std::vector<Record>& storage) {
    if (auto runs = probe_runs(records)) return std::move(*runs);
    storage.assign(records.begin(), records.end());
    std::stable_sort(storage.begin(), storage.end(),
                     [](const Record& a, const Record& b) {
                         return a.probe < b.probe;
                     });
    return *probe_runs(std::span<const Record>(storage));
}

}  // namespace

std::map<atlas::ProbeId, std::span<const atlas::KRootPingRecord>>
split_kroot_by_probe(std::span<const atlas::KRootPingRecord> records,
                     std::vector<atlas::KRootPingRecord>& storage) {
    return split_by_probe(records, storage);
}

std::map<atlas::ProbeId, std::span<const atlas::UptimeRecord>>
split_uptime_by_probe(std::span<const atlas::UptimeRecord> records,
                      std::vector<atlas::UptimeRecord>& storage) {
    return split_by_probe(records, storage);
}

}  // namespace dynaddr::core
