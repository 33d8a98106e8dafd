#pragma once

#include <map>
#include <span>
#include <vector>

#include "core/conlog.hpp"
#include "netcore/time.hpp"

namespace dynaddr::core {

/// An outage inferred from the measurement datasets (paper §3.4-3.5).
struct DetectedOutage {
    enum class Kind { Network, Power };
    Kind kind = Kind::Network;
    atlas::ProbeId probe = 0;
    net::TimePoint begin;
    net::TimePoint end;

    [[nodiscard]] net::Duration duration() const { return end - begin; }
};

/// Detector thresholds; defaults follow the paper.
struct OutageDetectorConfig {
    /// An all-pings-lost run is a network outage only when the LTS value
    /// shows the probe lost controller contact: some record's LTS must
    /// exceed this (a healthy probe reports < 240 s).
    std::int64_t min_lts_seconds = 300;
    /// A reboot counts as a power outage when the surrounding gap in
    /// k-root records exceeds this ("reboot coincident with missing
    /// attempted k-root pings"); 240 s cadence means one missing slot is
    /// ~480 s between records.
    net::Duration min_power_gap = net::Duration::seconds(420);
    /// Figure 6 spike rule: a firmware release shows as days with more
    /// than `spike_factor` x median unique-probe reboots...
    double spike_factor = 2.0;
    /// ...for at least this many consecutive days.
    int spike_min_days = 2;
    /// A probe's first reboot within this long after a release is treated
    /// as the firmware install and discarded.
    net::Duration firmware_attribution_window = net::Duration::days(7);
};

/// Network outages from one probe's k-root ping records (sorted by time):
/// maximal runs of all-pings-lost records whose LTS confirms loss of
/// controller contact. Begin/end are the first/last all-lost records, so
/// duration is underestimated by up to two sampling intervals, as the
/// paper notes.
std::vector<DetectedOutage> detect_network_outages(
    std::span<const atlas::KRootPingRecord> records,
    const OutageDetectorConfig& config = {});

/// A reboot inferred from an uptime-counter reset.
struct RebootInference {
    atlas::ProbeId probe = 0;
    net::TimePoint at;  ///< report time minus counter value
};

/// Reboots from one probe's uptime records (sorted by time): every point
/// where the counter went backwards.
std::vector<RebootInference> detect_reboots(
    std::span<const atlas::UptimeRecord> records);

/// Figure 6 output: reboot activity per day and the inferred release days.
struct FirmwareAnalysis {
    /// day-of-window index -> number of unique probes that rebooted.
    std::map<int, int> probes_rebooted_per_day;
    double median_per_day = 0.0;
    /// First day of each spike period, as an absolute time (midnight).
    std::vector<net::TimePoint> release_days;
};

/// Detects firmware-release days from the population-wide reboot series.
FirmwareAnalysis detect_firmware_spikes(std::span<const RebootInference> reboots,
                                        net::TimeInterval window,
                                        const OutageDetectorConfig& config = {});

/// Removes, per probe, the first reboot within the attribution window
/// after each release day (paper §5.2). Input need not be sorted.
std::vector<RebootInference> filter_firmware_reboots(
    std::span<const RebootInference> reboots,
    std::span<const net::TimePoint> release_days,
    const OutageDetectorConfig& config = {});

/// Power outages for one probe: firmware-filtered reboots that coincide
/// with a gap in the probe's k-root records. The outage spans the gap
/// (last record before the reboot to first record after).
std::vector<DetectedOutage> detect_power_outages(
    std::span<const RebootInference> reboots,
    std::span<const atlas::KRootPingRecord> records,
    const OutageDetectorConfig& config = {});

/// What an inter-connection gap was attributed to (paper §3.6 priority:
/// network outage, else power outage, else no outage).
enum class GapCause { NetworkOutage, PowerOutage, NoOutage };

/// One inter-connection gap with its attribution.
struct GapAttribution {
    net::TimeInterval gap;  ///< [end of entry i, start of entry i+1]
    bool address_changed = false;
    GapCause cause = GapCause::NoOutage;
};

/// Attributes every inter-connection gap of one probe's log. An outage is
/// associated with a gap when their intervals overlap (the gap widened by
/// `slack` on both sides to absorb logging jitter).
std::vector<GapAttribution> attribute_gaps(
    const ProbeLog& log, std::span<const DetectedOutage> network,
    std::span<const DetectedOutage> power,
    net::Duration slack = net::Duration::seconds(300));

/// One outage with whether it came with an address change — the unit the
/// paper's conditional probabilities count over.
struct OutageOutcome {
    DetectedOutage outage;
    bool address_change = false;
};

/// For each outage of one probe, decides whether it was accompanied by an
/// address change: it overlaps an inter-connection gap whose flanking
/// connections used different addresses.
std::vector<OutageOutcome> outage_outcomes(
    const ProbeLog& log, std::span<const DetectedOutage> outages,
    net::Duration slack = net::Duration::seconds(300));

/// Splits a dataset into per-probe spans, each probe's records in input
/// order. The spans point into `records` when each probe's records are
/// contiguous (a sorted dataset); otherwise into `storage`, which then
/// holds a copy stable-sorted by probe. A bundle read back from a .dab
/// written live by the simulator is in emission order, which interleaves
/// probes.
std::map<atlas::ProbeId, std::span<const atlas::KRootPingRecord>>
split_kroot_by_probe(std::span<const atlas::KRootPingRecord> records,
                     std::vector<atlas::KRootPingRecord>& storage);
std::map<atlas::ProbeId, std::span<const atlas::UptimeRecord>>
split_uptime_by_probe(std::span<const atlas::UptimeRecord> records,
                      std::vector<atlas::UptimeRecord>& storage);

}  // namespace dynaddr::core
