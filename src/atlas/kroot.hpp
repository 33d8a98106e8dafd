#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "atlas/datasets.hpp"
#include "atlas/timeline.hpp"
#include "netcore/rng.hpp"

namespace dynaddr::atlas {

/// Sampling policy for emitting k-root ping records from a timeline.
///
/// Real probes measure every 240 s all year (~131k records per probe per
/// year). Emitting all of them for thousands of simulated probes is
/// wasteful: outage detection keys on the timestamps of all-loss records,
/// so only samples *near connectivity events* carry information. The
/// emitter therefore samples on a dense grid inside a window around every
/// timeline event and on a sparse grid elsewhere. Setting
/// `base_cadence == dense_cadence == 240 s` reproduces the full dataset
/// exactly (tests do this on short windows to validate the thinning).
struct KRootSamplingPolicy {
    net::Duration dense_cadence = net::Duration::seconds(240);
    net::Duration base_cadence = net::Duration::seconds(3600);
    /// Half-width of the dense window centred on each timeline event.
    net::Duration dense_window = net::Duration::seconds(2700);
    /// Probability that a healthy measurement loses 1-2 of its 3 pings
    /// (transient loss noise; never all three, so no false outages).
    double partial_loss_probability = 0.002;
};

/// Emits the k-root ping records of one probe over `window` into `out`.
/// The timeline must be finalized. Records are emitted only while the
/// probe is running (a powered-off probe measures nothing); all pings fail
/// when the network is down or no address is held, and the LTS value grows
/// from the moment connectivity was lost — exactly the signature the
/// paper's detector (Table 3) keys on.
///
/// Sampling instants are the grid `window.begin + k * dense_cadence`
/// restricted to the sparse grid (every `base_cadence`) outside the merged
/// dense windows `[e - dense_window, e + dense_window)` around the
/// timeline's event times. The emitter walks them in one ascending sweep:
/// the instants come from merging the sparse grid with the dense windows,
/// and probe, network and address state from forward-only cursors over the
/// timeline's sorted, disjoint intervals (the Timeline builder contract),
/// so the cost is O(records + events). Records are emitted in strictly
/// increasing timestamp order.
void emit_kroot_records(const Timeline& timeline, net::TimeInterval window,
                        const KRootSamplingPolicy& policy, rng::Stream rng,
                        BundleSink& out);

/// Convenience form returning the records of one probe.
inline std::vector<KRootPingRecord> emit_kroot_records(
    const Timeline& timeline, net::TimeInterval window,
    const KRootSamplingPolicy& policy, rng::Stream rng) {
    DatasetBundle bundle;
    BundleCollector collector(bundle);
    emit_kroot_records(timeline, window, policy, rng, collector);
    return std::move(bundle.kroot_pings);
}

/// The number of sampling instants emit_kroot_records visits for
/// `timeline`: an upper bound on the records it appends (instants while
/// the probe is down emit nothing). O(events) arithmetic, for sizing the
/// output once up front.
[[nodiscard]] std::size_t kroot_instant_count(const Timeline& timeline,
                                              net::TimeInterval window,
                                              const KRootSamplingPolicy& policy);

}  // namespace dynaddr::atlas
