#pragma once

// The per-instant k-root emitter, kept with the tests as the differential
// oracle for the sweep in src/atlas/kroot.cpp. It states the sampling rule
// directly: build every instant (sparse grid plus dense windows), sort and
// deduplicate them, then answer each one with Timeline's point queries.

#include <vector>

#include "atlas/kroot.hpp"

namespace dynaddr::atlas {

/// Every sampling instant, ascending: the sparse grid plus the dense grid
/// inside the merged windows around the timeline's events.
std::vector<net::TimePoint> reference_kroot_instants(
    const Timeline& timeline, net::TimeInterval window,
    const KRootSamplingPolicy& policy);

std::vector<KRootPingRecord> reference_kroot_records(
    const Timeline& timeline, net::TimeInterval window,
    const KRootSamplingPolicy& policy, rng::Stream rng);

}  // namespace dynaddr::atlas
