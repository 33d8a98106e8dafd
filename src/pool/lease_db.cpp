#include "pool/lease_db.hpp"

#include <algorithm>

#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"

namespace dynaddr::pool {

namespace {

struct LeaseMetrics {
    obs::Counter& granted = obs::counter("lease.granted");
    obs::Counter& revoked = obs::counter("lease.revoked");
    obs::Counter& expired = obs::counter("lease.expired");
    obs::Gauge& active = obs::gauge("lease.active");
};

LeaseMetrics& lease_metrics() {
    static LeaseMetrics metrics;
    return metrics;
}

constexpr std::size_t kInitialCapacity = 16;  // power of two

std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

}  // namespace

LeaseDb::LeaseDb()
    : clients_(kInitialCapacity), addrs_(kInitialCapacity) {}

LeaseDb::~LeaseDb() {
    lease_metrics().active.add(-std::int64_t(reported_active_));
}

void LeaseDb::sync_gauge() {
    lease_metrics().active.add(std::int64_t(size()) -
                               std::int64_t(reported_active_));
    reported_active_ = size();
    mem_.report(clients_.capacity() * sizeof(ClientSlot) +
                    addrs_.capacity() * sizeof(AddrSlot) +
                    heap_.capacity() * sizeof(HeapEntry),
                live_);
}

const LeaseDb::ClientSlot* LeaseDb::client_slot(ClientId client) const {
    const std::size_t mask = clients_.size() - 1;
    for (std::size_t i = splitmix64(client) & mask;; i = (i + 1) & mask) {
        const ClientSlot& slot = clients_[i];
        if (slot.state == SlotState::Empty) return nullptr;
        if (slot.state == SlotState::Occupied && slot.lease.client == client)
            return &slot;
    }
}

LeaseDb::ClientSlot& LeaseDb::client_slot_for_insert(ClientId client) {
    const std::size_t mask = clients_.size() - 1;
    ClientSlot* tombstone = nullptr;
    for (std::size_t i = splitmix64(client) & mask;; i = (i + 1) & mask) {
        ClientSlot& slot = clients_[i];
        if (slot.state == SlotState::Occupied && slot.lease.client == client)
            return slot;
        if (slot.state == SlotState::Tombstone && !tombstone) tombstone = &slot;
        if (slot.state == SlotState::Empty) {
            if (tombstone) return *tombstone;
            ++client_used_;
            return slot;
        }
    }
}

void LeaseDb::client_slot_erase(ClientId client) {
    const std::size_t mask = clients_.size() - 1;
    for (std::size_t i = splitmix64(client) & mask;; i = (i + 1) & mask) {
        ClientSlot& slot = clients_[i];
        if (slot.state == SlotState::Empty) return;
        if (slot.state == SlotState::Occupied && slot.lease.client == client) {
            slot.state = SlotState::Tombstone;
            return;
        }
    }
}

const LeaseDb::AddrSlot* LeaseDb::addr_slot(net::IPv4Address addr) const {
    const std::size_t mask = addrs_.size() - 1;
    for (std::size_t i = splitmix64(addr.value()) & mask;; i = (i + 1) & mask) {
        const AddrSlot& slot = addrs_[i];
        if (slot.state == SlotState::Empty) return nullptr;
        if (slot.state == SlotState::Occupied && slot.addr == addr) return &slot;
    }
}

LeaseDb::AddrSlot& LeaseDb::addr_slot_for_insert(net::IPv4Address addr) {
    const std::size_t mask = addrs_.size() - 1;
    AddrSlot* tombstone = nullptr;
    for (std::size_t i = splitmix64(addr.value()) & mask;; i = (i + 1) & mask) {
        AddrSlot& slot = addrs_[i];
        if (slot.state == SlotState::Occupied && slot.addr == addr) return slot;
        if (slot.state == SlotState::Tombstone && !tombstone) tombstone = &slot;
        if (slot.state == SlotState::Empty) {
            if (tombstone) return *tombstone;
            ++addr_used_;
            return slot;
        }
    }
}

void LeaseDb::addr_slot_erase(net::IPv4Address addr) {
    const std::size_t mask = addrs_.size() - 1;
    for (std::size_t i = splitmix64(addr.value()) & mask;; i = (i + 1) & mask) {
        AddrSlot& slot = addrs_[i];
        if (slot.state == SlotState::Empty) return;
        if (slot.state == SlotState::Occupied && slot.addr == addr) {
            slot.state = SlotState::Tombstone;
            return;
        }
    }
}

void LeaseDb::maybe_grow() {
    // Keep load (occupied + tombstones) under 3/4; rebuilding drops
    // tombstones, and doubles only when genuinely full.
    if ((client_used_ + 1) * 4 <= clients_.size() * 3 &&
        (addr_used_ + 1) * 4 <= addrs_.size() * 3)
        return;
    const std::size_t client_cap =
        (live_ + 1) * 4 > clients_.size() * 3 ? clients_.size() * 2 : clients_.size();
    const std::size_t addr_cap =
        (live_ + 1) * 4 > addrs_.size() * 3 ? addrs_.size() * 2 : addrs_.size();
    std::vector<ClientSlot> old_clients(client_cap);
    std::vector<AddrSlot> old_addrs(addr_cap);
    old_clients.swap(clients_);
    old_addrs.swap(addrs_);
    client_used_ = 0;
    addr_used_ = 0;
    for (ClientSlot& slot : old_clients) {
        if (slot.state != SlotState::Occupied) continue;
        ClientSlot& fresh = client_slot_for_insert(slot.lease.client);
        fresh = std::move(slot);
    }
    for (AddrSlot& slot : old_addrs) {
        if (slot.state != SlotState::Occupied) continue;
        AddrSlot& fresh = addr_slot_for_insert(slot.addr);
        fresh = slot;
    }
}

void LeaseDb::heap_queue(const ClientSlot& slot) {
    const auto after = [](const HeapEntry& a, const HeapEntry& b) {
        return a.after(b);
    };
    slot.queued_seq = slot.seq;
    if (heap_.size() > 4 * live_ + 64) {
        // Mostly stale: rebuild from the live records.
        heap_.clear();
        for (const ClientSlot& live : clients_) {
            if (live.state != SlotState::Occupied) continue;
            heap_.push_back({live.lease.expiry, live.seq, live.lease.client});
            live.queued_seq = live.seq;
        }
        std::make_heap(heap_.begin(), heap_.end(), after);
        return;
    }
    heap_.push_back({slot.lease.expiry, slot.seq, slot.lease.client});
    std::push_heap(heap_.begin(), heap_.end(), after);
}

void LeaseDb::heap_settle() const {
    const auto after = [](const HeapEntry& a, const HeapEntry& b) {
        return a.after(b);
    };
    while (!heap_.empty()) {
        const HeapEntry& top = heap_.front();
        const ClientSlot* slot = client_slot(top.client);
        if (!slot || slot->queued_seq != top.seq) {  // stale
            std::pop_heap(heap_.begin(), heap_.end(), after);
            heap_.pop_back();
        } else if (slot->seq != top.seq) {  // refreshed since queued: re-key
            const ClientId client = top.client;
            std::pop_heap(heap_.begin(), heap_.end(), after);
            heap_.back() = {slot->lease.expiry, slot->seq, client};
            slot->queued_seq = slot->seq;
            std::push_heap(heap_.begin(), heap_.end(), after);
        } else {
            break;  // current
        }
    }
}

void LeaseDb::grant(const Lease& lease) {
    if (ClientSlot* held = client_slot(lease.client);
        held && held->lease.address == lease.address) {
        // Same (client, address): rewrite the record in place; the address
        // index already maps it. The queued heap entry still sorts no
        // later than the new terms unless the expiry moved earlier.
        const bool earlier = lease.expiry < held->lease.expiry;
        held->lease = lease;
        held->seq = next_seq_++;
        if (earlier) {
            heap_queue(*held);
            sync_gauge();
        }
        lease_metrics().granted.inc();
        return;
    }
    if (const AddrSlot* taken = addr_slot(lease.address);
        taken && taken->client != lease.client)
        throw Error("address " + lease.address.to_string() +
                    " already leased to another client");
    maybe_grow();
    ClientSlot& slot = client_slot_for_insert(lease.client);
    if (slot.state == SlotState::Occupied) {
        // Move to a new address: drop the previous address mapping; the
        // old heap entry goes stale with the new sequence number.
        addr_slot_erase(slot.lease.address);
    } else {
        slot.state = SlotState::Occupied;
        slot.held_since = lease.granted;
        ++live_;
    }
    slot.lease = lease;
    slot.seq = next_seq_++;
    AddrSlot& addr = addr_slot_for_insert(lease.address);
    addr.state = SlotState::Occupied;
    addr.addr = lease.address;
    addr.client = lease.client;
    heap_queue(slot);
    lease_metrics().granted.inc();
    sync_gauge();
}

std::optional<Lease> LeaseDb::revoke(ClientId client) {
    const ClientSlot* slot = client_slot(client);
    if (!slot) return std::nullopt;
    Lease lease = slot->lease;
    addr_slot_erase(lease.address);
    client_slot_erase(client);
    --live_;
    lease_metrics().revoked.inc();
    sync_gauge();
    return lease;
}

std::optional<Lease> LeaseDb::find(ClientId client) const {
    const ClientSlot* slot = client_slot(client);
    if (!slot) return std::nullopt;
    return slot->lease;
}

std::optional<LeaseDb::Tenure> LeaseDb::tenure(ClientId client) const {
    const ClientSlot* slot = client_slot(client);
    if (!slot) return std::nullopt;
    return Tenure{slot->lease, slot->held_since};
}

std::optional<Lease> LeaseDb::find_by_address(net::IPv4Address addr) const {
    const AddrSlot* slot = addr_slot(addr);
    if (!slot) return std::nullopt;
    return find(slot->client);
}

std::vector<Lease> LeaseDb::expire_until(net::TimePoint now) {
    std::vector<Lease> expired;
    const auto after = [](const HeapEntry& a, const HeapEntry& b) {
        return a.after(b);
    };
    // Every live lease has an entry, so a later top means nothing is due.
    if (heap_.empty() || heap_.front().expiry > now) return expired;
    heap_settle();
    while (!heap_.empty() && heap_.front().expiry <= now) {
        const ClientId client = heap_.front().client;
        std::pop_heap(heap_.begin(), heap_.end(), after);
        heap_.pop_back();
        // heap_settle guarantees the top entry is live.
        const ClientSlot* slot = client_slot(client);
        expired.push_back(slot->lease);
        addr_slot_erase(slot->lease.address);
        client_slot_erase(client);
        --live_;
        heap_settle();
    }
    if (!expired.empty()) {
        lease_metrics().expired.inc(expired.size());
        sync_gauge();
    }
    return expired;
}

std::optional<net::TimePoint> LeaseDb::next_expiry() const {
    heap_settle();
    if (heap_.empty()) return std::nullopt;
    return heap_.front().expiry;
}

std::vector<Lease> LeaseDb::all() const {
    std::vector<Lease> leases;
    leases.reserve(live_);
    for (const ClientSlot& slot : clients_) {
        if (slot.state != SlotState::Occupied) continue;
        leases.push_back(slot.lease);
    }
    std::sort(leases.begin(), leases.end(),
              [](const Lease& a, const Lease& b) { return a.client < b.client; });
    return leases;
}

}  // namespace dynaddr::pool
