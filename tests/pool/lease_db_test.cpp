#include "pool/lease_db.hpp"

#include <gtest/gtest.h>

#include <map>

#include "netcore/error.hpp"
#include "netcore/rng.hpp"
#include "pool/reference_pool.hpp"

namespace dynaddr::pool {
namespace {

using net::IPv4Address;
using net::TimePoint;

Lease make_lease(ClientId client, IPv4Address addr, std::int64_t granted,
                 std::int64_t expiry) {
    return Lease{client, addr, TimePoint{granted}, TimePoint{expiry}};
}

TEST(LeaseDb, GrantFindRevoke) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    EXPECT_EQ(db.size(), 1u);
    auto lease = db.find(1);
    ASSERT_TRUE(lease);
    EXPECT_EQ(lease->address, IPv4Address(10, 0, 0, 1));
    EXPECT_EQ(lease->duration().count(), 100);
    auto by_addr = db.find_by_address(IPv4Address(10, 0, 0, 1));
    ASSERT_TRUE(by_addr);
    EXPECT_EQ(by_addr->client, 1u);
    auto revoked = db.revoke(1);
    ASSERT_TRUE(revoked);
    EXPECT_EQ(db.size(), 0u);
    EXPECT_FALSE(db.revoke(1));
    EXPECT_FALSE(db.find(1));
    EXPECT_FALSE(db.find_by_address(IPv4Address(10, 0, 0, 1)));
}

TEST(LeaseDb, RefreshReplacesExpiry) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 50, 200));
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.next_expiry()->unix_seconds(), 200);
    // Nothing expires at the old expiry.
    EXPECT_TRUE(db.expire_until(TimePoint{150}).empty());
    EXPECT_EQ(db.expire_until(TimePoint{200}).size(), 1u);
}

TEST(LeaseDb, RefreshCanMoveClientToNewAddress) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 2), 10, 110));
    EXPECT_EQ(db.size(), 1u);
    EXPECT_FALSE(db.find_by_address(IPv4Address(10, 0, 0, 1)));
    ASSERT_TRUE(db.find_by_address(IPv4Address(10, 0, 0, 2)));
}

TEST(LeaseDb, RejectsAddressConflict) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    EXPECT_THROW(db.grant(make_lease(2, IPv4Address(10, 0, 0, 1), 0, 100)),
                 Error);
}

TEST(LeaseDb, ExpireUntilReturnsEarliestFirst) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 300));
    db.grant(make_lease(2, IPv4Address(10, 0, 0, 2), 0, 100));
    db.grant(make_lease(3, IPv4Address(10, 0, 0, 3), 0, 200));
    EXPECT_EQ(db.next_expiry()->unix_seconds(), 100);
    const auto expired = db.expire_until(TimePoint{250});
    ASSERT_EQ(expired.size(), 2u);
    EXPECT_EQ(expired[0].client, 2u);
    EXPECT_EQ(expired[1].client, 3u);
    EXPECT_EQ(db.size(), 1u);
    EXPECT_EQ(db.next_expiry()->unix_seconds(), 300);
}

TEST(LeaseDb, SharedExpirySecond) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    db.grant(make_lease(2, IPv4Address(10, 0, 0, 2), 0, 100));
    db.revoke(1);  // must remove only client 1's expiry index entry
    const auto expired = db.expire_until(TimePoint{100});
    ASSERT_EQ(expired.size(), 1u);
    EXPECT_EQ(expired[0].client, 2u);
}

TEST(LeaseDb, EmptyDbQueries) {
    LeaseDb db;
    EXPECT_FALSE(db.next_expiry());
    EXPECT_TRUE(db.expire_until(TimePoint{1000}).empty());
    EXPECT_EQ(db.size(), 0u);
}

TEST(LeaseDb, SameAddressRefreshKeepsTenure) {
    LeaseDb db;
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 0, 100));
    db.grant(make_lease(2, IPv4Address(10, 0, 0, 2), 0, 150));
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 50, 200));
    EXPECT_FALSE(db.tenure(3));
    const auto tenure = db.tenure(1);
    ASSERT_TRUE(tenure);
    EXPECT_EQ(tenure->lease.address, IPv4Address(10, 0, 0, 1));
    EXPECT_EQ(tenure->lease.granted.unix_seconds(), 50);
    EXPECT_EQ(tenure->lease.expiry.unix_seconds(), 200);
    EXPECT_EQ(tenure->held_since.unix_seconds(), 0);
    ASSERT_TRUE(db.find_by_address(IPv4Address(10, 0, 0, 1)));
    // The old expiry no longer fires; client 2 goes first.
    EXPECT_EQ(db.next_expiry()->unix_seconds(), 150);
    const auto expired = db.expire_until(TimePoint{200});
    ASSERT_EQ(expired.size(), 2u);
    EXPECT_EQ(expired[0].client, 2u);
    EXPECT_EQ(expired[1].client, 1u);
    // A new tenure starts with the next grant.
    db.grant(make_lease(1, IPv4Address(10, 0, 0, 1), 300, 400));
    EXPECT_EQ(db.tenure(1)->held_since.unix_seconds(), 300);
}

// Same-address refreshes (rewritten in place, heap entry re-keyed lazily)
// against the reference oracle: same leases, same expiry order (ties in
// grant order), same tenure starts as a hold-start table keyed by client.
// The random expiries move refreshes both later and earlier.
TEST(LeaseDb, SameAddressRefreshMatchesReference) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        LeaseDb fast;
        ReferenceLeaseDb oracle;
        std::map<ClientId, TimePoint> held_since;
        rng::Stream script(seed);
        std::int64_t now_s = 0;
        for (int step = 0; step < 6000; ++step) {
            now_s += script.uniform_int(0, 300);
            const auto client = ClientId(script.uniform_int(1, 48));
            const TimePoint now{now_s};
            // Expiries on a coarse grid so ties are common.
            const TimePoint expiry{now_s + 60 * script.uniform_int(1, 60)};
            switch (script.uniform_int(0, 4)) {
                case 0: {
                    const Lease lease = make_lease(
                        client, IPv4Address(std::uint32_t(0x0A000000u + client)),
                        now_s, expiry.unix_seconds());
                    fast.grant(lease);
                    oracle.grant(lease);
                    held_since.try_emplace(client, now);
                    break;
                }
                case 1: case 2: {
                    const auto current = oracle.find(client);
                    if (!current) break;
                    const Lease lease{client, current->address, now, expiry};
                    fast.grant(lease);
                    oracle.grant(lease);
                    break;
                }
                case 3:
                    if (fast.revoke(client)) held_since.erase(client);
                    oracle.revoke(client);
                    break;
                case 4: {
                    const auto a = fast.expire_until(now);
                    const auto b = oracle.expire_until(now);
                    ASSERT_EQ(a.size(), b.size()) << "step " << step;
                    for (std::size_t i = 0; i < a.size(); ++i) {
                        EXPECT_EQ(a[i].client, b[i].client) << "step " << step;
                        EXPECT_EQ(a[i].expiry, b[i].expiry) << "step " << step;
                        held_since.erase(a[i].client);
                    }
                    break;
                }
            }
            ASSERT_EQ(fast.size(), oracle.size()) << "step " << step;
            ASSERT_EQ(fast.next_expiry(), oracle.next_expiry()) << "step " << step;
            const auto tenure = fast.tenure(client);
            const auto lease = oracle.find(client);
            ASSERT_EQ(bool(tenure), bool(lease)) << "step " << step;
            if (tenure) {
                EXPECT_EQ(tenure->lease.expiry, lease->expiry);
                EXPECT_EQ(tenure->lease.granted, lease->granted);
                EXPECT_EQ(tenure->held_since, held_since.at(client));
            }
        }
    }
}

}  // namespace
}  // namespace dynaddr::pool
