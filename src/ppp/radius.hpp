#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "netcore/ipv4.hpp"
#include "netcore/rng.hpp"
#include "netcore/time.hpp"
#include "pool/address_pool.hpp"
#include "sim/simulation.hpp"

namespace dynaddr::ppp {

/// Why a PPP session ended. Mirrors RADIUS Acct-Terminate-Cause values.
enum class StopReason {
    SessionTimeout,  ///< ISP-imposed Session-Timeout elapsed
    LostCarrier,     ///< link or power failure at the subscriber
    UserRequest,     ///< subscriber-initiated disconnect (privacy reconnect)
    AdminReset,      ///< operator action
};

/// One RADIUS accounting session (Start + Stop collapsed into a record).
/// This is the simulated equivalent of the proprietary RADIUS logs Maier
/// et al. analyzed; tests use it as ground truth.
struct AccountingRecord {
    pool::ClientId client = 0;
    net::IPv4Address address;
    net::TimePoint start;
    net::TimePoint stop;
    StopReason reason = StopReason::LostCarrier;

    [[nodiscard]] net::Duration duration() const { return stop - start; }
};

/// RADIUS-side policy for a PPP ISP.
struct RadiusConfig {
    /// Session-Timeout attribute: the ISP terminates sessions after this
    /// long, forcing periodic renumbering ("Zwangstrennung"). Unset = no
    /// periodic limit.
    std::optional<net::Duration> session_timeout;
};

/// A RADIUS-style authorization and accounting server fronting an
/// AddressPool. PPP ISPs do not remember subscriber addresses: every new
/// session draws from the pool per its strategy (typically RandomSpread
/// or PrefixHop).
class RadiusServer {
public:
    /// `pool` must outlive the server.
    RadiusServer(RadiusConfig config, pool::AddressPool& pool, sim::Simulation& sim);

    /// Access-Request -> Access-Accept with a Framed-IP-Address and
    /// optional Session-Timeout. nullopt when the pool is exhausted
    /// (Access-Reject).
    struct AccessAccept {
        net::IPv4Address address;
        std::optional<net::Duration> session_timeout;
    };
    std::optional<AccessAccept> authorize(pool::ClientId client);

    /// Accounting-Stop: ends the client's session, releasing its address.
    void account_stop(pool::ClientId client, StopReason reason);

    /// Whether the BRAS/RADIUS pair is up. Exchanges with an offline
    /// server throw — callers treat downtime as silence. Always true
    /// without fault injection.
    [[nodiscard]] bool online() const { return online_; }

    /// Fault injection: the server dies. With `amnesia` every open session
    /// is forgotten *without* an accounting record — the address returns to
    /// the pool but the stop is lost, the gap the paper flags in real
    /// RADIUS logs.
    void crash(bool amnesia);

    /// Fault injection: the server comes back.
    void restart();

    /// All completed sessions, in stop order.
    [[nodiscard]] const std::vector<AccountingRecord>& records() const {
        return records_;
    }
    /// Moves the completed sessions out, leaving the server's list empty.
    [[nodiscard]] std::vector<AccountingRecord> take_records() {
        return std::exchange(records_, {});
    }

    /// Number of currently open sessions.
    [[nodiscard]] std::size_t open_sessions() const { return open_.size(); }

    [[nodiscard]] const RadiusConfig& config() const { return config_; }

private:
    struct OpenSession {
        net::IPv4Address address;
        net::TimePoint start;
    };

    RadiusConfig config_;
    pool::AddressPool* pool_;
    sim::Simulation* sim_;
    std::unordered_map<pool::ClientId, OpenSession> open_;
    std::vector<AccountingRecord> records_;
    bool online_ = true;
};

}  // namespace dynaddr::ppp
