#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "netcore/obs/memaccount.hpp"
#include "netcore/time.hpp"
#include "sim/inline_callback.hpp"

namespace dynaddr::sim {

/// Opaque handle identifying a scheduled event; used for cancellation.
///
/// Ids are generation-stamped: the low half names a slot in the engine's
/// event slab, the high half the slot's generation at scheduling time. A
/// reused slot gets a new generation, so a stale id can never cancel an
/// unrelated later event.
struct EventId {
    std::uint64_t value = 0;
    friend constexpr auto operator<=>(EventId, EventId) = default;
};

/// A time-ordered queue of callbacks — the simulation's event engine.
///
/// Implementation: a three-level hierarchical timer wheel (256 buckets per
/// level at 1 s / 256 s / 65536 s granularity, covering ~194 days from the
/// current cursor) backed by a 4-ary min-heap for far-future events.
/// Scheduling and cancellation are O(1); finding the next event is a
/// bitmap scan plus amortised cascading. Events at equal times fire in
/// scheduling order (FIFO, via per-event sequence numbers), which keeps
/// runs deterministic. Cancellation is O(1) by id: the event is
/// tombstoned in place and reclaimed lazily when the wheel reaches it.
///
/// Periodic events (`schedule_every`) fire on a fixed cadence and
/// reschedule in place — one slab slot and one callback for the lifetime
/// of the recurrence, no per-firing allocation. Their id stays valid
/// across firings; cancel() stops the recurrence.
///
/// The wheel is anchored at an explicit origin: the cursor starts there
/// and only moves forward to the earliest pending event. An event
/// scheduled before the cursor is still fired in order, but it takes the
/// slow sorted-insert path and counts in `sim.wheel.late_inserts`. A
/// caller that never schedules before the origin or the last fired time,
/// and that peeks past its clock only through next_time_until() (as
/// Simulation does), never late-inserts: next_time() may move the cursor
/// up to the next pending event, beyond the caller's clock.
class EventQueue {
public:
    using Callback = InlineCallback;

    /// An empty queue whose wheel cursor starts at `origin`.
    explicit EventQueue(net::TimePoint origin);
    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /// Schedules `callback` at absolute time `when`. Returns an id usable
    /// with cancel().
    EventId schedule(net::TimePoint when, Callback callback);

    /// Schedules a recurring callback: first firing at `first`, then every
    /// `period` (> 0) after, forever (until cancelled). The returned id
    /// stays valid across firings.
    EventId schedule_every(net::TimePoint first, net::Duration period,
                           Callback callback);

    /// Removes a pending event in O(1) (lazy tombstone; storage is
    /// reclaimed when the wheel reaches it). Returns false when the event
    /// already fired or was cancelled.
    bool cancel(EventId id);

    /// Time of the earliest pending event. May advance internal cursors
    /// (cascading wheel levels, pruning tombstones) but never observable
    /// state.
    [[nodiscard]] std::optional<net::TimePoint> next_time();

    /// Time of the earliest pending event when it is at or before `limit`,
    /// else nullopt. Moves the cursor no further than `limit` (unless it
    /// already stood past it), so scheduling at `limit` afterwards is not
    /// a late insert.
    [[nodiscard]] std::optional<net::TimePoint> next_time_until(
        net::TimePoint limit);

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }

    /// Pops and runs the earliest event; returns false when empty.
    bool run_next();

private:
    static constexpr int kLevels = 3;
    static constexpr int kSlotBits = 8;
    static constexpr std::uint32_t kSlotsPerLevel = 1u << kSlotBits;
    static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;
    /// Horizon of the wheel: events further out live in the overflow heap.
    static constexpr std::int64_t kWheelSpan = std::int64_t(1)
                                               << (kSlotBits * kLevels);
    static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

    enum class State : std::uint8_t { Free, Pending, Firing, Cancelled };

    struct Event {
        std::int64_t when = 0;     ///< absolute fire time, unix seconds
        std::uint64_t seq = 0;     ///< FIFO tiebreak at equal times
        std::int64_t period = 0;   ///< 0 = one-shot
        std::uint32_t gen = 1;     ///< bumped on slot reuse
        std::uint32_t next = kNil; ///< bucket chain / free-list link
        State state = State::Free;
        InlineCallback cb;
    };

    struct HeapEntry {
        std::int64_t when;
        std::uint64_t seq;
        std::uint32_t slot;
        [[nodiscard]] bool before(const HeapEntry& o) const {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    EventId schedule_impl(std::int64_t when, std::int64_t period, Callback cb);
    std::uint32_t alloc_slot();
    void free_slot(std::uint32_t slot);
    /// Places a pending slot into the wheel, ready list or heap.
    void place(std::uint32_t slot);
    void ready_insert(std::uint32_t slot);
    void bucket_append(int level, std::uint32_t index, std::uint32_t slot);
    /// Detaches a level-0 bucket into ready_, sorted by (when, seq).
    void detach_into_ready(std::uint32_t index);
    /// Redistributes an upper-level bucket to lower levels.
    void cascade(int level, std::uint32_t index);
    void heap_push(HeapEntry entry);
    void heap_pop();
    /// Moves heap events now inside the wheel horizon into the wheel and
    /// drops cancelled heap tops.
    void migrate_heap();
    /// Index of the first occupied bucket at `level`, scanning rotated
    /// from the cursor's position; -1 when the level is empty.
    [[nodiscard]] int first_occupied(int level) const;
    /// Ensures ready_ holds the earliest pending event at its front and
    /// returns its time; nullopt when no pending event is at or before
    /// `limit`. The cursor moves past `limit` only if it already stood
    /// there.
    std::optional<std::int64_t> find_next(
        std::int64_t limit = std::numeric_limits<std::int64_t>::max());

    std::vector<Event> slab_;
    std::uint32_t free_head_ = kNil;
    std::vector<HeapEntry> heap_;

    std::uint32_t bucket_head_[kLevels][kSlotsPerLevel];
    std::uint32_t bucket_tail_[kLevels][kSlotsPerLevel];
    std::uint64_t occupied_[kLevels][kSlotsPerLevel / 64] = {};

    /// Detached current-second events, sorted by (when, seq); front at
    /// ready_head_.
    std::vector<std::uint32_t> ready_;
    std::size_t ready_head_ = 0;

    /// Wheel position; <= every pending when, unless an event was
    /// scheduled before it (a counted late insert).
    std::int64_t cursor_ = 0;
    std::int64_t ready_second_ = 0;  ///< second last detached into ready_
    /// Time of the last fired event (the origin before any); where an
    /// emptied queue re-anchors.
    std::int64_t last_fired_ = 0;

    std::uint64_t next_seq_ = 0;
    std::size_t size_ = 0;

    /// Capacity accounting (mem.sim.event_queue): slab + overflow heap +
    /// ready list, published through owner-side atomics. Amortized like
    /// the pool's metrics flush so the schedule/fire hot path pays a
    /// counter increment, not a publish, most of the time.
    void note_mem_op() {
        if ((++mem_ops_ & (kMemFlushOps - 1)) == 0) publish_mem();
    }
    void publish_mem();
    static constexpr std::uint64_t kMemFlushOps = 64;
    std::uint64_t mem_ops_ = 0;
    obs::MemRegistration mem_{"sim.event_queue"};
};

}  // namespace dynaddr::sim
