#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "netcore/error.hpp"
#include "netcore/obs/metrics.hpp"

namespace dynaddr::sim {

namespace {

/// Wheel counters, bound once at static init: the per-event cost is a
/// couple of relaxed adds — noise next to the wheel's own bucket work.
struct WheelMetrics {
    obs::Counter& scheduled = obs::counter("sim.wheel.scheduled");
    obs::Counter& fired = obs::counter("sim.wheel.fired");
    obs::Counter& cancelled = obs::counter("sim.wheel.cancelled");
    obs::Counter& cascaded = obs::counter("sim.wheel.cascaded");
    obs::Counter& overflow = obs::counter("sim.wheel.overflow");
    /// Events placed before the cursor (the sorted-insert path).
    obs::Counter& late_inserts = obs::counter("sim.wheel.late_inserts");
};

WheelMetrics& wheel_metrics() {
    static WheelMetrics metrics;
    return metrics;
}

constexpr std::uint64_t kSlotFieldMask = 0xFFFFFFFFull;

constexpr std::uint64_t encode_id(std::uint32_t gen, std::uint32_t slot) {
    return (std::uint64_t(gen) << 32) | slot;
}

}  // namespace

EventQueue::EventQueue(net::TimePoint origin)
    : cursor_(origin.unix_seconds()),
      ready_second_(cursor_ - 1),
      last_fired_(cursor_) {
    for (int level = 0; level < kLevels; ++level) {
        std::fill(std::begin(bucket_head_[level]), std::end(bucket_head_[level]),
                  kNil);
        std::fill(std::begin(bucket_tail_[level]), std::end(bucket_tail_[level]),
                  kNil);
    }
}

EventId EventQueue::schedule(net::TimePoint when, Callback callback) {
    return schedule_impl(when.unix_seconds(), 0, std::move(callback));
}

EventId EventQueue::schedule_every(net::TimePoint first, net::Duration period,
                                   Callback callback) {
    if (period.count() <= 0) throw Error("periodic event needs period > 0");
    return schedule_impl(first.unix_seconds(), period.count(),
                         std::move(callback));
}

EventId EventQueue::schedule_impl(std::int64_t when, std::int64_t period,
                                  Callback cb) {
    const std::uint32_t slot = alloc_slot();
    Event& e = slab_[slot];
    e.when = when;
    e.seq = next_seq_++;
    e.period = period;
    e.next = kNil;
    e.state = State::Pending;
    e.cb = std::move(cb);
    place(slot);
    ++size_;
    wheel_metrics().scheduled.inc();
    note_mem_op();
    return EventId{encode_id(e.gen, slot)};
}

void EventQueue::publish_mem() {
    const std::uint64_t bytes =
        std::uint64_t(slab_.capacity()) * sizeof(Event) +
        std::uint64_t(heap_.capacity()) * sizeof(HeapEntry) +
        std::uint64_t(ready_.capacity()) * sizeof(std::uint32_t) +
        sizeof(bucket_head_) + sizeof(bucket_tail_) + sizeof(occupied_);
    mem_.report(bytes, size_);
}

bool EventQueue::cancel(EventId id) {
    const std::uint32_t slot = std::uint32_t(id.value & kSlotFieldMask);
    const std::uint32_t gen = std::uint32_t(id.value >> 32);
    if (slot >= slab_.size()) return false;
    Event& e = slab_[slot];
    if (e.gen != gen) return false;
    if (e.state != State::Pending && e.state != State::Firing) return false;
    // Tombstone in place; the wheel reclaims the slot when it gets there.
    // Cancelling a periodic event mid-callback (State::Firing) stops the
    // recurrence.
    e.state = State::Cancelled;
    --size_;
    wheel_metrics().cancelled.inc();
    return true;
}

std::optional<net::TimePoint> EventQueue::next_time() {
    auto next = find_next();
    if (!next) return std::nullopt;
    return net::TimePoint{*next};
}

std::optional<net::TimePoint> EventQueue::next_time_until(net::TimePoint limit) {
    auto next = find_next(limit.unix_seconds());
    if (!next) return std::nullopt;
    return net::TimePoint{*next};
}

bool EventQueue::run_next() {
    if (!find_next()) return false;
    wheel_metrics().fired.inc();
    note_mem_op();
    const std::uint32_t slot = ready_[ready_head_++];
    Event& e = slab_[slot];
    const std::int64_t when = e.when;
    last_fired_ = when;
    if (e.period > 0) {
        // Periodic: reschedule in place after the callback so a callback
        // that cancels its own id (or one that runs right before the next
        // occurrence) behaves exactly like an explicit re-schedule.
        e.state = State::Firing;
        InlineCallback cb = std::move(e.cb);
        cb(net::TimePoint{when});
        Event& e2 = slab_[slot];  // the callback may have grown the slab
        if (e2.state == State::Cancelled) {
            free_slot(slot);
        } else {
            e2.state = State::Pending;
            e2.when = when + e2.period;
            e2.seq = next_seq_++;
            e2.cb = std::move(cb);
            place(slot);
        }
    } else {
        InlineCallback cb = std::move(e.cb);
        free_slot(slot);  // before invoking: cancel(id) inside the callback
                          // must report "already fired"
        --size_;
        cb(net::TimePoint{when});
    }
    return true;
}

std::uint32_t EventQueue::alloc_slot() {
    if (free_head_ != kNil) {
        const std::uint32_t slot = free_head_;
        free_head_ = slab_[slot].next;
        return slot;
    }
    slab_.emplace_back();
    return std::uint32_t(slab_.size() - 1);
}

void EventQueue::free_slot(std::uint32_t slot) {
    Event& e = slab_[slot];
    ++e.gen;
    e.state = State::Free;
    e.period = 0;
    e.cb.reset();
    e.next = free_head_;
    free_head_ = slot;
}

void EventQueue::place(std::uint32_t slot) {
    const Event& e = slab_[slot];
    const std::int64_t when = e.when;
    if (when <= cursor_) {
        if (when < cursor_) wheel_metrics().late_inserts.inc();
        if (ready_second_ == cursor_) {
            // The current second was already detached; join it in sorted
            // position so FIFO-at-equal-time holds.
            ready_insert(slot);
            return;
        }
        // Park in the cursor bucket; detach sorts by (when, seq), so both
        // firing order and reported times stay exact.
        bucket_append(0, std::uint32_t(cursor_) & kSlotMask, slot);
        return;
    }
    // Level L holds the event only when it shares the level-(L+1) frame
    // with the cursor (identical high bits). This is what makes
    // bucket_start() exact: an occupied bucket can never alias an event a
    // full wheel revolution ahead, so every cascade strictly lowers the
    // event's level and find_next() always makes progress.
    if ((when >> kSlotBits) == (cursor_ >> kSlotBits)) {
        bucket_append(0, std::uint32_t(when) & kSlotMask, slot);
    } else if ((when >> (2 * kSlotBits)) == (cursor_ >> (2 * kSlotBits))) {
        bucket_append(1, std::uint32_t(when >> kSlotBits) & kSlotMask, slot);
    } else if ((when >> (3 * kSlotBits)) == (cursor_ >> (3 * kSlotBits))) {
        bucket_append(2, std::uint32_t(when >> (2 * kSlotBits)) & kSlotMask,
                      slot);
    } else {
        heap_push({when, e.seq, slot});
    }
}

void EventQueue::ready_insert(std::uint32_t slot) {
    auto it = std::upper_bound(
        ready_.begin() + std::ptrdiff_t(ready_head_), ready_.end(), slot,
        [this](std::uint32_t a, std::uint32_t b) {
            const Event& ea = slab_[a];
            const Event& eb = slab_[b];
            return ea.when != eb.when ? ea.when < eb.when : ea.seq < eb.seq;
        });
    ready_.insert(it, slot);
}

void EventQueue::bucket_append(int level, std::uint32_t index,
                               std::uint32_t slot) {
    slab_[slot].next = kNil;
    if (bucket_head_[level][index] == kNil) {
        bucket_head_[level][index] = slot;
        occupied_[level][index >> 6] |= std::uint64_t(1) << (index & 63);
    } else {
        slab_[bucket_tail_[level][index]].next = slot;
    }
    bucket_tail_[level][index] = slot;
}

void EventQueue::detach_into_ready(std::uint32_t index) {
    ready_.clear();
    ready_head_ = 0;
    std::uint32_t slot = bucket_head_[0][index];
    bucket_head_[0][index] = kNil;
    bucket_tail_[0][index] = kNil;
    occupied_[0][index >> 6] &= ~(std::uint64_t(1) << (index & 63));
    while (slot != kNil) {
        const std::uint32_t next = slab_[slot].next;
        if (slab_[slot].state == State::Cancelled) {
            free_slot(slot);
        } else {
            ready_.push_back(slot);
        }
        slot = next;
    }
    std::sort(ready_.begin(), ready_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                  const Event& ea = slab_[a];
                  const Event& eb = slab_[b];
                  return ea.when != eb.when ? ea.when < eb.when
                                            : ea.seq < eb.seq;
              });
}

void EventQueue::cascade(int level, std::uint32_t index) {
    std::uint32_t slot = bucket_head_[level][index];
    bucket_head_[level][index] = kNil;
    bucket_tail_[level][index] = kNil;
    occupied_[level][index >> 6] &= ~(std::uint64_t(1) << (index & 63));
    std::uint64_t moved = 0;
    while (slot != kNil) {
        const std::uint32_t next = slab_[slot].next;
        if (slab_[slot].state == State::Cancelled) {
            free_slot(slot);
        } else {
            place(slot);
            ++moved;
        }
        slot = next;
    }
    wheel_metrics().cascaded.inc(moved);
}

void EventQueue::heap_push(HeapEntry entry) {
    wheel_metrics().overflow.inc();
    heap_.push_back(entry);
    std::size_t i = heap_.size() - 1;
    while (i > 0) {
        const std::size_t parent = (i - 1) / 4;
        if (!heap_[i].before(heap_[parent])) break;
        std::swap(heap_[i], heap_[parent]);
        i = parent;
    }
}

void EventQueue::heap_pop() {
    heap_.front() = heap_.back();
    heap_.pop_back();
    std::size_t i = 0;
    for (;;) {
        const std::size_t first_child = 4 * i + 1;
        if (first_child >= heap_.size()) break;
        std::size_t best = first_child;
        const std::size_t last_child = std::min(first_child + 4, heap_.size());
        for (std::size_t c = first_child + 1; c < last_child; ++c)
            if (heap_[c].before(heap_[best])) best = c;
        if (!heap_[best].before(heap_[i])) break;
        std::swap(heap_[i], heap_[best]);
        i = best;
    }
}

void EventQueue::migrate_heap() {
    while (!heap_.empty()) {
        const HeapEntry top = heap_.front();
        if (slab_[top.slot].state == State::Cancelled) {
            heap_pop();
            free_slot(top.slot);
        } else if ((top.when >> (3 * kSlotBits)) ==
                   (cursor_ >> (3 * kSlotBits))) {
            // Same level-2 frame as the cursor: the event now has a
            // non-aliasing wheel bucket.
            heap_pop();
            place(top.slot);
        } else {
            break;
        }
    }
}

int EventQueue::first_occupied(int level) const {
    const std::uint32_t cur =
        std::uint32_t(cursor_ >> (kSlotBits * level)) & kSlotMask;
    const std::uint32_t word = cur >> 6;
    const std::uint32_t offset = cur & 63;
    // [cur, 256)
    std::uint64_t masked = occupied_[level][word] & (~std::uint64_t(0) << offset);
    if (masked != 0)
        return int(word * 64 + std::uint32_t(std::countr_zero(masked)));
    for (std::uint32_t w = word + 1; w < kSlotsPerLevel / 64; ++w)
        if (occupied_[level][w] != 0)
            return int(w * 64 + std::uint32_t(std::countr_zero(occupied_[level][w])));
    // wrap: [0, cur)
    for (std::uint32_t w = 0; w < word; ++w)
        if (occupied_[level][w] != 0)
            return int(w * 64 + std::uint32_t(std::countr_zero(occupied_[level][w])));
    masked = occupied_[level][word] & ~(~std::uint64_t(0) << offset);
    if (masked != 0)
        return int(word * 64 + std::uint32_t(std::countr_zero(masked)));
    return -1;
}

std::optional<std::int64_t> EventQueue::find_next(std::int64_t limit) {
    for (;;) {
        // 1. The detached current second, pruning leading tombstones.
        while (ready_head_ < ready_.size()) {
            const std::uint32_t slot = ready_[ready_head_];
            if (slab_[slot].state == State::Cancelled) {
                free_slot(slot);
                ++ready_head_;
                continue;
            }
            const std::int64_t when = slab_[slot].when;
            if (when > limit) return std::nullopt;
            return when;
        }
        if (size_ == 0 && heap_.empty()) {
            // Fast path out; tombstones may still sit in buckets but no
            // live event exists anywhere.
            bool wheel_empty = true;
            for (int level = 0; level < kLevels && wheel_empty; ++level)
                for (std::uint32_t w = 0; w < kSlotsPerLevel / 64; ++w)
                    if (occupied_[level][w] != 0) {
                        wheel_empty = false;
                        break;
                    }
            if (wheel_empty) {
                // Nothing is left, not even a tombstone. Pruning tombstones
                // may have carried the cursor past the last fired time;
                // re-anchor there so a caller whose clock stands at that
                // time never late-inserts into the empty queue.
                cursor_ = last_fired_;
                ready_second_ = cursor_ - 1;
                ready_.clear();
                ready_head_ = 0;
                return std::nullopt;
            }
        }

        // 2. Pull heap events that entered the wheel horizon.
        migrate_heap();

        // 3. Earliest wheel candidates per level. Upper-level buckets are
        // known only by their start time; any bucket starting at or before
        // the level-0 minimum must cascade first.
        int idx0 = first_occupied(0);
        int idx1 = first_occupied(1);
        int idx2 = first_occupied(2);
        auto bucket_start = [this](int level, int index) {
            const int shift = kSlotBits * level;
            const std::int64_t cur = cursor_ >> shift;
            const std::int64_t dist =
                std::int64_t((std::uint32_t(index) - std::uint32_t(cur)) &
                             kSlotMask);
            return (cur + dist) << shift;
        };
        const std::int64_t t0 =
            idx0 >= 0 ? bucket_start(0, idx0) : std::int64_t(0);
        const std::int64_t s1 =
            idx1 >= 0 ? bucket_start(1, idx1) : std::int64_t(0);
        const std::int64_t s2 =
            idx2 >= 0 ? bucket_start(2, idx2) : std::int64_t(0);

        // The candidate taken below bounds every pending event from below
        // (late inserts sit in the cursor bucket, whose start is the
        // cursor itself), so one past both the cursor and `limit` means
        // nothing is due by `limit`: stop before the cursor moves there.
        const std::int64_t stop = std::max(cursor_, limit);
        if (idx0 < 0 && idx1 < 0 && idx2 < 0) {
            if (heap_.empty() || heap_.front().when > stop)
                return std::nullopt;
            // Jump the wheel to the far future and retry; migrate_heap will
            // move everything within the new horizon in.
            cursor_ = heap_.front().when;
            continue;
        }
        if (idx2 >= 0 && (idx0 < 0 || s2 <= t0) && (idx1 < 0 || s2 <= s1)) {
            if (s2 > stop) return std::nullopt;
            cursor_ = std::max(cursor_, s2);
            cascade(2, std::uint32_t(idx2));
            continue;
        }
        if (idx1 >= 0 && (idx0 < 0 || s1 <= t0)) {
            if (s1 > stop) return std::nullopt;
            cursor_ = std::max(cursor_, s1);
            cascade(1, std::uint32_t(idx1));
            continue;
        }
        if (t0 > stop) return std::nullopt;
        cursor_ = t0;
        detach_into_ready(std::uint32_t(idx0));
        ready_second_ = t0;
    }
}

}  // namespace dynaddr::sim
