//! A cancellable discrete-event queue with a built-in virtual clock.
//!
//! The queue is the engine of the whole simulation: the microkernel
//! scheduler, device models, heartbeat timers and policy-script `sleep`s all
//! schedule payloads here. Events at equal timestamps are delivered in
//! insertion order (FIFO), which keeps runs deterministic.
//!
//! It is a hierarchical timing wheel (Varghese & Lauck, SOSP '87): 11
//! levels of 64 buckets over the 64-bit microsecond clock, so scheduling,
//! cancelling and delivering an event cost a bounded number of steps
//! whether it is 1 µs or 10 s ahead. DESIGN §5r has the rules and why the
//! delivery order they give is exactly `(at, seq)`.

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled.
///
/// Ids are unique for the lifetime of one [`EventQueue`] and are never
/// reused: the slot an event occupied is, but the generation is part of
/// the id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    slot: u32,
    generation: u64,
}

/// One entry of the slab. A slot belongs to one event from `schedule_at`
/// until it is delivered or cancelled; then it goes back on the free list.
struct Slot<E> {
    /// Schedule sequence number of the current (or last) occupant: it
    /// never repeats, so a stale id can never match a later occupant.
    generation: u64,
    /// The occupant's payload while it is scheduled.
    payload: Option<E>,
}

/// Where a scheduled event sits in the wheel: 16 bytes beside its slot,
/// whatever the payload, so a bucket walk reads nothing else. A bucket is
/// a circular doubly-linked list of these, oldest first. Which bucket is
/// not stored: between calls it is always `bucket_of(at, now)`. A free
/// slot's `next` is the next free slot.
#[derive(Clone, Copy)]
struct Link {
    at: SimTime,
    next: u32,
    prev: u32,
}

/// Bits of the clock one level resolves: a level has 64 buckets.
const BITS: u32 = 6;
const WIDTH: usize = 1 << BITS;
/// 11 levels of 6 bits cover all 64 bits of the clock, so no event is
/// ever too far ahead for the wheel.
const LEVELS: usize = 11;
/// An empty bucket's head.
const NIL: u32 = u32::MAX;

/// The bucket an event at `at` belongs in while the wheel's reference time
/// is `base` (no later than `at`): the level of the highest 6-bit group in which
/// the two differ, and that group of `at`. A level-0 bucket therefore
/// holds one `at`, and a level-`l` bucket a range of 64^`l` µs.
fn bucket_of(at: SimTime, base: SimTime) -> usize {
    let (at, base) = (at.as_micros(), base.as_micros());
    let level = (63 - ((at ^ base) | 1).leading_zeros()) / BITS;
    level as usize * WIDTH + (at >> (level * BITS)) as usize % WIDTH
}

/// A priority queue of timed events driving a virtual clock.
///
/// Popping an event advances [`EventQueue::now`] to that event's timestamp.
/// Scheduling in the past is not allowed and panics, because it would break
/// causality within the simulation.
///
/// Payloads sit still in a slab; a hierarchical timing wheel orders them.
/// An event goes in the bucket [`bucket_of`] names relative to the clock,
/// at the tail of the bucket's list. Delivery takes the lowest bucket of
/// level 0, whose events all share one `at`; when level 0 is empty, the
/// lowest occupied bucket of the lowest occupied level is re-linked, in
/// list order, relative to its earliest `at`, which moves its events onto
/// the empty levels below. Every list stays in schedule order, so events
/// come out by `(at, seq)`.
///
/// Cancelling unlinks the event and frees its slot at once: an id is live
/// iff its slot's generation matches and the slot holds a payload.
///
/// # Example
///
/// ```
/// use phoenix_simcore::event::EventQueue;
/// use phoenix_simcore::time::SimDuration;
///
/// let mut q = EventQueue::new();
/// let doomed = q.schedule_after(SimDuration::from_secs(1), "never");
/// q.schedule_after(SimDuration::from_secs(2), "survivor");
/// q.cancel(doomed);
/// assert_eq!(q.pop().map(|(_, e)| e), Some("survivor"));
/// assert!(q.pop().is_none());
/// ```
pub struct EventQueue<E> {
    now: SimTime,
    next_seq: u64,
    slots: Vec<Slot<E>>,
    /// `links[i]` places `slots[i]` while it holds a payload.
    links: Vec<Link>,
    /// The most recently freed slot, or `NIL`.
    free: u32,
    /// The first (oldest) entry of each bucket, or `NIL`. Inline, so
    /// building a queue allocates nothing.
    heads: [u32; LEVELS * WIDTH],
    /// Bit `g` of `occupied[l]` is set iff bucket `g` of level `l` holds
    /// an event.
    occupied: [u64; LEVELS],
    len: usize,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            now: SimTime::ZERO,
            next_seq: 0,
            slots: Vec::new(),
            links: Vec::new(),
            free: NIL,
            heads: [NIL; LEVELS * WIDTH],
            occupied: [0; LEVELS],
            len: 0,
            popped: 0,
        }
    }

    /// The current virtual time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `payload` for delivery at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than [`EventQueue::now`].
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule event in the past: {at:?} < now {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let occupant = Slot {
            generation: seq,
            payload: Some(payload),
        };
        let link = Link {
            at,
            next: NIL,
            prev: NIL,
        };
        let slot = if self.free == NIL {
            // analyze:allow(panic-reach): a slab of 2^32 pending events
            // is hundreds of gigabytes; allocation fails long before.
            let slot = u32::try_from(self.slots.len()).expect("slab outgrew u32 slot ids");
            self.slots.push(occupant);
            self.links.push(link);
            slot
        } else {
            let slot = self.free;
            self.free = self.links[slot as usize].next;
            self.slots[slot as usize] = occupant;
            self.links[slot as usize] = link;
            slot
        };
        self.link(slot, self.now);
        self.len += 1;
        EventId {
            slot,
            generation: seq,
        }
    }

    /// Schedules `payload` for delivery `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedules `payload` for immediate delivery (at the current time, after
    /// already-pending events with the same timestamp).
    pub fn schedule_now(&mut self, payload: E) -> EventId {
        self.schedule_at(self.now, payload)
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending. Cancelling an already
    /// delivered or already cancelled event returns `false` and is harmless.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.cancel_if(id, |_| true)
    }

    /// Cancels the event `id` names if it is still pending and `mine`
    /// accepts its payload; `true` if it did. This is how a caller that
    /// hands ids out checks whose event an id names before acting on it.
    pub fn cancel_if(&mut self, id: EventId, mine: impl FnOnce(&E) -> bool) -> bool {
        let Some(slot) = self.slots.get_mut(id.slot as usize) else {
            return false;
        };
        if slot.generation != id.generation || !slot.payload.as_ref().is_some_and(mine) {
            return false;
        }
        self.drop_slot(id.slot);
        true
    }

    /// Cancels every pending event whose payload `doomed` accepts, in one
    /// walk of the slab.
    pub fn cancel_where(&mut self, mut doomed: impl FnMut(&E) -> bool) {
        for slot in 0..self.slots.len() {
            if self.slots[slot].payload.as_ref().is_some_and(&mut doomed) {
                // The slab never outgrows u32 (`schedule_at`).
                self.drop_slot(slot as u32);
            }
        }
    }

    /// Puts `slot` at the tail of the bucket its `at` belongs in relative
    /// to `base`.
    fn link(&mut self, slot: u32, base: SimTime) {
        let i = slot as usize;
        let bucket = bucket_of(self.links[i].at, base);
        let head = self.heads[bucket];
        if head == NIL {
            self.heads[bucket] = slot;
            self.occupied[bucket / WIDTH] |= 1 << (bucket % WIDTH);
            self.links[i].next = slot;
            self.links[i].prev = slot;
        } else {
            let tail = self.links[head as usize].prev;
            self.links[i].next = head;
            self.links[i].prev = tail;
            self.links[tail as usize].next = slot;
            self.links[head as usize].prev = slot;
        }
    }

    /// Takes `slot` out of `bucket`'s list and puts it on the free list.
    fn release(&mut self, slot: u32, bucket: usize) {
        let Link { next, prev, .. } = self.links[slot as usize];
        if next == slot {
            self.heads[bucket] = NIL;
            self.occupied[bucket / WIDTH] &= !(1 << (bucket % WIDTH));
        } else {
            self.links[prev as usize].next = next;
            self.links[next as usize].prev = prev;
            if self.heads[bucket] == slot {
                self.heads[bucket] = next;
            }
        }
        self.links[slot as usize].next = self.free;
        self.free = slot;
        self.len -= 1;
    }

    /// Drops a pending event's payload and releases its slot.
    fn drop_slot(&mut self, slot: u32) {
        self.slots[slot as usize].payload = None;
        self.release(slot, bucket_of(self.links[slot as usize].at, self.now));
    }

    /// Empties occupied `bucket` and links its entries again, in list
    /// order, relative to `base`, and returns the earliest `at` among them.
    /// Every entry must belong below `bucket`'s level relative to `base`,
    /// on levels that are empty: so each list they join keeps schedule
    /// order.
    fn relink(&mut self, bucket: usize, base: SimTime) -> SimTime {
        let first = self.heads[bucket];
        self.heads[bucket] = NIL;
        self.occupied[bucket / WIDTH] &= !(1 << (bucket % WIDTH));
        let mut earliest = self.links[first as usize].at;
        let mut slot = first;
        loop {
            let Link { at, next, .. } = self.links[slot as usize];
            earliest = earliest.min(at);
            self.link(slot, base);
            if next == first {
                return earliest;
            }
            slot = next;
        }
    }

    /// The earliest `at` in occupied `bucket`.
    fn earliest_in(&self, bucket: usize) -> SimTime {
        let first = self.heads[bucket];
        let mut earliest = self.links[first as usize].at;
        let mut slot = self.links[first as usize].next;
        while slot != first {
            earliest = earliest.min(self.links[slot as usize].at);
            slot = self.links[slot as usize].next;
        }
        earliest
    }

    /// The lowest occupied bucket of the lowest occupied level: it holds
    /// the earliest event.
    fn lowest_bucket(&self) -> Option<usize> {
        let level = self.occupied.iter().position(|&word| word != 0)?;
        Some(level * WIDTH + self.occupied[level].trailing_zeros() as usize)
    }

    /// Pops the earliest event if it is due at or before `t`, advancing
    /// the clock to its timestamp.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        loop {
            let bucket = self.lowest_bucket()?;
            let slot = self.heads[bucket];
            let at = self.links[slot as usize].at;
            // A level-`l` bucket's events share all but the lowest 6·`l`
            // bits of `at`: if that range starts after `t`, none is due.
            let shift = (bucket / WIDTH) as u32 * BITS;
            if at.as_micros() >> shift << shift > t.as_micros() {
                return None;
            }
            if bucket >= WIDTH {
                // Cascade the bucket towards its earliest event, or leave
                // everything where it is if that is not due.
                let earliest = self.earliest_in(bucket);
                if earliest > t {
                    return None;
                }
                self.relink(bucket, earliest);
                continue;
            }
            self.release(slot, bucket);
            let payload = self.slots[slot as usize].payload.take();
            // analyze:allow(panic-reach): a linked slot holds a payload;
            // cancelling takes both at once.
            let payload = payload.expect("linked slot without a payload");
            debug_assert!(at >= self.now, "event queue produced out-of-order event");
            self.now = at;
            self.popped += 1;
            return Some((at, payload));
        }
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when the queue is exhausted; the clock then stays at
    /// the time of the last delivered event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_due(SimTime::from_micros(u64::MAX))
    }

    /// Advances the clock to `t` without delivering anything.
    ///
    /// Used to account for idle periods at the end of a run.
    ///
    /// # Panics
    ///
    /// Panics if an event is scheduled before `t` (that event must be
    /// popped first) or if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance clock backwards");
        // Relative to the old clock, every event in a bucket below the one
        // `t` belongs in is earlier than `t`. Those in that bucket share
        // `t`'s groups from its level up: on level 0 that is all of `at`,
        // so they are due at `t` itself; above it they move below the
        // level, in the one walk that finds the earliest of them.
        let bucket = bucket_of(t, self.now);
        let (level, group) = (bucket / WIDTH, bucket % WIDTH);
        let below = self.occupied[..level].iter().any(|&word| word != 0)
            || self.occupied[level] & ((1 << group) - 1) != 0;
        let skipped = if below {
            self.lowest_bucket().map(|lowest| self.earliest_in(lowest))
        } else if level > 0 && self.heads[bucket] != NIL {
            Some(self.relink(bucket, t)).filter(|&earliest| earliest < t)
        } else {
            None
        };
        assert!(
            skipped.is_none(),
            "cannot skip over pending event at {:?} while advancing to {t:?}",
            skipped.unwrap_or(t)
        );
        self.now = t;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.len())
            .field("delivered", &self.popped)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(30), 3);
        q.schedule_at(SimTime::from_micros(10), 1);
        q.schedule_at(SimTime::from_micros(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.delivered(), 3);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(SimTime::from_micros(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_secs(2), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_micros(2_000_000));
    }

    #[test]
    fn cancel_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_after(SimDuration::from_micros(1), 'a');
        let b = q.schedule_after(SimDuration::from_micros(2), 'b');
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
        assert!(!q.cancel(b), "cancelling delivered event reports false");
    }

    #[test]
    fn cancel_unknown_id_is_harmless() {
        let mut q: EventQueue<()> = EventQueue::new();
        let unknown = EventId {
            slot: 999,
            generation: 999,
        };
        assert!(!q.cancel(unknown));
        q.schedule_now(());
        assert!(!q.cancel(unknown), "nor with a slot table to miss in");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pop_due_skips_cancelled_and_stops_at_the_limit() {
        let mut q = EventQueue::new();
        let a = q.schedule_after(SimDuration::from_micros(1), 'a');
        q.schedule_after(SimDuration::from_micros(5), 'b');
        q.cancel(a);
        assert_eq!(q.pop_due(SimTime::from_micros(4)), None);
        assert_eq!(q.now(), SimTime::ZERO, "nothing due: the clock stays");
        assert_eq!(
            q.pop_due(SimTime::from_micros(5)),
            Some((SimTime::from_micros(5), 'b'))
        );
        assert_eq!(q.pop_due(SimTime::from_micros(9)), None);
    }

    #[test]
    fn a_stale_id_does_not_cancel_the_slot_s_next_occupant() {
        let mut q = EventQueue::new();
        let first = q.schedule_after(SimDuration::from_micros(1), 'a');
        q.pop();
        let second = q.schedule_after(SimDuration::from_micros(1), 'b');
        assert_eq!(first.slot, second.slot, "the slot is reused");
        assert!(!q.cancel(first));
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    }

    #[test]
    fn a_cancelled_event_frees_its_slot_at_once() {
        let mut q = EventQueue::new();
        let parked = q.schedule_after(SimDuration::from_secs(10), 'a');
        assert!(q.cancel(parked));
        let next = q.schedule_after(SimDuration::from_secs(10), 'b');
        assert_eq!(parked.slot, next.slot, "the cancelled slot is reused");
        assert_eq!(q.len(), 1);
        assert!(!q.cancel(parked));
        assert_eq!(q.pop().map(|(_, e)| e), Some('b'));
    }

    #[test]
    fn cancel_if_asks_the_payload_and_cancel_where_walks_them_all() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..6u64)
            .map(|i| q.schedule_after(SimDuration::from_millis(i), i))
            .collect();
        assert!(!q.cancel_if(ids[2], |&e| e != 2), "not mine: left alone");
        assert!(q.cancel_if(ids[2], |&e| e == 2));
        assert!(!q.cancel_if(ids[2], |_| true), "already cancelled");
        q.cancel_where(|&e| e % 2 == 1);
        assert_eq!(q.len(), 2, "2 by id, then 1, 3 and 5");
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![0, 4]);
        assert!(!q.cancel_if(ids[0], |_| true), "delivered");
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_secs(1), ());
        q.pop();
        q.schedule_at(SimTime::from_micros(1), ());
    }

    #[test]
    fn schedule_now_runs_at_current_time() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_secs(1), 1);
        q.pop();
        q.schedule_now(2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_micros(1_000_000));
    }
}
