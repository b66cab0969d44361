//! A cancellable discrete-event queue with a built-in virtual clock.
//!
//! The queue is the engine of the whole simulation: the microkernel
//! scheduler, device models, heartbeat timers and policy-script `sleep`s all
//! schedule payloads here. Events at equal timestamps are delivered in
//! insertion order (FIFO), which keeps runs deterministic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// One entry of the slab. A slot belongs to one heap key from `schedule_at`
/// until that key leaves its heap (delivered, or discarded as cancelled);
/// only then does it go back on the free list.
struct Slot<E> {
    /// Schedule sequence number of the current (or last) occupant: it
    /// never repeats, so a stale id can never match a later occupant.
    generation: u64,
    /// The occupant's payload while it is scheduled and not cancelled.
    payload: Option<E>,
}

/// What the heaps order: 24 bytes whatever the payload, earliest `at`
/// first and insertion order within it. `seq` is unique, so `slot` never
/// decides a comparison.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// `BinaryHeap` is a max-heap; `Reverse` pops the smallest key first.
type Heap = BinaryHeap<Reverse<Key>>;

/// An event scheduled at most this far ahead goes on the near heap, any
/// other on the far heap: message and interrupt latencies are tens of
/// microseconds, heartbeats and deadlines hundreds of milliseconds, so
/// the traffic sifts through the few events about to happen and not
/// through every parked timer. 100 µs, 1 ms, 10 ms and 100 ms measured
/// within 5 % of each other on the benchmark's `slo_chaos` and `mutation`.
const NEAR_HORIZON: SimDuration = SimDuration::from_millis(1);

/// A priority queue of timed events driving a virtual clock.
///
/// Popping an event advances [`EventQueue::now`] to that event's timestamp.
/// Scheduling in the past is not allowed and panics, because it would break
/// causality within the simulation.
///
/// Payloads sit still in a slab; two heaps, near and far, order 24-byte
/// keys into it, and the next event is whichever heap's top is earlier by
/// `(at, seq)`. Which heap a key went on decides only what it costs.
///
/// Cancellation is lazy: the payload is dropped at once, the key stays
/// where it is and is skipped when it surfaces. What makes that O(1) is
/// the slab — an id is live iff its slot's generation matches and the slot
/// holds a payload.
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
    near: Heap,
    far: Heap,
    now: SimTime,
    next_seq: u64,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    /// Keys, in either heap, whose slot no longer holds a payload.
    cancelled: usize,
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
            near: BinaryHeap::new(),
            far: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            cancelled: 0,
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

    /// Number of pending (non-cancelled) events, over the two heaps.
    pub fn len(&self) -> usize {
        self.near.len() + self.far.len() - self.cancelled
    }

    /// `true` if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = occupant;
                slot
            }
            None => {
                // analyze:allow(panic-reach): a slab of 2^32 pending events
                // is hundreds of gigabytes; allocation fails long before.
                let slot = u32::try_from(self.slots.len()).expect("slab outgrew u32 slot ids");
                self.slots.push(occupant);
                slot
            }
        };
        let heap = if at - self.now <= NEAR_HORIZON {
            &mut self.near
        } else {
            &mut self.far
        };
        heap.push(Reverse(Key { at, seq, slot }));
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
        // We cannot remove from the middle of a BinaryHeap; empty the slot
        // and skip its key at pop time (lazy deletion).
        match self.slots.get_mut(id.slot as usize) {
            Some(slot) if slot.generation == id.generation => {
                let hit = slot.payload.as_ref().is_some_and(mine);
                if hit {
                    slot.payload = None;
                    self.cancelled += 1;
                }
                hit
            }
            _ => false,
        }
    }

    /// Cancels every pending event whose payload `doomed` accepts, in one
    /// walk of the slab.
    pub fn cancel_where(&mut self, mut doomed: impl FnMut(&E) -> bool) {
        for slot in &mut self.slots {
            if slot.payload.as_ref().is_some_and(&mut doomed) {
                slot.payload = None;
                self.cancelled += 1;
            }
        }
    }

    /// The earliest live key of `heap`, discarding the cancelled keys
    /// above it.
    fn live_top(
        heap: &mut Heap,
        slots: &[Slot<E>],
        free: &mut Vec<u32>,
        cancelled: &mut usize,
    ) -> Option<Key> {
        while let Some(&Reverse(top)) = heap.peek() {
            if slots[top.slot as usize].payload.is_some() {
                return Some(top);
            }
            heap.pop();
            free.push(top.slot);
            *cancelled -= 1;
        }
        None
    }

    /// The earliest live key of the two heaps, and whether it is the far
    /// heap's.
    fn next_live(&mut self) -> Option<(Key, bool)> {
        let (slots, free, cancelled) = (&self.slots, &mut self.free, &mut self.cancelled);
        let near = Self::live_top(&mut self.near, slots, free, cancelled);
        let far = Self::live_top(&mut self.far, slots, free, cancelled);
        match (near, far) {
            (Some(n), Some(f)) if f < n => Some((f, true)),
            (Some(n), _) => Some((n, false)),
            (None, f) => f.map(|f| (f, true)),
        }
    }

    /// Pops the earliest live event if it is due at or before `t`,
    /// advancing the clock to its timestamp.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        let (key, far) = self.next_live()?;
        if key.at > t {
            return None;
        }
        let heap = if far { &mut self.far } else { &mut self.near };
        heap.pop();
        let payload = self.slots[key.slot as usize].payload.take();
        // analyze:allow(panic-reach): `next_live` returns only a key whose
        // slot holds a payload, and nothing ran since.
        let payload = payload.expect("live key without a payload");
        self.free.push(key.slot);
        debug_assert!(
            key.at >= self.now,
            "event queue produced out-of-order event"
        );
        self.now = key.at;
        self.popped += 1;
        Some((key.at, payload))
    }

    /// Pops the earliest live event, advancing the clock to its timestamp.
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
    /// Panics if a live event is scheduled before `t` (that event must be
    /// popped first) or if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance clock backwards");
        if let Some((next, _)) = self.next_live() {
            assert!(
                next.at >= t,
                "cannot skip over pending event at {:?} while advancing to {t:?}",
                next.at
            );
        }
        self.now = t;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    /// `pending` counts the live events of the two heaps together.
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
