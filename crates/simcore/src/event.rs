//! A cancellable discrete-event queue with a built-in virtual clock.
//!
//! The queue is the engine of the whole simulation: the microkernel
//! scheduler, device models, heartbeat timers and policy-script `sleep`s all
//! schedule payloads here. Events at equal timestamps are delivered in
//! insertion order (FIFO), which keeps runs deterministic.

use std::cmp::Ordering;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use crate::time::{SimDuration, SimTime};

/// Identifies a scheduled event so it can be cancelled.
///
/// Ids are unique for the lifetime of one [`EventQueue`] and are never
/// reused: the slot an event occupied is, but the generation is part of
/// the id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId {
    slot: usize,
    generation: u64,
}

/// One entry of the liveness slab. A slot belongs to one heap entry from
/// `schedule_at` until that entry leaves the heap (delivered, or discarded
/// as cancelled); only then does it go back on the free list.
struct Slot {
    /// Schedule sequence number of the current (or last) occupant: it
    /// never repeats, so a stale id can never match a later occupant.
    generation: u64,
    /// Set while the occupant is scheduled and not cancelled.
    live: bool,
}

struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    slot: usize,
    payload: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first,
        // breaking ties by insertion order.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A priority queue of timed events driving a virtual clock.
///
/// Popping an event advances [`EventQueue::now`] to that event's timestamp.
/// Scheduling in the past is not allowed and panics, because it would break
/// causality within the simulation.
///
/// Cancellation is lazy: the heap entry stays where it is and is skipped
/// when it surfaces. What makes that O(1) is the slab beside the heap — an
/// id is live iff its slot's generation matches and the slot's `live` flag
/// is set.
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
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    next_seq: u64,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Heap entries whose slot is no longer live.
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
            heap: BinaryHeap::new(),
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

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled
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
            live: true,
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot] = occupant;
                slot
            }
            None => {
                self.slots.push(occupant);
                self.slots.len() - 1
            }
        };
        self.heap.push(Scheduled {
            at,
            seq,
            slot,
            payload,
        });
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
        // We cannot remove from the middle of a BinaryHeap; clear the
        // slot's flag and skip the entry at pop time (lazy deletion).
        match self.slots.get_mut(id.slot) {
            Some(slot) if slot.generation == id.generation && slot.live => {
                slot.live = false;
                self.cancelled += 1;
                true
            }
            _ => false,
        }
    }

    /// Timestamp of the earliest live event, discarding the cancelled
    /// entries above it.
    fn next_live_at(&mut self) -> Option<SimTime> {
        while let Some(top) = self.heap.peek_mut() {
            if self.slots[top.slot].live {
                return Some(top.at);
            }
            self.free.push(PeekMut::pop(top).slot);
            self.cancelled -= 1;
        }
        None
    }

    /// Pops the earliest live event if it is due at or before `t`,
    /// advancing the clock to its timestamp.
    pub fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, E)> {
        if self.next_live_at()? > t {
            return None;
        }
        // analyze:allow(panic-reach): `next_live_at` returned the time of
        // the heap's top entry one line up; pop cannot miss.
        let s = self.heap.pop().expect("peeked event vanished");
        self.slots[s.slot].live = false;
        self.free.push(s.slot);
        debug_assert!(s.at >= self.now, "event queue produced out-of-order event");
        self.now = s.at;
        self.popped += 1;
        Some((s.at, s.payload))
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
        if let Some(next) = self.next_live_at() {
            assert!(
                next >= t,
                "cannot skip over pending event at {next:?} while advancing to {t:?}"
            );
        }
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
