//! Differential oracle for [`EventQueue`]: the queue it replaced — a heap
//! beside a `pending` and a `cancelled` set of ids — is kept here as the
//! reference model, and both are driven through the same random steps.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};
use phoenix_simcore::{EventId, EventQueue};

/// The two-set queue. Ids are schedule sequence numbers; `pop_due` is
/// spelled the way its callers used to spell it, peek then pop.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    now: SimTime,
    next_seq: u64,
    pending: BTreeSet<u64>,
    cancelled: BTreeSet<u64>,
    popped: u64,
}

impl Reference {
    fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }
    fn schedule_at(&mut self, at: SimTime, payload: u64) -> u64 {
        assert!(at >= self.now);
        let id = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, id, payload)));
        self.pending.insert(id);
        id
    }
    fn cancel(&mut self, id: u64) -> bool {
        self.pending.remove(&id) && self.cancelled.insert(id)
    }
    fn pop(&mut self) -> Option<(SimTime, u64)> {
        while let Some(Reverse((at, id, payload))) = self.heap.pop() {
            if self.cancelled.remove(&id) {
                continue;
            }
            self.pending.remove(&id);
            self.now = at;
            self.popped += 1;
            return Some((at, payload));
        }
        None
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((at, id, _))) = self.heap.peek() {
            if !self.cancelled.remove(&id) {
                return Some(at);
            }
            self.heap.pop();
        }
        None
    }
    fn pop_due(&mut self, t: SimTime) -> Option<(SimTime, u64)> {
        match self.peek_time() {
            Some(next) if next <= t => self.pop(),
            _ => None,
        }
    }
    fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now && self.peek_time().is_none_or(|next| next >= t));
        self.now = t;
    }
}

/// An id neither queue will issue in `steps` steps: the last of more
/// schedules than that, made on a queue of its own.
fn never_issued(steps: u64) -> (EventId, u64) {
    let mut foreign = EventQueue::new();
    let last = (0..=2 * steps)
        .map(|_| foreign.schedule_now(()))
        .last()
        .expect("at least one");
    (last, 2 * steps)
}

/// `steps` random steps on both queues, over `parked` events scheduled
/// 0.2–6 s ahead before the first step. A step's time is up to `reach_us`
/// ahead of the clock, so a reach beyond 1 ms schedules on both sides of
/// the queue's near/far line and pops across it.
fn drive(seed: u64, steps: u64, parked: u64, reach_us: u64) {
    // analyze:allow(rng-construction): a test's own stream.
    let mut rng = SimRng::new(seed);
    let mut q = EventQueue::new();
    let mut model = Reference::default();
    // Every id issued so far — live, delivered and cancelled alike — so a
    // cancel draws from all three, and sometimes from neither.
    let mut ids = vec![never_issued(steps + parked)];
    for n in 0..parked {
        let at = SimTime::from_micros(rng.range_u64(200_000..6_000_000));
        let payload = steps + n;
        ids.push((q.schedule_at(at, payload), model.schedule_at(at, payload)));
    }
    for step in 0..steps {
        let soon =
            |rng: &mut SimRng| q.now() + SimDuration::from_micros(rng.range_u64(0..reach_us));
        match rng.range_usize(0..100) {
            0..=34 => {
                let at = soon(&mut rng);
                ids.push((q.schedule_at(at, step), model.schedule_at(at, step)));
            }
            35..=44 => ids.push((q.schedule_now(step), model.schedule_at(model.now, step))),
            45..=64 => {
                let (id, model_id) = *rng.pick(&ids);
                assert_eq!(q.cancel(id), model.cancel(model_id), "step {step}: cancel");
            }
            65..=79 => assert_eq!(q.pop(), model.pop(), "step {step}: pop"),
            80..=94 => {
                let t = soon(&mut rng);
                assert_eq!(q.pop_due(t), model.pop_due(t), "step {step}: pop_due");
            }
            _ => {
                let t = soon(&mut rng);
                if model.peek_time().is_none_or(|next| next >= t) {
                    q.advance_to(t);
                    model.advance_to(t);
                }
            }
        }
        assert_eq!(q.now(), model.now, "step {step}: now");
        assert_eq!(q.len(), model.len(), "step {step}: len");
        assert_eq!(q.delivered(), model.popped, "step {step}: delivered");
    }
    assert!(
        q.delivered() > steps / 10 && !q.is_empty(),
        "the walk is trivial"
    );
    // Drained, the two agree on every event still parked.
    while let Some(next) = model.pop() {
        assert_eq!(q.pop(), Some(next), "drain");
    }
    assert_eq!(q.pop(), None);
}

#[test]
fn the_slab_queue_answers_like_the_two_set_queue() {
    for seed in [1, 2007, 0xDEAD_BEEF] {
        drive(seed, 100_000, 0, 400);
    }
}

#[test]
fn thirty_thousand_parked_events_under_near_churn() {
    drive(2007, 100_000, 30_000, 400);
}

#[test]
fn a_walk_that_schedules_and_pops_on_both_sides_of_a_millisecond() {
    for seed in [7, 1907] {
        drive(seed, 50_000, 2_000, 3_000);
    }
}

const fn us(n: u64) -> SimTime {
    SimTime::from_micros(n)
}

/// The first event is more than 1 ms ahead when it is scheduled, the
/// second less than 1 ms ahead of a later clock: same `at`, and the one
/// scheduled first still pops first.
#[test]
fn equal_times_scheduled_far_then_near_pop_in_schedule_order() {
    let mut q = EventQueue::new();
    q.schedule_at(us(5_000), "far");
    q.schedule_at(us(4_500), "clock");
    assert_eq!(q.pop(), Some((us(4_500), "clock")));
    q.schedule_at(us(5_000), "near");
    q.schedule_at(us(5_000), "near too");
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    let at = us(5_000);
    assert_eq!(order, [(at, "far"), (at, "near"), (at, "near too")]);
}

/// And the other way round: a near event scheduled first, a far event
/// that was parked long before it but is due later, interleaved by time.
#[test]
fn near_and_far_events_interleave_by_time() {
    let mut q = EventQueue::new();
    for at in [2_000, 4_000, 6_000] {
        q.schedule_at(us(at), at);
    }
    q.advance_to(us(1_500));
    for at in [1_600, 2_000, 2_400] {
        q.schedule_at(us(at), at + 1);
    }
    let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(order, [1_601, 2_000, 2_001, 2_401, 4_000, 6_000]);
    assert_eq!(q.delivered(), 6);
}

#[test]
fn cancel_near_far_and_through_a_reused_slot() {
    let mut q = EventQueue::new();
    let near = q.schedule_at(us(100), 'n');
    let far = q.schedule_at(us(50_000), 'f');
    q.schedule_at(us(200), 'm');
    q.schedule_at(us(60_000), 'g');
    assert_eq!(q.len(), 4);
    assert!(q.cancel(near) && q.cancel(far));
    assert!(!q.cancel(near) && !q.cancel(far), "once each");
    assert_eq!(q.len(), 2);
    assert_eq!(q.pop(), Some((us(200), 'm')));
    // Both cancelled entries have surfaced or will; whatever slots the
    // next schedules take, the old ids stay dead and the new ones work.
    let reused: Vec<_> = (0..4)
        .map(|i| q.schedule_at(us(300 + 20_000 * i), 'r'))
        .collect();
    assert!(!q.cancel(near) && !q.cancel(far), "stale ids miss");
    assert_eq!(q.len(), 5);
    assert!(q.cancel(reused[0]) && q.cancel(reused[3]));
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        order,
        [(us(20_300), 'r'), (us(40_300), 'r'), (us(60_000), 'g')]
    );
    assert!(
        reused.iter().all(|&id| !q.cancel(id)),
        "delivered or cancelled"
    );
    assert!(q.is_empty());
}

#[test]
fn pop_due_between_the_two_tops_takes_only_the_earlier() {
    // Far top earlier than near top.
    let mut q = EventQueue::new();
    q.schedule_at(us(3_000), "far");
    q.advance_to(us(2_500));
    q.schedule_at(us(3_200), "near");
    assert_eq!(q.pop_due(us(2_999)), None);
    assert_eq!(q.pop_due(us(3_100)), Some((us(3_000), "far")));
    assert_eq!(q.pop_due(us(3_100)), None);
    assert_eq!(q.now(), us(3_000), "the clock stops at the last delivery");
    assert_eq!(q.pop_due(us(3_200)), Some((us(3_200), "near")));
    // Near top earlier than far top.
    let mut q = EventQueue::new();
    q.schedule_at(us(9_000), "far");
    q.schedule_at(us(500), "near");
    assert_eq!(q.pop_due(us(8_999)), Some((us(500), "near")));
    assert_eq!(q.pop_due(us(8_999)), None);
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop_due(us(9_000)), Some((us(9_000), "far")));
}

#[test]
#[should_panic(expected = "cannot skip over pending event")]
fn advance_to_panics_over_a_pending_near_event() {
    let mut q = EventQueue::new();
    q.schedule_at(us(50_000), ());
    q.schedule_at(us(300), ());
    q.advance_to(us(301));
}

#[test]
#[should_panic(expected = "cannot skip over pending event")]
fn advance_to_panics_over_a_pending_far_event() {
    let mut q = EventQueue::new();
    q.schedule_at(us(50_000), ());
    let near = q.schedule_at(us(300), ());
    q.cancel(near);
    q.advance_to(us(49_999));
    q.advance_to(us(50_001));
}
