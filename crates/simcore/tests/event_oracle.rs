//! Differential oracle for [`EventQueue`]: the queue it replaced — a heap
//! beside a `pending` and a `cancelled` set of ids — is kept here as the
//! reference model, and both are driven through the same random steps.
//!
//! The scripted cases that speak of *near* and *far* events were written
//! for the two-heap queue between the two, which kept events more than
//! 1 ms ahead on a heap of their own. On today's timing wheel the same
//! events sit on different levels, so the cases still cut where a split
//! can go wrong; the cases after them cut at the wheel's own boundaries.

use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};
use std::ops::Range;
use std::time::Instant;

use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::SimTime;
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

/// One random walk: `steps` steps on both queues, over `parked` events
/// scheduled `park_us` ahead of `start_us` before the first step. A step's
/// time is up to `reach_us` ahead of the clock (clamped to the top of the
/// clock), so a reach beyond 64^`l` µs schedules and pops across the
/// wheel's level `l`.
struct Walk {
    seed: u64,
    steps: u64,
    parked: u64,
    park_us: Range<u64>,
    reach_us: u64,
    start_us: u64,
}

impl Walk {
    /// A walk from time zero over events parked 0.2–6 s ahead.
    fn new(seed: u64, steps: u64, parked: u64, reach_us: u64) -> Self {
        Walk {
            seed,
            steps,
            parked,
            park_us: 200_000..6_000_000,
            reach_us,
            start_us: 0,
        }
    }

    /// Runs the walk and drains both queues; the events delivered.
    fn drive(&self) -> u64 {
        let Walk {
            seed,
            steps,
            parked,
            reach_us,
            ..
        } = *self;
        // analyze:allow(rng-construction): a test's own stream.
        let mut rng = SimRng::new(seed);
        let mut q = EventQueue::new();
        let mut model = Reference::default();
        let start = SimTime::from_micros(self.start_us);
        q.advance_to(start);
        model.advance_to(start);
        let ahead =
            |now: SimTime, us: u64| SimTime::from_micros(now.as_micros().saturating_add(us));
        // Every id issued so far — live, delivered and cancelled alike — so a
        // cancel draws from all three, and sometimes from neither.
        let mut ids = vec![never_issued(steps + parked)];
        for n in 0..parked {
            let at = ahead(start, rng.range_u64(self.park_us.clone()));
            let payload = steps + n;
            ids.push((q.schedule_at(at, payload), model.schedule_at(at, payload)));
        }
        for step in 0..steps {
            let soon = |rng: &mut SimRng| ahead(q.now(), rng.range_u64(0..reach_us));
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
        q.delivered()
    }
}

/// Walk length: a release build (`ci.sh`) runs ten times the steps of a
/// debug build.
const SCALE: u64 = if cfg!(debug_assertions) { 1 } else { 10 };

/// Runs `walks` and prints their total steps and deliveries and the wall
/// seconds they took.
fn run(name: &str, walks: &[Walk]) {
    let t0 = Instant::now();
    let delivered: u64 = walks.iter().map(Walk::drive).sum();
    let steps: u64 = walks.iter().map(|w| w.steps).sum();
    println!(
        "oracle {name}: {} walks, {steps} steps, {delivered} delivered, wall {:.2} s",
        walks.len(),
        t0.elapsed().as_secs_f64()
    );
}

#[test]
fn the_slab_queue_answers_like_the_two_set_queue() {
    let walks = [1, 2007, 0xDEAD_BEEF].map(|seed| Walk::new(seed, 100_000 * SCALE, 0, 400));
    run("unparked", &walks);
}

#[test]
fn thirty_thousand_parked_events_under_near_churn() {
    run("parked", &[Walk::new(2007, 100_000 * SCALE, 30_000, 400)]);
}

#[test]
fn a_walk_that_schedules_and_pops_on_both_sides_of_a_millisecond() {
    let walks = [7, 1907].map(|seed| Walk::new(seed, 50_000 * SCALE, 2_000, 3_000));
    run("millisecond", &walks);
}

const HOUR_US: u64 = 3_600_000_000;

/// A reach just past each level's span — 64 µs, 4,096 µs, 262,144 µs and
/// 16.8 s — over events parked one hour to three days ahead, which only
/// the drain (or a pop with nothing nearer) reaches, through every level
/// above.
#[test]
fn walks_across_each_level_boundary_over_events_parked_for_days() {
    let walks = [100, 5_000, 300_000, 20_000_000].map(|reach_us| Walk {
        park_us: HOUR_US..72 * HOUR_US,
        ..Walk::new(reach_us, 40_000 * SCALE, 5_000, reach_us)
    });
    run("levels", &walks);
}

/// The same walks within 2^20 µs of the top of the clock, where the
/// highest level has 16 buckets and `at` saturates at `u64::MAX`.
#[test]
fn walks_at_the_top_of_the_clock() {
    let walks = [64, 5_000, 1 << 19].map(|reach_us| Walk {
        park_us: 0..1 << 20,
        start_us: u64::MAX - (1 << 20),
        ..Walk::new(reach_us, 20_000 * SCALE, 500, reach_us)
    });
    run("top", &walks);
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

/// One `at`, 1 s ahead: parked on level 3 from time zero, scheduled again
/// on level 2 once a pop has brought the clock within 4 ms, and twice more
/// on level 1 within 64 µs. The four meet in one level-0 bucket and pop in
/// schedule order.
#[test]
fn the_same_time_reached_through_three_levels_pops_in_schedule_order() {
    let at = us(1_000_000);
    let mut q = EventQueue::new();
    q.schedule_at(at, "far");
    q.schedule_at(us(997_000), "clock");
    assert_eq!(q.pop(), Some((us(997_000), "clock")));
    q.schedule_at(at, "mid");
    q.schedule_at(us(999_990), "clock");
    assert_eq!(q.pop(), Some((us(999_990), "clock")));
    q.schedule_at(at, "near");
    q.schedule_at(at, "near too");
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        order,
        [(at, "far"), (at, "mid"), (at, "near"), (at, "near too")]
    );
}

/// 5,000 and 6,000 µs share the level-2 bucket [4,096, 8,192), the later
/// one at its head. A `pop_due` inside that range but before 5,000 moves
/// nothing: not the clock, not the count, not what pops next.
#[test]
fn pop_due_inside_a_parked_bucket_before_its_earliest_entry_moves_nothing() {
    let mut q = EventQueue::new();
    q.schedule_at(us(6_000), 'b');
    q.schedule_at(us(5_000), 'a');
    for t in [4_096, 4_500, 4_999] {
        assert_eq!(q.pop_due(us(t)), None);
        assert_eq!((q.now(), q.len(), q.delivered()), (us(0), 2, 0));
    }
    assert_eq!(q.pop_due(us(5_999)), Some((us(5_000), 'a')));
    assert_eq!(q.pop_due(us(5_999)), None);
    assert_eq!(q.now(), us(5_000));
    assert_eq!(q.pop(), Some((us(6_000), 'b')));
}

/// Advancing into that bucket's range moves its entries below it; an event
/// scheduled after that, earlier than all of them, pops first, and one at
/// an equal time pops after the parked one.
#[test]
fn advance_to_into_a_parked_bucket_then_schedule_before_its_first_entry() {
    let mut q = EventQueue::new();
    q.schedule_at(us(6_000), 'c');
    q.schedule_at(us(5_000), 'a');
    q.advance_to(us(4_500));
    assert_eq!((q.now(), q.len()), (us(4_500), 2));
    q.schedule_at(us(4_600), 'x');
    q.schedule_at(us(5_000), 'b');
    q.schedule_now('n');
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        order,
        [
            (us(4_500), 'n'),
            (us(4_600), 'x'),
            (us(5_000), 'a'),
            (us(5_000), 'b'),
            (us(6_000), 'c')
        ]
    );
}

/// Entries cascaded out of their bucket — by a pop, and by `advance_to` —
/// are cancelled where they landed, and the count and order follow.
#[test]
fn cancel_an_entry_that_has_already_been_cascaded() {
    let mut q = EventQueue::new();
    let a = q.schedule_at(us(5_000), 'a');
    let b = q.schedule_at(us(5_000), 'b');
    let c = q.schedule_at(us(6_000), 'c');
    let d = q.schedule_at(us(300_000), 'd');
    let e = q.schedule_at(us(300_001), 'e');
    q.schedule_at(us(4_999), 'x');
    // The pop of 'x' cascades [4,096, 8,192) down to 4,999.
    assert_eq!(q.pop(), Some((us(4_999), 'x')));
    assert!(q.cancel(a) && q.cancel(c));
    assert!(!q.cancel(a), "once");
    assert_eq!(q.len(), 3);
    assert_eq!(q.pop(), Some((us(5_000), 'b')));
    // Advancing into [262,144, 524,288) cascades 'd' and 'e'.
    q.advance_to(us(299_000));
    assert!(q.cancel(e));
    assert_eq!(q.len(), 1);
    assert_eq!(q.pop(), Some((us(300_000), 'd')));
    assert!(![a, b, c, d, e].into_iter().any(|id| q.cancel(id)));
    assert!(q.is_empty());
}

/// Within 2^20 µs of `u64::MAX` µs: the top level has 16 buckets, and an
/// event at `u64::MAX` itself is due for `pop`.
#[test]
fn times_at_the_top_of_the_clock() {
    const TOP: u64 = u64::MAX;
    let mut q = EventQueue::new();
    q.schedule_at(us(TOP), "last");
    q.schedule_at(us(TOP - (1 << 20)), "start");
    q.schedule_at(us(TOP - 70), "late");
    q.schedule_at(us(0), "zero");
    q.schedule_at(us(TOP), "last too");
    assert_eq!(q.pop(), Some((us(0), "zero")));
    assert_eq!(q.pop(), Some((us(TOP - (1 << 20)), "start")));
    q.schedule_at(us(TOP - 50), "mid");
    assert_eq!(q.pop_due(us(TOP - 71)), None);
    q.advance_to(us(TOP - 100));
    q.schedule_at(us(TOP - 1), "penultimate");
    let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
    assert_eq!(
        order,
        [
            (us(TOP - 70), "late"),
            (us(TOP - 50), "mid"),
            (us(TOP - 1), "penultimate"),
            (us(TOP), "last"),
            (us(TOP), "last too")
        ]
    );
    assert_eq!(q.now(), us(TOP));
    q.schedule_now("now");
    q.advance_to(us(TOP));
    assert_eq!(q.pop(), Some((us(TOP), "now")));
}
