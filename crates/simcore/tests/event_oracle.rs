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

fn drive(seed: u64, steps: u64) {
    // analyze:allow(rng-construction): a test's own stream.
    let mut rng = SimRng::new(seed);
    let mut q = EventQueue::new();
    let mut model = Reference::default();
    // Every id issued so far — live, delivered and cancelled alike — so a
    // cancel draws from all three, and sometimes from neither.
    let mut ids = vec![never_issued(steps)];
    for step in 0..steps {
        let soon = |rng: &mut SimRng| q.now() + SimDuration::from_micros(rng.range_u64(0..400));
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
}

#[test]
fn the_slab_queue_answers_like_the_two_set_queue() {
    for seed in [1, 2007, 0xDEAD_BEEF] {
        drive(seed, 100_000);
    }
}
