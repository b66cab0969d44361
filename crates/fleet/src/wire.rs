//! The inter-node wire: a full mesh of directed links with fixed
//! latency, per-link loss/cut windows (the node-level chaos surface),
//! and a deterministic delivery queue.
//!
//! Every directed link draws its loss trials from its own RNG stream,
//! forked off the fleet seed by `(domain, a·256 + b)` — so two runs of
//! the same fleet replay byte-identically, and chaos on one link never
//! perturbs another link's stream.

use std::collections::BTreeMap;

use phoenix_fault::LinkDirection;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::proto::Frame;

/// What a link carries: typed gossip frames for the backbone, encoded
/// transport segments for the snapshot transfer layer.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A fleet backbone frame.
    Gossip(Frame),
    /// An encoded [`phoenix_servers::netproto::Segment`].
    Transfer(Vec<u8>),
}

/// One delivered payload.
#[derive(Clone, Debug)]
pub struct Delivery {
    /// Destination node.
    pub to: u8,
    /// Originating node.
    pub from: u8,
    /// The payload.
    pub payload: Payload,
}

/// Per-directed-link state: chaos windows plus the loss RNG.
#[derive(Debug)]
struct Link {
    /// Hard cut active until this time.
    cut_until: SimTime,
    /// Elevated loss active until this time.
    loss_until: SimTime,
    /// Per-frame drop probability while the loss window is open.
    loss_prob: f64,
    rng: SimRng,
}

/// Counters the campaign digest folds in.
#[derive(Clone, Copy, Debug, Default)]
pub struct WireStats {
    /// Frames offered to the wire.
    pub sent: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Frames dropped by an open loss window.
    pub dropped_loss: u64,
    /// Frames dropped by a hard cut.
    pub dropped_cut: u64,
}

/// The fleet's inter-node network.
#[derive(Debug)]
pub struct FleetWire {
    latency: SimDuration,
    links: BTreeMap<(u8, u8), Link>,
    queue: BTreeMap<(SimTime, u64), Delivery>,
    next_seq: u64,
    /// Delivery/drop counters.
    pub stats: WireStats,
}

impl FleetWire {
    /// Builds the full mesh for `n` nodes. `rng` is the fleet root RNG;
    /// each directed link forks its own stream from it.
    pub fn new(n: u8, latency: SimDuration, rng: &SimRng) -> FleetWire {
        let mut links = BTreeMap::new();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                links.insert(
                    (a, b),
                    Link {
                        cut_until: SimTime::ZERO,
                        loss_until: SimTime::ZERO,
                        loss_prob: 0.0,
                        rng: rng.fork_indexed("fleet-link", u64::from(a) * 256 + u64::from(b)),
                    },
                );
            }
        }
        FleetWire {
            latency,
            links,
            queue: BTreeMap::new(),
            next_seq: 0,
            stats: WireStats::default(),
        }
    }

    /// Offers one payload to the directed link `from -> to`. Applies the
    /// link's cut and loss windows, then enqueues for delivery one
    /// latency later.
    pub fn send(&mut self, now: SimTime, from: u8, to: u8, payload: Payload) {
        self.stats.sent += 1;
        let Some(link) = self.links.get_mut(&(from, to)) else {
            return;
        };
        if now < link.cut_until {
            self.stats.dropped_cut += 1;
            return;
        }
        if now < link.loss_until && link.loss_prob > 0.0 && link.rng.chance(link.loss_prob) {
            self.stats.dropped_loss += 1;
            return;
        }
        let at = now + self.latency;
        self.queue
            .insert((at, self.next_seq), Delivery { to, from, payload });
        self.next_seq += 1;
    }

    /// Removes and returns every payload due at or before `now`, in
    /// (time, send order).
    pub fn pop_due(&mut self, now: SimTime) -> Vec<Delivery> {
        let mut due = Vec::new();
        while self.next_delivery_at().is_some_and(|at| at <= now) {
            if let Some((_, d)) = self.queue.pop_first() {
                self.stats.delivered += 1;
                due.push(d);
            }
        }
        due
    }

    /// When the payload at the head of the queue falls due, if any is
    /// queued.
    pub fn next_delivery_at(&self) -> Option<SimTime> {
        self.queue.first_key_value().map(|(&(at, _), _)| at)
    }

    /// Opens a hard-cut window on the `a`/`b` link pair in the given
    /// direction(s) until `until`.
    pub fn partition(&mut self, a: u8, b: u8, direction: LinkDirection, until: SimTime) {
        for (x, y) in directed(a, b, direction) {
            if let Some(link) = self.links.get_mut(&(x, y)) {
                link.cut_until = link.cut_until.max(until);
            }
        }
    }

    /// Opens an elevated-loss window on the `a`/`b` link pair in the
    /// given direction(s) until `until`.
    pub fn set_loss(&mut self, a: u8, b: u8, direction: LinkDirection, prob: f64, until: SimTime) {
        for (x, y) in directed(a, b, direction) {
            if let Some(link) = self.links.get_mut(&(x, y)) {
                link.loss_prob = prob;
                link.loss_until = link.loss_until.max(until);
            }
        }
    }
}

/// The directed link keys a fault direction selects on the `a`/`b` pair.
fn directed(a: u8, b: u8, direction: LinkDirection) -> Vec<(u8, u8)> {
    match direction {
        LinkDirection::Both => vec![(a, b), (b, a)],
        LinkDirection::AToB => vec![(a, b)],
        LinkDirection::BToA => vec![(b, a)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Frame;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn hb(from: u8) -> Payload {
        Payload::Gossip(Frame::heartbeat(from, 1, Vec::new()))
    }

    #[test]
    fn delivers_after_latency_in_send_order() {
        let rng = SimRng::new(1);
        let mut wire = FleetWire::new(3, SimDuration::from_millis(1), &rng);
        wire.send(t(0), 0, 1, hb(0));
        wire.send(t(0), 2, 1, hb(2));
        assert_eq!(wire.next_delivery_at(), Some(t(1)));
        assert!(wire.pop_due(t(0)).is_empty());
        let due = wire.pop_due(t(1));
        assert_eq!(due.len(), 2);
        assert_eq!((due[0].from, due[1].from), (0, 2));
        assert_eq!(wire.stats.delivered, 2);
        assert_eq!(wire.next_delivery_at(), None);
    }

    #[test]
    fn one_way_cut_blocks_only_that_direction() {
        let rng = SimRng::new(2);
        let mut wire = FleetWire::new(2, SimDuration::from_millis(1), &rng);
        wire.partition(0, 1, LinkDirection::AToB, t(10));
        wire.send(t(5), 0, 1, hb(0));
        wire.send(t(5), 1, 0, hb(1));
        let due = wire.pop_due(t(6));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].from, 1, "only the reverse direction delivers");
        assert_eq!(wire.stats.dropped_cut, 1);
        // The window expires: the cut direction heals.
        wire.send(t(10), 0, 1, hb(0));
        assert_eq!(wire.pop_due(t(11)).len(), 1);
    }

    #[test]
    fn loss_window_drops_probabilistically_then_heals() {
        let rng = SimRng::new(3);
        let mut wire = FleetWire::new(2, SimDuration::from_millis(1), &rng);
        wire.set_loss(0, 1, LinkDirection::Both, 1.0, t(10));
        wire.send(t(1), 0, 1, hb(0));
        wire.send(t(1), 1, 0, hb(1));
        assert!(wire.pop_due(t(2)).is_empty());
        assert_eq!(wire.stats.dropped_loss, 2);
        wire.send(t(10), 0, 1, hb(0));
        assert_eq!(wire.pop_due(t(11)).len(), 1);
    }
}
