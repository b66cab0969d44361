//! The inter-node wire: a full mesh of directed links with fixed
//! latency, per-link loss/cut windows (the node-level chaos surface),
//! and a deterministic delivery queue.
//!
//! Every directed link draws its loss trials from its own RNG stream,
//! forked off the fleet seed by `(domain, a·256 + b)` — so two runs of
//! the same fleet replay byte-identically, and chaos on one link never
//! perturbs another link's stream.
//!
//! The delivery queue is a FIFO: the latency is one constant and the
//! fleet's clock never goes back, so each send falls due no earlier than
//! every send before it and lands at the back. (A send stamped earlier
//! than one already queued is still placed in time order.)

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;

use phoenix_fault::LinkDirection;
use phoenix_servers::netproto::Segment;
use phoenix_simcore::rng::SimRng;
use phoenix_simcore::time::{SimDuration, SimTime};

use crate::link::Chunk;
use crate::proto::Frame;

/// What a link carries: typed gossip frames for the backbone, transport
/// segments for the snapshot transfer layer. The wire drops payloads but
/// never corrupts one, so a segment travels as the value, not its
/// encoding, and a data segment shares its bytes with its sender's image.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A fleet backbone frame.
    Gossip(Frame),
    /// A snapshot-transfer data segment.
    Transfer(Segment<Chunk>),
    /// A snapshot-transfer cumulative ACK, which carries no payload.
    TransferAck(Segment<()>),
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

/// The payloads [`FleetWire::pop_due`] takes off the queue. Dropping it
/// removes them all, read or not: they count as delivered.
#[derive(Debug)]
pub struct Due<'a>(Drain<'a, (SimTime, Delivery)>);

impl Iterator for Due<'_> {
    type Item = Delivery;

    fn next(&mut self) -> Option<Delivery> {
        self.0.next().map(|(_, d)| d)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
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
    n: usize,
    latency: SimDuration,
    /// The link `a -> b` at `a * n + b`; the diagonal is never read.
    links: Vec<Link>,
    /// Payloads and when they fall due, in (time, send order).
    queue: VecDeque<(SimTime, Delivery)>,
    /// Delivery/drop counters.
    pub stats: WireStats,
}

impl FleetWire {
    /// Builds the full mesh for `n` nodes. `rng` is the fleet root RNG;
    /// each directed link forks its own stream from it.
    pub fn new(n: u8, latency: SimDuration, rng: &SimRng) -> FleetWire {
        let links = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .map(|(a, b)| Link {
                cut_until: SimTime::ZERO,
                loss_until: SimTime::ZERO,
                loss_prob: 0.0,
                rng: rng.fork_indexed("fleet-link", u64::from(a) * 256 + u64::from(b)),
            })
            .collect();
        FleetWire {
            n: usize::from(n),
            latency,
            links,
            queue: VecDeque::new(),
            stats: WireStats::default(),
        }
    }

    /// Where the directed link `from -> to` sits in `links`; `None` for a
    /// self-link or a node past the mesh.
    fn index(&self, from: u8, to: u8) -> Option<usize> {
        let (from, to) = (usize::from(from), usize::from(to));
        (from != to && from < self.n && to < self.n).then_some(from * self.n + to)
    }

    /// Offers one payload to the directed link `from -> to`. Applies the
    /// link's cut and loss windows, then enqueues for delivery one
    /// latency later.
    pub fn send(&mut self, now: SimTime, from: u8, to: u8, payload: Payload) {
        self.stats.sent += 1;
        let Some(link) = self.index(from, to).and_then(|i| self.links.get_mut(i)) else {
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
        let behind = self.queue.partition_point(|&(t, _)| t <= at);
        self.queue
            .insert(behind, (at, Delivery { to, from, payload }));
    }

    /// Removes every payload due at or before `now` and yields it, in
    /// (time, send order), straight out of the queue.
    pub fn pop_due(&mut self, now: SimTime) -> Due<'_> {
        let due = self.queue.partition_point(|&(at, _)| at <= now);
        self.stats.delivered += due as u64;
        Due(self.queue.drain(..due))
    }

    /// When the payload at the head of the queue falls due, if any is
    /// queued.
    pub fn next_delivery_at(&self) -> Option<SimTime> {
        self.queue.front().map(|&(at, _)| at)
    }

    /// Opens a hard-cut window on the `a`/`b` link pair in the given
    /// direction(s) until `until`.
    pub fn partition(&mut self, a: u8, b: u8, direction: LinkDirection, until: SimTime) {
        for (x, y) in directed(a, b, direction) {
            if let Some(link) = self.index(x, y).and_then(|i| self.links.get_mut(i)) {
                link.cut_until = link.cut_until.max(until);
            }
        }
    }

    /// Opens an elevated-loss window on the `a`/`b` link pair in the
    /// given direction(s) until `until`.
    pub fn set_loss(&mut self, a: u8, b: u8, direction: LinkDirection, prob: f64, until: SimTime) {
        for (x, y) in directed(a, b, direction) {
            if let Some(link) = self.index(x, y).and_then(|i| self.links.get_mut(i)) {
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

    fn due(wire: &mut FleetWire, now: SimTime) -> Vec<Delivery> {
        wire.pop_due(now).collect()
    }

    #[test]
    fn delivers_after_latency_in_send_order() {
        let rng = SimRng::new(1);
        let mut wire = FleetWire::new(3, SimDuration::from_millis(1), &rng);
        wire.send(t(0), 0, 1, hb(0));
        wire.send(t(0), 2, 1, hb(2));
        assert_eq!(wire.next_delivery_at(), Some(t(1)));
        assert!(due(&mut wire, t(0)).is_empty());
        let delivered = due(&mut wire, t(1));
        assert_eq!(delivered.len(), 2);
        assert_eq!((delivered[0].from, delivered[1].from), (0, 2));
        assert_eq!(wire.stats.delivered, 2);
        assert_eq!(wire.next_delivery_at(), None);
    }

    #[test]
    fn a_send_at_an_earlier_now_still_delivers_in_time_then_send_order() {
        let rng = SimRng::new(4);
        let mut wire = FleetWire::new(3, SimDuration::from_millis(1), &rng);
        wire.send(t(5), 0, 1, hb(0));
        wire.send(t(2), 2, 1, hb(2));
        wire.send(t(5), 1, 0, hb(1));
        wire.send(t(2), 1, 2, hb(1));
        assert_eq!(wire.next_delivery_at(), Some(t(3)));
        let delivered = due(&mut wire, t(10));
        let links: Vec<(u8, u8)> = delivered.iter().map(|d| (d.from, d.to)).collect();
        assert_eq!(links, [(2, 1), (1, 2), (0, 1), (1, 0)]);
        assert_eq!(wire.next_delivery_at(), None);
    }

    #[test]
    fn a_self_link_or_a_node_past_the_mesh_counts_as_sent_and_never_delivers() {
        let rng = SimRng::new(5);
        let mut wire = FleetWire::new(3, SimDuration::from_millis(1), &rng);
        wire.send(t(0), 1, 1, hb(1));
        wire.send(t(0), 0, 3, hb(0));
        wire.send(t(0), 7, 0, hb(7));
        assert_eq!(wire.stats.sent, 3);
        assert_eq!(wire.next_delivery_at(), None);
        assert!(due(&mut wire, t(10)).is_empty());
        assert_eq!(wire.stats.delivered, 0);
        assert_eq!((wire.stats.dropped_cut, wire.stats.dropped_loss), (0, 0));
    }

    #[test]
    fn one_way_cut_blocks_only_that_direction() {
        let rng = SimRng::new(2);
        let mut wire = FleetWire::new(2, SimDuration::from_millis(1), &rng);
        wire.partition(0, 1, LinkDirection::AToB, t(10));
        wire.send(t(5), 0, 1, hb(0));
        wire.send(t(5), 1, 0, hb(1));
        let delivered = due(&mut wire, t(6));
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].from, 1, "only the reverse direction delivers");
        assert_eq!(wire.stats.dropped_cut, 1);
        // The window expires: the cut direction heals.
        wire.send(t(10), 0, 1, hb(0));
        assert_eq!(due(&mut wire, t(11)).len(), 1);
    }

    #[test]
    fn loss_window_drops_probabilistically_then_heals() {
        let rng = SimRng::new(3);
        let mut wire = FleetWire::new(2, SimDuration::from_millis(1), &rng);
        wire.set_loss(0, 1, LinkDirection::Both, 1.0, t(10));
        wire.send(t(1), 0, 1, hb(0));
        wire.send(t(1), 1, 0, hb(1));
        assert!(due(&mut wire, t(2)).is_empty());
        assert_eq!(wire.stats.dropped_loss, 2);
        wire.send(t(10), 0, 1, hb(0));
        assert_eq!(due(&mut wire, t(11)).len(), 1);
    }
}
