//! Fleet gossip protocol: the message kinds and frame shapes spoken
//! between per-node fleet agents on the watchdog ring, plus the wire
//! encoding of a peer-held node snapshot.
//!
//! The kinds live in their own proto module (scanned by the
//! `phoenix-analyze` conformance pass alongside the driver, server and
//! checkpoint protocols) because the fleet backbone is a protocol
//! surface like any other: every kind an agent can emit must have a
//! dispatch arm somewhere, or it is a message dropped on the floor.

use std::rc::Rc;

use phoenix_servers::netproto::crc16;
use phoenix_simcore::wire::{Len, Reader, Writer};

/// Inter-node fleet backbone kinds (0x0F00 range). All fire-and-forget:
/// the backbone rides an unreliable datagram wire and tolerates loss by
/// periodic re-send, never by blocking — a wedged peer must not be able
/// to wedge its watchdog.
pub mod gossip {
    phoenix::kernel::protocol! {
        /// Agent -> ring neighbors: liveness beat carrying the sender's
        /// whole gossip vector (freshest known stat per fleet node).
        oneway HEARTBEAT = 0x0F00;
        /// Agent -> all peers: typed accusation that `subject` (at
        /// `subject_gen`) is failing, with the evidence kind attached.
        oneway COMPLAIN = 0x0F01;
        /// Arbiter -> all peers: quorum reached, `subject` is convicted and
        /// will be reincarnated at `subject_gen + 1`.
        oneway CONVICT = 0x0F02;
        /// Accused -> all peers: liveness rebuttal (I am reachable / my RS
        /// beacon still advances) that clears ghost complaints.
        oneway ALIVE = 0x0F03;
    }
}

/// One node's freshest known state, as carried in heartbeat gossip
/// vectors. Comparisons are monotone: a stat only supersedes a view
/// when its generation or sequence is strictly newer, so stale gossip
/// echoing around the ring can never roll a view backward.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeStat {
    /// Which node this stat describes.
    pub node: u8,
    /// That node's boot generation.
    pub gen: u32,
    /// Its heartbeat sequence (advances every beat while alive).
    pub hb_seq: u64,
    /// Its local RS liveness beacon (the `rs.beacon` counter, advanced
    /// by every RS audit sweep — a dead or wedged RS stops it).
    pub beacon: u64,
    /// Whether its RS endpoint was up when the stat was sampled.
    pub rs_up: bool,
}

/// One fleet backbone frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// [`gossip`] kind.
    pub kind: u32,
    /// Sending node.
    pub from: u8,
    /// Sender's boot generation.
    pub gen: u32,
    /// Subject node of a complaint / conviction / rebuttal.
    pub subject: u8,
    /// Subject generation the accusation targets (ghost rejection: a
    /// complaint about a generation older than the reborn one is about
    /// a corpse and must not convict the successor).
    pub subject_gen: u32,
    /// Evidence kind ([`phoenix_servers::proto::evidence`]) for
    /// complaints and convictions.
    pub evidence: u32,
    /// Gossip vector (heartbeats) or the sender's own stat (rebuttals).
    /// Shared, never written through: an agent hands one beat to both
    /// ring neighbours, and a frame in flight keeps the stats of its send
    /// time however the sender's table moves on.
    pub view: Rc<[NodeStat]>,
}

impl Frame {
    /// A heartbeat carrying the sender's gossip vector.
    pub fn heartbeat(from: u8, gen: u32, view: impl Into<Rc<[NodeStat]>>) -> Frame {
        Frame {
            kind: gossip::HEARTBEAT,
            from,
            gen,
            subject: from,
            subject_gen: gen,
            evidence: 0,
            view: view.into(),
        }
    }

    /// A typed complaint against `subject`.
    pub fn complain(from: u8, gen: u32, subject: u8, subject_gen: u32, evidence: u32) -> Frame {
        Frame {
            kind: gossip::COMPLAIN,
            from,
            gen,
            subject,
            subject_gen,
            evidence,
            view: Rc::default(),
        }
    }

    /// A conviction verdict from the arbiter.
    pub fn convict(from: u8, gen: u32, subject: u8, subject_gen: u32, evidence: u32) -> Frame {
        Frame {
            kind: gossip::CONVICT,
            from,
            gen,
            subject,
            subject_gen,
            evidence,
            view: Rc::default(),
        }
    }

    /// A liveness rebuttal from an accused node, carrying its own stat.
    pub fn alive(from: u8, gen: u32, stat: NodeStat) -> Frame {
        Frame {
            kind: gossip::ALIVE,
            from,
            gen,
            subject: from,
            subject_gen: gen,
            evidence: 0,
            view: Rc::new([stat]),
        }
    }
}

/// A peer-held snapshot of one node's recoverable state: its checkpoint
/// store records. Replicated to the node's ring successor over the
/// go-back-N transfer link; adopted into a reborn node during
/// recover-the-recoverer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeSnapshot {
    /// The node whose state this is.
    pub node: u8,
    /// Its boot generation at export time.
    pub gen: u32,
    /// Checkpoint-store records: `(owner, key, snapshot wire frame)`.
    pub ckpt: Vec<(String, String, Vec<u8>)>,
    /// A second `(name, name, value)` list. The fleet always ships it
    /// empty (private state is in `ckpt`); it stays in the format because
    /// the benchmark's codec probe fills it.
    pub ds: Vec<(String, String, Vec<u8>)>,
}

const SNAP_MAGIC: &[u8; 4] = b"FSNP";

/// One `(name, name, value)` record as an image holds it, borrowed.
pub type Record<'a> = (&'a str, &'a str, &'a [u8]);

/// One record: two `u16`-prefixed strings and a `u32`-prefixed value.
fn put_record(w: &mut Writer, (a, b, value): Record<'_>) {
    w.str(Len::U16, a);
    w.str(Len::U16, b);
    w.bytes(Len::U32, value);
}

fn get_record<'a>(r: &mut Reader<'a>) -> Option<Record<'a>> {
    Some((r.str(Len::U16)?, r.str(Len::U16)?, r.bytes(Len::U32)?))
}

/// What [`put_record`] writes for `records` at most (less only where a
/// name or value is cut to its prefix).
fn records_len<'a>(records: impl Iterator<Item = Record<'a>>) -> usize {
    records
        .map(|(a, b, v)| 2 + a.len() + 2 + b.len() + 4 + v.len())
        .sum()
}

/// The owned records of a [`NodeSnapshot`], borrowed.
fn borrowed(
    records: &[(String, String, Vec<u8>)],
) -> impl ExactSizeIterator<Item = Record<'_>> + Clone {
    records
        .iter()
        .map(|(a, b, v)| (a.as_str(), b.as_str(), v.as_slice()))
}

/// The one reader of the image format: every check `decode` makes, with
/// `keep` choosing what survives of each record. Collected into `()`, it
/// copies nothing and allocates nothing.
fn parse<'a, T, C: FromIterator<T>>(
    buf: &'a [u8],
    keep: impl Fn(Record<'a>) -> T + Copy,
) -> Option<(u8, u32, C, C)> {
    let (body, trailer) = buf.split_at_checked(buf.len().checked_sub(2)?)?;
    if Reader::new(trailer).u16() != Some(crc16(body)) {
        return None;
    }
    let mut r = Reader::new(body);
    if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
        return None;
    }
    let node = r.u8()?;
    let gen = r.u32()?;
    let ckpt = r.seq(Len::U32, |r| get_record(r).map(keep))?;
    let ds = r.seq(Len::U32, |r| get_record(r).map(keep))?;
    r.finish()?;
    Some((node, gen, ckpt, ds))
}

impl NodeSnapshot {
    /// Writes into `out`, in place of what it held, the transfer wire
    /// format of a snapshot of `node` at `gen` holding the `ckpt` and `ds`
    /// records: magic, `node:u8 gen:u32`, the two record lists behind
    /// `u32` counts, and the CRC-16 of all of that (the same checksum
    /// family the transport segments use). Sized up front, straight from
    /// borrowed records: a node exports its checkpoint store without
    /// copying it, into the buffer its last image left, which grows only
    /// for an image larger than any before.
    pub fn image<'a>(
        out: &mut Vec<u8>,
        node: u8,
        gen: u32,
        ckpt: impl ExactSizeIterator<Item = Record<'a>> + Clone,
        ds: impl ExactSizeIterator<Item = Record<'a>> + Clone,
    ) {
        let len = SNAP_MAGIC.len() + 1 + 4 + 4 + 4 + 2;
        let len = len + records_len(ckpt.clone()) + records_len(ds.clone());
        let mut w = Writer::reusing(std::mem::take(out), len);
        w.raw(SNAP_MAGIC);
        w.u8(node);
        w.u32(gen);
        w.seq(Len::U32, ckpt, put_record);
        w.seq(Len::U32, ds, put_record);
        w.u16(crc16(w.written()));
        *out = w.into_bytes();
    }

    /// Serializes to the transfer wire format ([`NodeSnapshot::image`]),
    /// in a buffer of its own.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        Self::image(
            &mut out,
            self.node,
            self.gen,
            borrowed(&self.ckpt),
            borrowed(&self.ds),
        );
        out
    }

    /// Parses the transfer wire format; `None` for truncated or
    /// corrupted images (bad magic / CRC) — a damaged snapshot must be
    /// detected, not adopted.
    pub fn decode(buf: &[u8]) -> Option<NodeSnapshot> {
        let own = |(a, b, v): Record<'_>| (a.to_string(), b.to_string(), v.to_vec());
        let (node, gen, ckpt, ds) = parse(buf, own)?;
        Some(NodeSnapshot {
            node,
            gen,
            ckpt,
            ds,
        })
    }

    /// Whether [`NodeSnapshot::decode`] accepts `buf`, checked in place by
    /// the same walk: a receiver keeps an image as the bytes that arrived
    /// and decodes it only to adopt it.
    pub fn check(buf: &[u8]) -> bool {
        parse::<(), ()>(buf, |_| ()).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_ckpt::{CheckpointStore, Snapshot};

    /// `decode`'s verdict on `buf`, after checking that the receipt check
    /// gives the same one.
    fn decoded(buf: &[u8]) -> Option<NodeSnapshot> {
        let snap = NodeSnapshot::decode(buf);
        assert_eq!(
            NodeSnapshot::check(buf),
            snap.is_some(),
            "check and decode disagree on {buf:02x?}"
        );
        snap
    }

    #[test]
    fn snapshot_round_trips() {
        let snap = NodeSnapshot {
            node: 2,
            gen: 5,
            ckpt: vec![(
                "chr.printer".to_string(),
                "printer".to_string(),
                vec![1, 2, 3],
            )],
            ds: vec![("k".to_string(), "o".to_string(), vec![9, 9])],
        };
        let wire = snap.encode();
        assert_eq!(wire.capacity(), wire.len(), "sized up front, exactly");
        assert_eq!(decoded(&wire), Some(snap));
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let snap = NodeSnapshot {
            node: 0,
            gen: 1,
            ckpt: vec![],
            ds: vec![("k".to_string(), "o".to_string(), vec![7])],
        };
        let wire = snap.encode();
        // Every single-bit flip, the CRC trailer's included.
        for bit in 0..wire.len() * 8 {
            let mut flipped = wire.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert_eq!(decoded(&flipped), None, "bit {bit}");
        }
        assert_eq!(decoded(b"FSNPxx"), None);
        assert_eq!(decoded(b""), None);
    }

    /// Replaces the CRC trailer so only the body decides the verdict.
    fn resealed(mut body: Vec<u8>) -> Vec<u8> {
        let crc = crc16(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        body
    }

    #[test]
    fn a_well_sealed_body_that_is_not_a_snapshot_is_rejected() {
        let snap = NodeSnapshot {
            node: 3,
            gen: 2,
            ckpt: vec![("vfs".to_string(), "mounts".to_string(), vec![0, 0])],
            ds: vec![("k".to_string(), "o".to_string(), vec![7])],
        };
        let wire = snap.encode();
        let body = &wire[..wire.len() - 2];
        assert_eq!(decoded(&resealed(body.to_vec())), Some(snap));
        // Every strict prefix, and one trailing byte.
        for cut in 0..body.len() {
            let short = resealed(body[..cut].to_vec());
            assert_eq!(decoded(&short), None, "cut at {cut}");
        }
        let mut long = body.to_vec();
        long.push(0);
        assert_eq!(decoded(&resealed(long)), None);
        // A name that is not UTF-8: the `v` of the first owner, behind
        // magic, node, gen, the record count and the name's own prefix.
        let mut bad = body.to_vec();
        assert_eq!(bad[4 + 1 + 4 + 4 + 2], b'v');
        bad[4 + 1 + 4 + 4 + 2] = 0xFF;
        assert_eq!(decoded(&resealed(bad)), None);
    }

    #[test]
    fn an_overlong_name_is_cut_not_corrupted() {
        let long = "k".repeat(usize::from(u16::MAX) - 1) + "\u{e9}tail";
        let snap = NodeSnapshot {
            node: 0,
            gen: 1,
            ckpt: vec![],
            ds: vec![(long.clone(), "o".to_string(), vec![7])],
        };
        let decoded = decoded(&snap.encode()).expect("still decodes");
        assert_eq!(decoded.ds[0].0, long[..usize::from(u16::MAX) - 1]);
        assert_eq!(decoded.ds[0].2, [7]);
    }

    /// A node exports its checkpoint store by encoding its borrowed
    /// records: the same bytes as the owned copy the store exports, put in
    /// a snapshot and encoded, and one exactly sized buffer.
    #[test]
    fn the_borrowed_export_writes_the_owned_snapshot_s_bytes() {
        let mut store = CheckpointStore::new();
        let frame = |inc, seq, payload: &[u8]| Snapshot::new(inc, seq, payload.to_vec()).encode();
        for (owner, key, wire) in [
            ("vfs", "mounts", frame(1, 2, &[0, 0, 0, 0])),
            (
                "chr.printer",
                "printer",
                frame(3, 17, &4096u64.to_le_bytes()),
            ),
            ("chr.printer", "queue", frame(3, 4, &[9; 40])),
            ("inet", "sessions", frame(2, 8, &[])),
        ] {
            assert!(matches!(
                store.save(owner, key, &wire),
                phoenix_ckpt::SaveOutcome::Stored { .. }
            ));
        }
        let mut image = Vec::new();
        NodeSnapshot::image(&mut image, 6, 3, store.records(), std::iter::empty());
        let owned = NodeSnapshot {
            node: 6,
            gen: 3,
            ckpt: store.export(),
            ds: vec![],
        };
        assert_eq!(image, owned.encode());
        assert_eq!(image.capacity(), image.len());
        assert_eq!(decoded(&image), Some(owned));
    }

    /// An image written into the buffer of a larger one replaces it
    /// wholly, in the same allocation; one larger than the buffer grows
    /// it to its own size.
    #[test]
    fn an_image_reuses_the_buffer_the_last_one_left() {
        let snap = |value: Vec<u8>| NodeSnapshot {
            node: 1,
            gen: 4,
            ckpt: vec![("vfs".to_string(), "mounts".to_string(), value)],
            ds: vec![],
        };
        let (large, small) = (snap(vec![5; 64]), snap(vec![6; 8]));
        let mut buf = large.encode();
        let at = buf.as_ptr();
        NodeSnapshot::image(&mut buf, 1, 4, borrowed(&small.ckpt), std::iter::empty());
        assert_eq!(buf, small.encode());
        assert_eq!(buf.as_ptr(), at, "written in place");
        NodeSnapshot::image(&mut buf, 1, 4, borrowed(&large.ckpt), std::iter::empty());
        assert_eq!(buf, large.encode());
        assert_eq!(buf.capacity(), buf.len());
        let larger = snap(vec![7; 65]);
        NodeSnapshot::image(&mut buf, 1, 4, borrowed(&larger.ckpt), std::iter::empty());
        assert_eq!(buf, larger.encode());
        assert_eq!(buf.capacity(), buf.len(), "grown to the image, exactly");
    }
}
