//! Fleet gossip protocol: the message kinds and frame shapes spoken
//! between per-node fleet agents on the watchdog ring, plus the wire
//! encoding of a peer-held node snapshot.
//!
//! The kinds live in their own proto module (scanned by the
//! `phoenix-analyze` conformance pass alongside the driver, server and
//! checkpoint protocols) because the fleet backbone is a protocol
//! surface like any other: every kind an agent can emit must have a
//! dispatch arm somewhere, or it is a message dropped on the floor.

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
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
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
    pub view: Vec<NodeStat>,
}

impl Frame {
    /// A heartbeat carrying the sender's gossip vector.
    pub fn heartbeat(from: u8, gen: u32, view: Vec<NodeStat>) -> Frame {
        Frame {
            kind: gossip::HEARTBEAT,
            from,
            gen,
            subject: from,
            subject_gen: gen,
            evidence: 0,
            view,
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
            view: Vec::new(),
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
            view: Vec::new(),
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
            view: vec![stat],
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

/// One `(name, name, value)` record: two `u16`-prefixed strings and a
/// `u32`-prefixed value.
fn put_record(w: &mut Writer, (a, b, value): &(String, String, Vec<u8>)) {
    w.str(Len::U16, a);
    w.str(Len::U16, b);
    w.bytes(Len::U32, value);
}

fn get_record(r: &mut Reader<'_>) -> Option<(String, String, Vec<u8>)> {
    let a = r.str(Len::U16)?.to_string();
    let b = r.str(Len::U16)?.to_string();
    Some((a, b, r.bytes(Len::U32)?.to_vec()))
}

impl NodeSnapshot {
    /// Serializes to the transfer wire format: magic, `node:u8 gen:u32`,
    /// the two record lists behind `u32` counts, and the CRC-16 of all of
    /// that (the same checksum family the transport segments use).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(SNAP_MAGIC);
        w.u8(self.node);
        w.u32(self.gen);
        w.seq(Len::U32, self.ckpt.iter(), put_record);
        w.seq(Len::U32, self.ds.iter(), put_record);
        w.u16(crc16(w.written()));
        w.into_bytes()
    }

    /// Parses the transfer wire format; `None` for truncated or
    /// corrupted images (bad magic / CRC) — a damaged snapshot must be
    /// detected, not adopted.
    pub fn decode(buf: &[u8]) -> Option<NodeSnapshot> {
        let (body, trailer) = buf.split_at_checked(buf.len().checked_sub(2)?)?;
        if Reader::new(trailer).u16() != Some(crc16(body)) {
            return None;
        }
        let mut r = Reader::new(body);
        if r.take(SNAP_MAGIC.len())? != SNAP_MAGIC {
            return None;
        }
        let snap = NodeSnapshot {
            node: r.u8()?,
            gen: r.u32()?,
            ckpt: r.seq(Len::U32, get_record)?,
            ds: r.seq(Len::U32, get_record)?,
        };
        r.finish()?;
        Some(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(NodeSnapshot::decode(&wire), Some(snap));
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let snap = NodeSnapshot {
            node: 0,
            gen: 1,
            ckpt: vec![],
            ds: vec![("k".to_string(), "o".to_string(), vec![7])],
        };
        let mut wire = snap.encode();
        let mid = wire.len() / 2;
        wire[mid] ^= 0x10;
        assert_eq!(NodeSnapshot::decode(&wire), None);
        assert_eq!(NodeSnapshot::decode(b"FSNPxx"), None);
        assert_eq!(NodeSnapshot::decode(b""), None);
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
        assert_eq!(NodeSnapshot::decode(&resealed(body.to_vec())), Some(snap));
        // Every strict prefix, and one trailing byte.
        for cut in 0..body.len() {
            let short = resealed(body[..cut].to_vec());
            assert_eq!(NodeSnapshot::decode(&short), None, "cut at {cut}");
        }
        let mut long = body.to_vec();
        long.push(0);
        assert_eq!(NodeSnapshot::decode(&resealed(long)), None);
        // A name that is not UTF-8: the `v` of the first owner, behind
        // magic, node, gen, the record count and the name's own prefix.
        let mut bad = body.to_vec();
        assert_eq!(bad[4 + 1 + 4 + 4 + 2], b'v');
        bad[4 + 1 + 4 + 4 + 2] = 0xFF;
        assert_eq!(NodeSnapshot::decode(&resealed(bad)), None);
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
        let decoded = NodeSnapshot::decode(&snap.encode()).expect("still decodes");
        assert_eq!(decoded.ds[0].0, long[..usize::from(u16::MAX) - 1]);
        assert_eq!(decoded.ds[0].2, [7]);
    }
}
