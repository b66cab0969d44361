//! The checkpoint store: the data-store-side record table.
//!
//! Pure data structure, embedded by the DS process (which authenticates
//! callers by their stable published name before touching it) and shared
//! with the host `Os` so tests and benches can inspect or tamper with
//! records. Keyed by `(owner name, key)`: the owner component of the key
//! is the *stable* name, so a snapshot written by one incarnation is
//! found by the next.

use std::collections::BTreeMap;

use crate::snapshot::Snapshot;

/// One stored checkpoint record.
#[derive(Clone, Debug)]
pub struct StoredCheckpoint {
    /// Endpoint generation of the writing incarnation.
    pub incarnation: u32,
    /// Monotone per-key sequence of the record.
    pub seq: u64,
    /// The full snapshot wire frame (CRC re-verified on restore, so a
    /// record corrupted at rest is detected, not resumed from).
    pub wire: Vec<u8>,
    /// How many times this key has been written.
    pub saves: u64,
}

/// Outcome of a save attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SaveOutcome {
    /// Record accepted.
    Stored {
        /// Sequence now on record.
        seq: u64,
    },
    /// Rejected: the offered snapshot is older than the record — either
    /// a lower incarnation (a ghost of a replaced driver) or a replayed
    /// sequence within the same incarnation.
    Stale {
        /// Incarnation already on record.
        stored_incarnation: u32,
        /// Sequence already on record.
        stored_seq: u64,
    },
    /// The offered frame failed validation.
    Corrupt,
}

/// Outcome of a restore attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreOutcome {
    /// Valid record found.
    Found(Snapshot),
    /// Nothing stored under this key.
    Missing,
    /// A record exists but fails CRC validation.
    Corrupt,
}

/// The record table plus rejection counters.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    records: BTreeMap<(String, String), StoredCheckpoint>,
    /// Saves rejected as stale (ghost incarnations, replayed seqs).
    pub stale_rejected: u64,
    /// Saves or restores rejected on CRC/frame validation.
    pub corrupt_rejected: u64,
}

impl CheckpointStore {
    /// An empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Validates and stores a snapshot frame for `(owner, key)`.
    // analyze:recovery-root
    pub fn save(&mut self, owner: &str, key: &str, wire: &[u8]) -> SaveOutcome {
        let Ok(snap) = Snapshot::decode(wire) else {
            self.corrupt_rejected += 1;
            return SaveOutcome::Corrupt;
        };
        let slot = (owner.to_string(), key.to_string());
        if let Some(existing) = self.records.get(&slot) {
            let ghost = snap.incarnation < existing.incarnation;
            let replayed = snap.incarnation == existing.incarnation && snap.seq <= existing.seq;
            if ghost || replayed {
                self.stale_rejected += 1;
                return SaveOutcome::Stale {
                    stored_incarnation: existing.incarnation,
                    stored_seq: existing.seq,
                };
            }
        }
        let saves = self.records.get(&slot).map_or(0, |r| r.saves) + 1;
        let seq = snap.seq;
        self.records.insert(
            slot,
            StoredCheckpoint {
                incarnation: snap.incarnation,
                seq,
                wire: wire.to_vec(),
                saves,
            },
        );
        SaveOutcome::Stored { seq }
    }

    /// Fetches and re-validates the record for `(owner, key)`.
    // analyze:recovery-root
    pub fn restore(&mut self, owner: &str, key: &str) -> RestoreOutcome {
        let slot = (owner.to_string(), key.to_string());
        let Some(record) = self.records.get(&slot) else {
            return RestoreOutcome::Missing;
        };
        match Snapshot::decode(&record.wire) {
            Ok(snap) => RestoreOutcome::Found(snap),
            Err(_) => {
                self.corrupt_rejected += 1;
                RestoreOutcome::Corrupt
            }
        }
    }

    /// The raw record for inspection (tests, benches).
    pub fn get(&self, owner: &str, key: &str) -> Option<&StoredCheckpoint> {
        self.records.get(&(owner.to_string(), key.to_string()))
    }

    /// Inserts a raw record, bypassing validation — fault injection for
    /// tests (e.g. simulating corruption at rest).
    // analyze:recovery-root
    pub fn insert_raw(
        &mut self,
        owner: &str,
        key: &str,
        incarnation: u32,
        seq: u64,
        wire: Vec<u8>,
    ) {
        self.records.insert(
            (owner.to_string(), key.to_string()),
            StoredCheckpoint {
                incarnation,
                seq,
                wire,
                saves: 0,
            },
        );
    }

    /// Every record as `(owner, key, wire frame)` in key order, borrowed —
    /// the unit the fleet layer encodes into a peer-held node snapshot.
    pub fn records(&self) -> impl ExactSizeIterator<Item = (&str, &str, &[u8])> + Clone + '_ {
        self.records
            .iter()
            .map(|((o, k), r)| (o.as_str(), k.as_str(), r.wire.as_slice()))
    }

    /// [`CheckpointStore::records`], copied out.
    pub fn export(&self) -> Vec<(String, String, Vec<u8>)> {
        self.records()
            .map(|(o, k, w)| (o.to_string(), k.to_string(), w.to_vec()))
            .collect()
    }

    /// Adopts a record exported from another store into this one —
    /// the re-seed path when a reborn node's state is restored from a
    /// peer-held snapshot (ReHype's recover-the-recoverer).
    ///
    /// The snapshot is re-framed with **incarnation 0** ("adopted from a
    /// peer; any live incarnation supersedes it"): the exporting node's
    /// incarnation numbers are meaningless on the reborn node, whose
    /// drivers restart at fresh (low) endpoint generations — keeping the
    /// old tag would make the store reject the reborn drivers' first
    /// saves as ghosts. The per-key sequence is preserved so replay
    /// ordering survives. Returns `false` (and counts the rejection) for
    /// frames that fail CRC validation in transit.
    // analyze:recovery-root
    pub fn adopt(&mut self, owner: &str, key: &str, wire: &[u8]) -> bool {
        let Ok(snap) = Snapshot::decode(wire) else {
            self.corrupt_rejected += 1;
            return false;
        };
        let adopted = Snapshot::new(0, snap.seq, snap.payload);
        let seq = adopted.seq;
        self.records.insert(
            (owner.to_string(), key.to_string()),
            StoredCheckpoint {
                incarnation: 0,
                seq,
                wire: adopted.encode(),
                saves: 0,
            },
        );
        true
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Total bytes held at rest across all record frames — the
    /// `ds.snapshot_bytes` gauge source, so campaign digests surface
    /// checkpoint-store growth.
    pub fn total_bytes(&self) -> u64 {
        self.records.values().map(|r| r.wire.len() as u64).sum()
    }

    /// Whether the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wire(incarnation: u32, seq: u64, mark: u64) -> Vec<u8> {
        Snapshot::watermark(incarnation, seq, mark).encode()
    }

    #[test]
    fn save_then_restore_round_trips() {
        let mut store = CheckpointStore::new();
        assert_eq!(
            store.save("chr.printer", "printer", &wire(1, 1, 512)),
            SaveOutcome::Stored { seq: 1 }
        );
        match store.restore("chr.printer", "printer") {
            RestoreOutcome::Found(s) => assert_eq!(s.as_watermark(), Some(512)),
            other => panic!("expected Found, got {other:?}"),
        }
        assert_eq!(
            store.restore("chr.printer", "audio"),
            RestoreOutcome::Missing
        );
    }

    #[test]
    fn ghost_incarnation_cannot_clobber() {
        let mut store = CheckpointStore::new();
        store.save("chr.printer", "printer", &wire(3, 1, 4096));
        assert_eq!(
            store.save("chr.printer", "printer", &wire(2, 99, 0)),
            SaveOutcome::Stale {
                stored_incarnation: 3,
                stored_seq: 1
            }
        );
        assert_eq!(store.stale_rejected, 1);
        // The live record is untouched.
        match store.restore("chr.printer", "printer") {
            RestoreOutcome::Found(s) => {
                assert_eq!((s.incarnation, s.as_watermark()), (3, Some(4096)))
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn replayed_seq_within_incarnation_is_stale() {
        let mut store = CheckpointStore::new();
        store.save("chr.audio", "audio", &wire(1, 5, 100));
        assert!(matches!(
            store.save("chr.audio", "audio", &wire(1, 5, 200)),
            SaveOutcome::Stale { .. }
        ));
        // A fresh incarnation may restart its sequence.
        assert_eq!(
            store.save("chr.audio", "audio", &wire(2, 1, 300)),
            SaveOutcome::Stored { seq: 1 }
        );
    }

    #[test]
    fn corruption_at_rest_is_rejected_on_restore() {
        let mut store = CheckpointStore::new();
        let mut bad = wire(1, 1, 700);
        bad[10] ^= 0xFF;
        store.insert_raw("chr.kbd", "kbd", 1, 1, bad);
        assert_eq!(store.restore("chr.kbd", "kbd"), RestoreOutcome::Corrupt);
        assert_eq!(store.corrupt_rejected, 1);
    }

    #[test]
    fn occupancy_accounting() {
        let mut store = CheckpointStore::new();
        assert_eq!(store.total_bytes(), 0);
        let a = wire(1, 1, 10);
        let b = wire(1, 1, 20);
        store.save("chr.printer", "printer", &a);
        store.save("vfs", "session", &b);
        assert_eq!(store.total_bytes(), (a.len() + b.len()) as u64);
    }

    #[test]
    fn export_adopt_round_trip_clamps_incarnation() {
        let mut donor = CheckpointStore::new();
        donor.save("chr.printer", "printer", &wire(7, 3, 512));
        donor.save("chr.audio", "audio", &wire(2, 9, 100));

        let mut reborn = CheckpointStore::new();
        for (owner, key, frame) in donor.export() {
            assert!(reborn.adopt(&owner, &key, &frame));
        }
        assert_eq!(reborn.len(), 2);
        // Content survives; incarnation is clamped to 0 so the reborn
        // node's fresh driver incarnations (1, 2, ...) supersede it.
        match reborn.restore("chr.printer", "printer") {
            RestoreOutcome::Found(s) => {
                assert_eq!((s.incarnation, s.seq, s.as_watermark()), (0, 3, Some(512)));
            }
            other => panic!("expected Found, got {other:?}"),
        }
        assert_eq!(
            reborn.save("chr.printer", "printer", &wire(1, 1, 600)),
            SaveOutcome::Stored { seq: 1 },
            "a live incarnation must supersede an adopted record"
        );
    }

    #[test]
    fn adopt_rejects_corrupt_frames() {
        let mut store = CheckpointStore::new();
        let mut bad = wire(1, 1, 10);
        bad[6] ^= 0x40;
        assert!(!store.adopt("chr.kbd", "kbd", &bad));
        assert_eq!(store.corrupt_rejected, 1);
        assert!(store.is_empty());
    }

    #[test]
    fn garbage_save_is_rejected() {
        let mut store = CheckpointStore::new();
        assert_eq!(store.save("x", "y", b"nonsense"), SaveOutcome::Corrupt);
        assert!(store.is_empty());
    }
}
