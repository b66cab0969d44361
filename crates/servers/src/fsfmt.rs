//! On-disk filesystem format and `mkfs`.
//!
//! A deliberately small extent-based filesystem, enough to host the
//! workloads of §7.1 (a 1 GB file "filled with random data" read through
//! the file server while its disk driver is killed). Layout:
//!
//! ```text
//! LBA 0                superblock
//! LBA 1..1+T           inode table (4 × 128-byte inodes per sector)
//! LBA 1+T..            file data (extents)
//! ```
//!
//! `mkfs` can create *synthetic* files whose content is the disk's
//! deterministic base pattern — no data is actually written, so building a
//! 1 GB file is free, and the experiment harness can compute the expected
//! SHA-1 without touching the simulated disk.

use phoenix_hw::disk::{synth_sector_into, DiskModel, SECTOR};
use phoenix_simcore::digest::Sha1;
use phoenix_simcore::wire::{Len, Reader, Writer};

use crate::libserver::Names;
use crate::mfs::{FsNames, MountStep, Volume};

/// Superblock magic.
pub const MAGIC: &[u8; 8] = b"PHXFS1\0\0";
/// Size of an on-disk inode.
pub const INODE_SIZE: usize = 128;
/// Maximum extents per inode.
pub const MAX_EXTENTS: usize = 6;
/// Maximum file-name length.
pub const NAME_LEN: usize = 32;

/// A contiguous run of sectors belonging to a file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// First sector.
    pub start: u64,
    /// Length in sectors.
    pub sectors: u32,
}

/// An in-memory inode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inode {
    /// File name (flat namespace).
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Data extents.
    pub extents: Vec<Extent>,
}

impl Inode {
    /// Serializes to the 128-byte on-disk format.
    ///
    /// # Panics
    ///
    /// Panics if the name or extent list exceed the format limits.
    pub fn encode(&self) -> [u8; INODE_SIZE] {
        assert!(self.name.len() <= NAME_LEN, "file name too long");
        assert!(self.extents.len() <= MAX_EXTENTS, "too many extents");
        let mut out = [0u8; INODE_SIZE];
        out[..self.name.len()].copy_from_slice(self.name.as_bytes());
        out[32..40].copy_from_slice(&self.size.to_le_bytes());
        out[40..44].copy_from_slice(&(self.extents.len() as u32).to_le_bytes());
        for (i, e) in self.extents.iter().enumerate() {
            let base = 44 + i * 12;
            out[base..base + 8].copy_from_slice(&e.start.to_le_bytes());
            out[base + 8..base + 12].copy_from_slice(&e.sectors.to_le_bytes());
        }
        out
    }

    /// Parses the on-disk format; `None` for an empty slot or corrupt
    /// entry.
    pub fn decode(raw: &[u8]) -> Option<Inode> {
        if raw.len() < INODE_SIZE || raw[0] == 0 {
            return None;
        }
        let name_end = raw[..NAME_LEN]
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(NAME_LEN);
        let name = std::str::from_utf8(&raw[..name_end]).ok()?.to_string();
        let size = u64::from_le_bytes(raw[32..40].try_into().ok()?);
        let n = u32::from_le_bytes(raw[40..44].try_into().ok()?) as usize;
        if n > MAX_EXTENTS {
            return None;
        }
        let mut extents = Vec::with_capacity(n);
        for i in 0..n {
            let base = 44 + i * 12;
            extents.push(Extent {
                start: u64::from_le_bytes(raw[base..base + 8].try_into().ok()?),
                sectors: u32::from_le_bytes(raw[base + 8..base + 12].try_into().ok()?),
            });
        }
        Some(Inode {
            name,
            size,
            extents,
        })
    }

    /// Maps a byte offset to `(lba, byte offset within that sector)`;
    /// `None` past EOF.
    pub fn locate(&self, offset: u64) -> Option<(u64, usize)> {
        if offset >= self.size {
            return None;
        }
        let mut sector_index = offset / SECTOR as u64;
        for e in &self.extents {
            if sector_index < u64::from(e.sectors) {
                return Some((e.start + sector_index, (offset % SECTOR as u64) as usize));
            }
            sector_index -= u64::from(e.sectors);
        }
        None
    }

    /// Number of *contiguous* sectors available starting at the sector
    /// containing `offset` (for building large driver requests).
    pub fn contiguous_sectors_at(&self, offset: u64) -> u64 {
        let mut sector_index = offset / SECTOR as u64;
        for e in &self.extents {
            if sector_index < u64::from(e.sectors) {
                return u64::from(e.sectors) - sector_index;
            }
            sector_index -= u64::from(e.sectors);
        }
        0
    }
}

/// The parsed superblock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Superblock {
    /// Number of inode slots.
    pub inode_count: u32,
    /// First sector of the inode table.
    pub inode_table_lba: u64,
    /// Sectors occupied by the inode table.
    pub inode_table_sectors: u32,
}

impl Superblock {
    /// Serializes to one sector.
    pub fn encode(&self) -> Vec<u8> {
        let mut s = vec![0u8; SECTOR];
        s[..8].copy_from_slice(MAGIC);
        s[8..12].copy_from_slice(&self.inode_count.to_le_bytes());
        s[16..24].copy_from_slice(&self.inode_table_lba.to_le_bytes());
        s[24..28].copy_from_slice(&self.inode_table_sectors.to_le_bytes());
        s
    }

    /// Parses a sector; `None` if the magic is wrong.
    pub fn decode(raw: &[u8]) -> Option<Superblock> {
        if raw.len() < SECTOR || &raw[..8] != MAGIC {
            return None;
        }
        Some(Superblock {
            inode_count: u32::from_le_bytes(raw[8..12].try_into().ok()?),
            inode_table_lba: u64::from_le_bytes(raw[16..24].try_into().ok()?),
            inode_table_sectors: u32::from_le_bytes(raw[24..28].try_into().ok()?),
        })
    }
}

/// The native format as a [`Volume`]: superblock, then the inode table.
/// The superblock stays around after the mount because the checkpoint
/// payload leads with it.
#[derive(Debug, Default)]
pub struct Minix {
    superblock: Option<Superblock>,
}

impl Volume for Minix {
    const NAMES: FsNames = FsNames {
        shell: Names {
            server: "mfs",
            state_key: "mount",
            injected_crash: "mfs.injected_crash",
            stalled_events: "mfs.stalled_events",
            garbled_replies: "mfs.garbled_replies",
            restore_garbage: "mfs.mount_restore_garbage",
        },
        reads: "mfs.reads",
        writes: "mfs.writes",
        pending_aborts: "mfs.pending_aborts",
        retries: "mfs.retries",
        reissues: "mfs.reissues",
        driver_reintegrations: "mfs.driver_reintegrations",
        mount_restored: "mfs.mount_restored",
        csum_retries: "sentinel.mfs.csum_retries",
        scrubs: "sentinel.mfs.scrubs",
        scrub_ok: "sentinel.mfs.scrub_ok",
        scrub_mismatch: "sentinel.mfs.scrub_mismatch",
    };

    fn mount_step(&mut self, last_read: Option<&[u8]>) -> MountStep {
        let Some(data) = last_read else {
            self.superblock = None;
            return MountStep::Read { lba: 0, sectors: 1 };
        };
        if self.superblock.is_some() {
            let inodes = data.chunks(INODE_SIZE).filter_map(Inode::decode);
            return MountStep::Mounted(inodes.collect());
        }
        let Some(sb) = Superblock::decode(data) else {
            return MountStep::Bad("bad superblock");
        };
        let table = MountStep::Read {
            lba: sb.inode_table_lba,
            sectors: u64::from(sb.inode_table_sectors),
        };
        self.superblock = Some(sb);
        table
    }

    fn canonical_name(raw: &[u8]) -> String {
        String::from_utf8_lossy(raw).into_owned()
    }

    /// One superblock sector, then `count:u16` and that many inodes in
    /// their on-disk encoding.
    // analyze:recovery
    fn encode(&self, files: &[Inode]) -> Vec<u8> {
        let mut w = Writer::new();
        match &self.superblock {
            Some(sb) => w.raw(&sb.encode()),
            None => w.raw(&[0u8; SECTOR]),
        }
        w.seq(Len::U16, files.iter(), |w, ino| w.raw(&ino.encode()));
        w.into_bytes()
    }

    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<(Self, Vec<Inode>)> {
        let mut r = Reader::new(payload);
        let superblock = Some(Superblock::decode(r.take(SECTOR)?)?);
        let inodes = r.seq(Len::U16, |r| Inode::decode(r.take(INODE_SIZE)?))?;
        r.finish()?;
        Some((Minix { superblock }, inodes))
    }
}

/// What `mkfs` should put in a file.
#[derive(Debug, Clone)]
pub enum FileContent {
    /// The disk's deterministic base pattern — free to create, and the
    /// expected checksum is computable without I/O.
    Synthetic {
        /// File size in bytes.
        size: u64,
    },
    /// Explicit bytes, written to the disk overlay.
    Bytes(Vec<u8>),
}

/// A file for `mkfs` to create.
#[derive(Debug, Clone)]
pub struct FileSpec {
    /// Name in the flat namespace.
    pub name: String,
    /// Content.
    pub content: FileContent,
}

/// Formats `disk` with the given files. Returns the created inodes.
///
/// # Panics
///
/// Panics if the files do not fit on the disk or exceed format limits.
pub fn mkfs(disk: &mut DiskModel, files: &[FileSpec]) -> Vec<Inode> {
    let inode_count = files.len().max(4) as u32;
    let table_sectors = inode_count.div_ceil((SECTOR / INODE_SIZE) as u32);
    let sb = Superblock {
        inode_count,
        inode_table_lba: 1,
        inode_table_sectors: table_sectors,
    };
    let mut next_free = 1 + u64::from(table_sectors);
    let mut inodes = Vec::new();
    for spec in files {
        let size = match &spec.content {
            FileContent::Synthetic { size } => *size,
            FileContent::Bytes(b) => b.len() as u64,
        };
        let sectors = size.div_ceil(SECTOR as u64);
        assert!(
            next_free + sectors <= disk.sectors(),
            "disk too small for {}",
            spec.name
        );
        let extent = Extent {
            start: next_free,
            sectors: sectors as u32,
        };
        if let FileContent::Bytes(bytes) = &spec.content {
            for (i, chunk) in bytes.chunks(SECTOR).enumerate() {
                let mut sector = chunk.to_vec();
                sector.resize(SECTOR, 0);
                assert!(disk.write(next_free + i as u64, &sector));
            }
        }
        inodes.push(Inode {
            name: spec.name.clone(),
            size,
            extents: vec![extent],
        });
        next_free += sectors;
    }
    // Write the metadata.
    assert!(disk.write(0, &sb.encode()));
    let mut table = vec![0u8; table_sectors as usize * SECTOR];
    for (i, ino) in inodes.iter().enumerate() {
        table[i * INODE_SIZE..(i + 1) * INODE_SIZE].copy_from_slice(&ino.encode());
    }
    for (i, sector) in table.chunks(SECTOR).enumerate() {
        assert!(disk.write(1 + i as u64, sector));
    }
    inodes
}

/// Computes the SHA-1 a reader should observe for a *synthetic* file
/// created by [`mkfs`] on a disk seeded with `disk_seed` — without doing
/// any I/O. Mirrors what `sha1sum` reports in Fig. 8.
pub fn expected_sha1(disk_seed: u64, inode: &Inode) -> String {
    let mut h = Sha1::new();
    let mut sector = [0; SECTOR];
    let mut remaining = inode.size;
    let mut offset = 0u64;
    while remaining > 0 {
        let (lba, in_off) = inode.locate(offset).expect("within file");
        debug_assert_eq!(in_off, 0, "synthetic files are sector-aligned");
        synth_sector_into(disk_seed, lba, &mut sector);
        let take = remaining.min(SECTOR as u64) as usize;
        h.update(&sector[..take]);
        remaining -= take as u64;
        offset += take as u64;
    }
    h.finish_hex()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inode_roundtrip() {
        let ino = Inode {
            name: "bigfile".to_string(),
            size: 1_000_000,
            extents: vec![
                Extent {
                    start: 10,
                    sectors: 100,
                },
                Extent {
                    start: 500,
                    sectors: 1854,
                },
            ],
        };
        assert_eq!(Inode::decode(&ino.encode()), Some(ino));
    }

    #[test]
    fn inode_decode_rejects_garbage() {
        assert_eq!(Inode::decode(&[0u8; INODE_SIZE]), None, "empty slot");
        assert_eq!(Inode::decode(&[1u8; 10]), None, "short");
        let mut bad = Inode {
            name: "x".to_string(),
            size: 1,
            extents: vec![],
        }
        .encode();
        bad[40] = 200; // extent count way past MAX_EXTENTS
        assert_eq!(Inode::decode(&bad), None);
    }

    #[test]
    fn superblock_roundtrip() {
        let sb = Superblock {
            inode_count: 8,
            inode_table_lba: 1,
            inode_table_sectors: 2,
        };
        assert_eq!(Superblock::decode(&sb.encode()), Some(sb));
        assert_eq!(Superblock::decode(&vec![0u8; SECTOR]), None);
    }

    #[test]
    fn locate_walks_extents() {
        let ino = Inode {
            name: "f".to_string(),
            size: 3 * SECTOR as u64,
            extents: vec![
                Extent {
                    start: 100,
                    sectors: 2,
                },
                Extent {
                    start: 900,
                    sectors: 1,
                },
            ],
        };
        assert_eq!(ino.locate(0), Some((100, 0)));
        assert_eq!(ino.locate(SECTOR as u64 + 7), Some((101, 7)));
        assert_eq!(ino.locate(2 * SECTOR as u64), Some((900, 0)));
        assert_eq!(ino.locate(3 * SECTOR as u64), None, "EOF");
        assert_eq!(ino.contiguous_sectors_at(0), 2);
        assert_eq!(ino.contiguous_sectors_at(2 * SECTOR as u64), 1);
    }

    #[test]
    fn mkfs_lays_out_files_and_metadata() {
        let mut disk = DiskModel::new(10_000, 7);
        let inodes = mkfs(
            &mut disk,
            &[
                FileSpec {
                    name: "readme".to_string(),
                    content: FileContent::Bytes(b"hello fs".to_vec()),
                },
                FileSpec {
                    name: "big".to_string(),
                    content: FileContent::Synthetic { size: 1_000_000 },
                },
            ],
        );
        let sb = Superblock::decode(&disk.read(0).unwrap()).unwrap();
        assert_eq!(sb.inode_table_lba, 1);
        let table = disk.read(1).unwrap();
        let parsed0 = Inode::decode(&table[..INODE_SIZE]).unwrap();
        assert_eq!(parsed0, inodes[0]);
        let parsed1 = Inode::decode(&table[INODE_SIZE..2 * INODE_SIZE]).unwrap();
        assert_eq!(parsed1.name, "big");
        assert_eq!(parsed1.size, 1_000_000);
        // Explicit content landed on disk.
        let first = disk.read(inodes[0].extents[0].start).unwrap();
        assert_eq!(&first[..8], b"hello fs");
        // Extents do not overlap.
        let a = &inodes[0].extents[0];
        let b = &inodes[1].extents[0];
        assert!(a.start + u64::from(a.sectors) <= b.start);
    }

    #[test]
    fn expected_sha1_matches_manual_stream() {
        let seed = 99;
        let mut disk = DiskModel::new(1000, seed);
        let inodes = mkfs(
            &mut disk,
            &[FileSpec {
                name: "f".to_string(),
                content: FileContent::Synthetic {
                    size: 3 * SECTOR as u64 + 100,
                },
            }],
        );
        let want = expected_sha1(seed, &inodes[0]);
        // Manual: read the sectors from the disk model.
        let mut h = Sha1::new();
        let mut left = inodes[0].size;
        let mut off = 0u64;
        while left > 0 {
            let (lba, _) = inodes[0].locate(off).unwrap();
            let s = disk.read(lba).unwrap();
            let take = left.min(SECTOR as u64) as usize;
            h.update(&s[..take]);
            left -= take as u64;
            off += take as u64;
        }
        assert_eq!(h.finish_hex(), want);
    }
}
