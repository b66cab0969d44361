//! FAT16 on-disk format and `mkfs.fat`.
//!
//! Fig. 5 of the paper shows *two* file servers — the native MFS and a FAT
//! server — both recovering transparently from block-driver failures. This
//! module provides a compact but real FAT16 layout (boot sector with BPB,
//! one FAT, a fixed root directory, cluster chains) and mounts it as a
//! [`Volume`] of the one file server engine in [`crate::mfs`]: three
//! reads (boot sector, FAT, root directory), after which every cluster
//! chain is resolved into the same extent table the native format uses.
//!
//! ```text
//! LBA 0                boot sector (BPB + 0xAA55)
//! LBA 1..1+F           the FAT (16-bit entries)
//! LBA 1+F..1+F+R       root directory (32-byte entries)
//! LBA 1+F+R..          data area (cluster 2 onward)
//! ```

use phoenix_hw::disk::{DiskModel, SECTOR};
use phoenix_simcore::wire::{Len, Reader, Writer};

use crate::fsfmt::{Extent, FileContent, FileSpec, Inode};
use crate::libserver::Names;
use crate::mfs::{FsNames, MountStep, Volume};

/// Sectors per cluster used by `mkfs_fat`.
pub const SECTORS_PER_CLUSTER: u8 = 4;
/// Root directory entries.
pub const ROOT_ENTRIES: usize = 64;
/// End-of-chain marker.
pub const EOC: u16 = 0xFFFF;

/// Parsed BIOS parameter block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bpb {
    /// Bytes per sector (must be 512 here).
    pub bytes_per_sector: u16,
    /// Sectors per cluster.
    pub sectors_per_cluster: u8,
    /// Reserved sectors before the FAT.
    pub reserved_sectors: u16,
    /// Number of FATs.
    pub num_fats: u8,
    /// Root directory entries.
    pub root_entries: u16,
    /// Total sectors on the volume.
    pub total_sectors: u16,
    /// Sectors per FAT.
    pub fat_size: u16,
}

impl Bpb {
    /// First sector of the FAT.
    pub fn fat_start(&self) -> u64 {
        u64::from(self.reserved_sectors)
    }

    /// First sector of the root directory.
    pub fn root_start(&self) -> u64 {
        self.fat_start() + u64::from(self.num_fats) * u64::from(self.fat_size)
    }

    /// Sectors occupied by the root directory.
    pub fn root_sectors(&self) -> u64 {
        (u64::from(self.root_entries) * 32).div_ceil(SECTOR as u64)
    }

    /// First sector of the data area (cluster 2).
    pub fn data_start(&self) -> u64 {
        self.root_start() + self.root_sectors()
    }

    /// First sector of a data cluster (clusters start at 2).
    pub fn cluster_lba(&self, cluster: u16) -> u64 {
        self.data_start() + u64::from(cluster - 2) * u64::from(self.sectors_per_cluster)
    }

    /// Serializes into a 512-byte boot sector.
    pub fn encode(&self) -> Vec<u8> {
        let mut s = vec![0u8; SECTOR];
        s[0] = 0xEB; // jmp short
        s[1] = 0x3C;
        s[2] = 0x90;
        s[3..11].copy_from_slice(b"PHXFAT  ");
        s[11..13].copy_from_slice(&self.bytes_per_sector.to_le_bytes());
        s[13] = self.sectors_per_cluster;
        s[14..16].copy_from_slice(&self.reserved_sectors.to_le_bytes());
        s[16] = self.num_fats;
        s[17..19].copy_from_slice(&self.root_entries.to_le_bytes());
        s[19..21].copy_from_slice(&self.total_sectors.to_le_bytes());
        s[21] = 0xF8; // media descriptor: fixed disk
        s[22..24].copy_from_slice(&self.fat_size.to_le_bytes());
        s[510] = 0x55;
        s[511] = 0xAA;
        s
    }

    /// Parses a boot sector; `None` when the signature or geometry is
    /// invalid.
    pub fn decode(raw: &[u8]) -> Option<Bpb> {
        if raw.len() < SECTOR || raw[510] != 0x55 || raw[511] != 0xAA {
            return None;
        }
        let bpb = Bpb {
            bytes_per_sector: u16::from_le_bytes([raw[11], raw[12]]),
            sectors_per_cluster: raw[13],
            reserved_sectors: u16::from_le_bytes([raw[14], raw[15]]),
            num_fats: raw[16],
            root_entries: u16::from_le_bytes([raw[17], raw[18]]),
            total_sectors: u16::from_le_bytes([raw[19], raw[20]]),
            fat_size: u16::from_le_bytes([raw[22], raw[23]]),
        };
        if bpb.bytes_per_sector != SECTOR as u16
            || bpb.sectors_per_cluster == 0
            || bpb.num_fats == 0
            || bpb.fat_size == 0
            || bpb.root_entries == 0
        {
            return None;
        }
        Some(bpb)
    }
}

/// A root-directory entry (8.3 name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// File name, already joined as `NAME.EXT` (lowercased).
    pub name: String,
    /// First cluster of the chain.
    pub first_cluster: u16,
    /// Size in bytes.
    pub size: u32,
}

/// Encodes an 8.3 directory entry.
///
/// # Panics
///
/// Panics if the name does not fit 8.3.
pub fn encode_dirent(e: &DirEntry) -> [u8; 32] {
    let mut out = [0u8; 32];
    let (base, ext) = match e.name.split_once('.') {
        Some((b, x)) => (b, x),
        None => (e.name.as_str(), ""),
    };
    assert!(
        base.len() <= 8 && ext.len() <= 3,
        "name must fit 8.3: {}",
        e.name
    );
    let mut name83 = [b' '; 11];
    for (i, b) in base.bytes().enumerate() {
        name83[i] = b.to_ascii_uppercase();
    }
    for (i, b) in ext.bytes().enumerate() {
        name83[8 + i] = b.to_ascii_uppercase();
    }
    out[..11].copy_from_slice(&name83);
    out[11] = 0x20; // ATTR_ARCHIVE: a regular file
    out[26..28].copy_from_slice(&e.first_cluster.to_le_bytes());
    out[28..32].copy_from_slice(&e.size.to_le_bytes());
    out
}

/// Decodes a directory entry; `None` for free/deleted slots.
pub fn decode_dirent(raw: &[u8]) -> Option<DirEntry> {
    if raw.len() < 32 || raw[0] == 0 || raw[0] == 0xE5 {
        return None;
    }
    let base = String::from_utf8_lossy(&raw[0..8])
        .trim_end()
        .to_lowercase();
    let ext = String::from_utf8_lossy(&raw[8..11])
        .trim_end()
        .to_lowercase();
    let name = if ext.is_empty() {
        base
    } else {
        format!("{base}.{ext}")
    };
    Some(DirEntry {
        name,
        first_cluster: u16::from_le_bytes([raw[26], raw[27]]),
        size: u32::from_le_bytes([raw[28], raw[29], raw[30], raw[31]]),
    })
}

/// Resolves the cluster chain starting at `first` into extents, merging
/// physically consecutive clusters (chains allocated sequentially become
/// one long run). A chain that leaves the FAT ends there, and a corrupt
/// chain that loops is cut off after as many hops as the FAT has entries:
/// the server serves what it has rather than spinning.
pub fn chain_extents(bpb: &Bpb, fat: &[u16], first: u16) -> Vec<Extent> {
    let per_cluster = u32::from(bpb.sectors_per_cluster);
    let mut extents: Vec<Extent> = Vec::new();
    let mut c = first;
    for _ in 0..fat.len() {
        if c < 2 || c == EOC || usize::from(c) >= fat.len() {
            break;
        }
        let lba = bpb.cluster_lba(c);
        match extents.last_mut() {
            Some(e) if e.start + u64::from(e.sectors) == lba => e.sectors += per_cluster,
            _ => extents.push(Extent {
                start: lba,
                sectors: per_cluster,
            }),
        }
        c = fat[usize::from(c)];
    }
    extents
}

/// The root directory as the engine's file table.
fn root_files(bpb: &Bpb, fat: &[u16], root: &[u8]) -> Vec<Inode> {
    let entries = root.chunks_exact(32).filter_map(decode_dirent);
    entries
        .map(|e| Inode {
            extents: chain_extents(bpb, fat, e.first_cluster),
            name: e.name,
            size: u64::from(e.size),
        })
        .collect()
}

/// FAT16 as a [`Volume`]. The value is the mount plan's progress; once
/// mounted everything lives in the extent table and nothing is kept.
#[derive(Debug, Default)]
pub enum Fat16 {
    /// Nothing read yet (also: mounted).
    #[default]
    Boot,
    /// Boot sector parsed, the FAT is next.
    Fat(Bpb),
    /// FAT loaded, the root directory is next.
    Root(Bpb, Vec<u16>),
}

impl Volume for Fat16 {
    const NAMES: FsNames = FsNames {
        shell: Names {
            server: "fat",
            state_key: "mount",
            injected_crash: "fat.injected_crash",
            stalled_events: "fat.stalled_events",
            garbled_replies: "fat.garbled_replies",
            restore_garbage: "fat.mount_restore_garbage",
        },
        reads: "fat.reads",
        writes: "fat.writes",
        pending_aborts: "fat.pending_aborts",
        retries: "fat.retries",
        reissues: "fat.reissues",
        driver_reintegrations: "fat.driver_reintegrations",
        mount_restored: "fat.mount_restored",
        csum_retries: "sentinel.fat.csum_retries",
        scrubs: "sentinel.fat.scrubs",
        scrub_ok: "sentinel.fat.scrub_ok",
        scrub_mismatch: "sentinel.fat.scrub_mismatch",
    };

    fn mount_step(&mut self, last_read: Option<&[u8]>) -> MountStep {
        match (std::mem::take(self), last_read) {
            (_, None) => MountStep::Read { lba: 0, sectors: 1 },
            (Fat16::Boot, Some(boot)) => {
                let Some(bpb) = Bpb::decode(boot) else {
                    return MountStep::Bad("bad FAT boot sector");
                };
                let next = MountStep::Read {
                    lba: bpb.fat_start(),
                    sectors: u64::from(bpb.fat_size),
                };
                *self = Fat16::Fat(bpb);
                next
            }
            (Fat16::Fat(bpb), Some(table)) => {
                let fat = table
                    .chunks_exact(2)
                    .map(|c| u16::from_le_bytes([c[0], c[1]]));
                let next = MountStep::Read {
                    lba: bpb.root_start(),
                    sectors: bpb.root_sectors(),
                };
                *self = Fat16::Root(bpb, fat.collect());
                next
            }
            (Fat16::Root(bpb, fat), Some(root)) => MountStep::Mounted(root_files(&bpb, &fat, root)),
        }
    }

    /// 8.3 names are case-insensitive; the table holds them lowercased.
    fn canonical_name(raw: &[u8]) -> String {
        String::from_utf8_lossy(raw).to_lowercase()
    }

    /// The resolved table: `count:u16`, then per file `name:str8
    /// size:u64`, `count:u32` and that many `start:u64 sectors:u32`.
    // analyze:recovery
    fn encode(&self, files: &[Inode]) -> Vec<u8> {
        let mut w = Writer::new();
        w.seq(Len::U16, files.iter(), |w, f| {
            w.str(Len::U8, &f.name);
            w.u64(f.size);
            w.seq(Len::U32, f.extents.iter(), |w, e| {
                w.u64(e.start);
                w.u32(e.sectors);
            });
        });
        w.into_bytes()
    }

    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<(Self, Vec<Inode>)> {
        let mut r = Reader::new(payload);
        let files = r.seq(Len::U16, |r| {
            let name = r.str(Len::U8)?.to_string();
            let size = r.u64()?;
            let extents = r.seq(Len::U32, |r| {
                Some(Extent {
                    start: r.u64()?,
                    sectors: r.u32()?,
                })
            })?;
            Some(Inode {
                name,
                size,
                extents,
            })
        })?;
        r.finish()?;
        Some((Fat16::Boot, files))
    }
}

/// Formats `disk` as FAT16 with the given files (sequential cluster
/// chains). Returns the files as a mount will see them.
///
/// # Panics
///
/// Panics if the files do not fit, are 4 GB or larger, or a name is not
/// 8.3.
pub fn mkfs_fat(disk: &mut DiskModel, files: &[FileSpec]) -> Vec<Inode> {
    let total = disk.sectors().min(u64::from(u16::MAX)) as u16;
    // FAT sizing: one u16 per cluster, clusters ≈ total / spc.
    let clusters = total / u16::from(SECTORS_PER_CLUSTER);
    let fat_size = (u32::from(clusters) * 2).div_ceil(SECTOR as u32) as u16;
    let bpb = Bpb {
        bytes_per_sector: SECTOR as u16,
        sectors_per_cluster: SECTORS_PER_CLUSTER,
        reserved_sectors: 1,
        num_fats: 1,
        root_entries: ROOT_ENTRIES as u16,
        total_sectors: total,
        fat_size,
    };
    let cluster_bytes = u32::from(SECTORS_PER_CLUSTER) * SECTOR as u32;
    let mut fat = vec![0u16; usize::from(clusters) + 2];
    fat[0] = 0xFFF8; // media descriptor chain head
    fat[1] = EOC;
    let mut next_cluster: u16 = 2;
    let mut dirents = Vec::new();
    for spec in files {
        let size = match &spec.content {
            FileContent::Synthetic { size } => *size,
            FileContent::Bytes(b) => b.len() as u64,
        };
        assert!(
            size <= u64::from(u32::MAX),
            "{} too big for FAT16",
            spec.name
        );
        let size = size as u32;
        let n_clusters = size.div_ceil(cluster_bytes).max(1) as u16;
        let first = next_cluster;
        assert!(
            usize::from(next_cluster + n_clusters) <= fat.len(),
            "disk too small for {}",
            spec.name
        );
        // Sequential chain: c -> c+1 -> ... -> EOC.
        for c in first..first + n_clusters {
            fat[usize::from(c)] = if c + 1 < first + n_clusters {
                c + 1
            } else {
                EOC
            };
        }
        if let FileContent::Bytes(bytes) = &spec.content {
            let base = bpb.cluster_lba(first);
            for (i, chunk) in bytes.chunks(SECTOR).enumerate() {
                let mut sector = chunk.to_vec();
                sector.resize(SECTOR, 0);
                assert!(disk.write(base + i as u64, &sector));
            }
        }
        dirents.push(DirEntry {
            name: spec.name.clone(),
            first_cluster: first,
            size,
        });
        next_cluster += n_clusters;
    }
    // Write metadata: boot sector, FAT, root directory.
    assert!(disk.write(0, &bpb.encode()));
    let mut fat_bytes = Vec::with_capacity(fat.len() * 2);
    for e in &fat {
        fat_bytes.extend_from_slice(&e.to_le_bytes());
    }
    for (i, chunk) in fat_bytes.chunks(SECTOR).enumerate() {
        let mut sector = chunk.to_vec();
        sector.resize(SECTOR, 0);
        assert!(disk.write(bpb.fat_start() + i as u64, &sector));
    }
    let mut root = vec![0u8; usize::from(bpb.root_entries) * 32];
    for (i, e) in dirents.iter().enumerate() {
        root[i * 32..(i + 1) * 32].copy_from_slice(&encode_dirent(e));
    }
    for (i, chunk) in root.chunks(SECTOR).enumerate() {
        assert!(disk.write(bpb.root_start() + i as u64, chunk));
    }
    root_files(&bpb, &fat, &root)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bpb_roundtrip() {
        let bpb = Bpb {
            bytes_per_sector: 512,
            sectors_per_cluster: 4,
            reserved_sectors: 1,
            num_fats: 1,
            root_entries: 64,
            total_sectors: 8192,
            fat_size: 8,
        };
        assert_eq!(Bpb::decode(&bpb.encode()), Some(bpb.clone()));
        assert_eq!(Bpb::decode(&vec![0u8; 512]), None, "no signature");
        // Geometry a mount could not read: an empty FAT or root directory.
        let no_fat = Bpb {
            fat_size: 0,
            ..bpb.clone()
        };
        assert_eq!(Bpb::decode(&no_fat.encode()), None);
        let no_root = Bpb {
            root_entries: 0,
            ..bpb
        };
        assert_eq!(Bpb::decode(&no_root.encode()), None);
    }

    #[test]
    fn dirent_roundtrip_and_names() {
        let e = DirEntry {
            name: "big.bin".to_string(),
            first_cluster: 5,
            size: 123_456,
        };
        assert_eq!(decode_dirent(&encode_dirent(&e)), Some(e));
        let noext = DirEntry {
            name: "readme".to_string(),
            first_cluster: 2,
            size: 9,
        };
        assert_eq!(decode_dirent(&encode_dirent(&noext)), Some(noext));
        assert_eq!(decode_dirent(&[0u8; 32]), None, "free slot");
    }

    #[test]
    #[should_panic(expected = "8.3")]
    fn long_names_rejected() {
        let _ = encode_dirent(&DirEntry {
            name: "waytoolongname.bin".to_string(),
            first_cluster: 2,
            size: 0,
        });
    }

    fn spec(name: &str, content: FileContent) -> FileSpec {
        FileSpec {
            name: name.to_string(),
            content,
        }
    }

    #[test]
    fn mkfs_layout_is_consistent() {
        let mut disk = DiskModel::new(8192, 3);
        let files = mkfs_fat(
            &mut disk,
            &[
                spec("hello.txt", FileContent::Bytes(b"hello fat".to_vec())),
                spec("big.bin", FileContent::Synthetic { size: 1_000_000 }),
            ],
        );
        let bpb = Bpb::decode(&disk.read(0).unwrap()).expect("boot sector parses back");
        // Root dir holds both entries.
        let root = disk.read(bpb.root_start()).unwrap();
        let e0 = decode_dirent(&root[0..32]).unwrap();
        let e1 = decode_dirent(&root[32..64]).unwrap();
        assert_eq!(e0.name, "hello.txt");
        assert_eq!(e1.name, "big.bin");
        assert_eq!(e1.size, 1_000_000);
        // FAT chain of big.bin is sequential and ends in EOC.
        let mut fat_bytes = Vec::new();
        for i in 0..u64::from(bpb.fat_size) {
            fat_bytes.extend(disk.read(bpb.fat_start() + i).unwrap());
        }
        let entry_of = |c: u16| {
            let off = usize::from(c) * 2;
            u16::from_le_bytes([fat_bytes[off], fat_bytes[off + 1]])
        };
        assert_eq!(entry_of(e0.first_cluster), EOC, "1-cluster file");
        let mut c = e1.first_cluster;
        let mut hops = 0;
        while entry_of(c) != EOC {
            assert_eq!(entry_of(c), c + 1, "sequential chain");
            c += 1;
            hops += 1;
            assert!(hops < 1000);
        }
        let cluster_bytes = 4 * 512;
        let chain_len = 1_000_000_u32.div_ceil(cluster_bytes);
        assert_eq!(hops + 1, chain_len, "chain length");
        // Explicit content landed in the data area.
        let data = disk.read(bpb.cluster_lba(e0.first_cluster)).unwrap();
        assert_eq!(&data[..9], b"hello fat");
        // What mkfs returns is the table a mount resolves: a sequential
        // chain is one extent.
        assert_eq!(files.len(), 2);
        assert_eq!(files[1].size, 1_000_000);
        let big = Extent {
            start: bpb.cluster_lba(e1.first_cluster),
            sectors: chain_len * 4,
        };
        assert_eq!(files[1].extents, vec![big]);
    }

    /// Runs the three-read mount plan against the disk model.
    fn mount(disk: &DiskModel) -> Vec<Inode> {
        let mut vol = Fat16::default();
        let mut step = vol.mount_step(None);
        loop {
            match step {
                MountStep::Read { lba, sectors } => {
                    let mut data = Vec::new();
                    for i in 0..sectors {
                        data.extend(disk.read(lba + i).unwrap());
                    }
                    step = vol.mount_step(Some(&data));
                }
                MountStep::Mounted(files) => return files,
                MountStep::Bad(why) => panic!("{why}"),
            }
        }
    }

    #[test]
    fn mount_plan_is_three_reads_and_agrees_with_mkfs() {
        let mut disk = DiskModel::new(4096, 77);
        let made = mkfs_fat(
            &mut disk,
            &[spec("f.bin", FileContent::Synthetic { size: 5000 })],
        );
        assert_eq!(mount(&disk), made);
        let mut vol = Fat16::default();
        assert_eq!(vol.mount_step(None), MountStep::Read { lba: 0, sectors: 1 });
        let garbage = vec![0u8; SECTOR];
        assert!(matches!(vol.mount_step(Some(&garbage)), MountStep::Bad(_)));
        // A bad step leaves the plan at its start, not half-way.
        assert!(matches!(vol, Fat16::Boot));
    }

    #[test]
    fn checkpoint_codec_roundtrips_and_rejects_garbage() {
        let mut disk = DiskModel::new(8192, 5);
        let files = mkfs_fat(
            &mut disk,
            &[
                spec("a.txt", FileContent::Bytes(b"abc".to_vec())),
                spec("b.bin", FileContent::Synthetic { size: 70_000 }),
            ],
        );
        let payload = Fat16::Boot.encode(&files);
        let (_, back) = Fat16::decode(&payload).expect("own payload parses");
        assert_eq!(back, files);
        assert!(
            Fat16::decode(&payload[..payload.len() - 1]).is_none(),
            "truncated"
        );
        let mut long = payload.clone();
        long.push(0);
        assert!(Fat16::decode(&long).is_none(), "trailing bytes");
        assert!(Fat16::decode(&[]).is_none(), "empty");
        assert!(Fat16::decode(&[0xFF; 64]).is_none(), "noise");
    }

    fn test_bpb() -> Bpb {
        Bpb {
            bytes_per_sector: 512,
            sectors_per_cluster: 4,
            reserved_sectors: 1,
            num_fats: 1,
            root_entries: 64,
            total_sectors: 8192,
            fat_size: 8,
        }
    }

    #[test]
    fn fragmented_chain_coalesces_into_one_extent_per_run() {
        let bpb = test_bpb();
        // 2 -> 3 -> 7 -> 8 -> 9 -> 5 -> EOC: runs {2,3}, {7,8,9}, {5}.
        let mut fat = vec![0u16; 16];
        for (c, next) in [(2, 3), (3, 7), (7, 8), (8, 9), (9, 5), (5, EOC)] {
            fat[c] = next;
        }
        let run = |first: u16, clusters: u32| Extent {
            start: bpb.cluster_lba(first),
            sectors: clusters * 4,
        };
        assert_eq!(
            chain_extents(&bpb, &fat, 2),
            vec![run(2, 2), run(7, 3), run(5, 1)]
        );
        // The extents serve the same sectors the chain names, in order.
        let ino = Inode {
            name: "f".to_string(),
            size: 6 * 4 * 512,
            extents: chain_extents(&bpb, &fat, 2),
        };
        let third_cluster = 2 * 4 * 512;
        assert_eq!(ino.locate(third_cluster), Some((bpb.cluster_lba(7), 0)));
        assert_eq!(ino.contiguous_sectors_at(third_cluster), 12);
    }

    #[test]
    fn corrupt_chains_are_bounded_and_never_leave_the_fat() {
        let bpb = test_bpb();
        // A loop 2 -> 3 -> 2: cut off after as many hops as the FAT has
        // entries, whatever they merge into.
        let mut fat = vec![0u16; 16];
        fat[2] = 3;
        fat[3] = 2;
        let looped = chain_extents(&bpb, &fat, 2);
        let sectors: u32 = looped.iter().map(|e| e.sectors).sum();
        assert_eq!(sectors, 16 * 4, "one cluster per hop, FAT-length hops");
        // EOC (or a free/reserved marker) at the first cluster: no data.
        assert_eq!(chain_extents(&bpb, &fat, EOC), vec![]);
        assert_eq!(chain_extents(&bpb, &fat, 0), vec![]);
        // A link pointing past the FAT ends the chain at the last good
        // cluster instead of addressing sectors off the volume.
        fat[4] = 4000;
        assert_eq!(chain_extents(&bpb, &fat, 4).len(), 1);
        assert_eq!(chain_extents(&bpb, &fat, 4)[0].sectors, 4);
    }
}
