//! Every externalised-state decoder the servers can see, against one
//! table of properties: what `encode` wrote decodes back to the same
//! bytes, and anything else — a truncated frame, a trailing byte, a name
//! that is not UTF-8 — is garbage, never a partial restore. The frames
//! are written out field by field here, so the table is also a second
//! statement of each layout (DESIGN §5e, "what is on the wire").

use phoenix_ckpt::Snapshot;
use phoenix_hw::disk::SECTOR;
use phoenix_kernel::types::Endpoint;
use phoenix_servers::fsfat::Fat16;
use phoenix_servers::fsfmt::{Extent, Inode, Minix, Superblock};
use phoenix_servers::libserver::ServerLogic;
use phoenix_servers::mfs::Volume;
use phoenix_servers::{Inet, ProcessManager, Vfs};
use phoenix_simcore::wire::{Len, Writer};

struct Row {
    what: &'static str,
    frame: Vec<u8>,
    /// Decodes, then encodes what it decoded.
    recode: fn(&[u8]) -> Option<Vec<u8>>,
    /// Offset of a byte inside a name field, where the layout has one.
    name_at: Option<usize>,
}

fn ep(slot: u16, generation: u32) -> Endpoint {
    Endpoint::new(slot, generation)
}

fn vfs_mounts() -> Row {
    let mut w = Writer::new();
    Endpoint::put_opt(Some(ep(5, 1)), &mut w);
    Endpoint::put_opt(None, &mut w);
    w.u16(2);
    let name_at = w.written().len() + 1;
    for (key, slot) in [("chr.audio", 11), ("chr.kbd", 13)] {
        w.str(Len::U8, key);
        Endpoint::put_opt(Some(ep(slot, 2)), &mut w);
    }
    Row {
        what: "vfs mounts",
        frame: w.into_bytes(),
        recode: |b| Some(Vfs::decode(b)?.encode()),
        name_at: Some(name_at),
    }
}

/// PM's reaper binding, its whole state.
fn pm_records() -> Row {
    let mut w = Writer::new();
    Endpoint::put_opt(Some(ep(2, 1)), &mut w);
    Row {
        what: "pm records",
        frame: w.into_bytes(),
        recode: |b| Some(ProcessManager::decode(b)?.encode()),
        name_at: None,
    }
}

/// A four-slot slab with connections 1 and 3 live and a datagram app.
fn inet_session(ids: [u16; 2], slab_len: u32) -> Row {
    let mut w = Writer::new();
    w.u32(slab_len);
    Endpoint::put_opt(Some(ep(20, 1)), &mut w);
    w.u16(2);
    for (id, bits, unacked) in [(ids[0], 1, &b"GET /"[..]), (ids[1], 2, &b""[..])] {
        w.u16(id);
        ep(21, 2).put(&mut w);
        w.u8(bits);
        w.u32(7);
        w.u32(9);
        w.bytes(Len::U32, unacked);
    }
    Row {
        what: "inet session",
        frame: w.into_bytes(),
        recode: |b| Some(Inet::decode(b)?.encode()),
        name_at: None,
    }
}

fn recode_volume<V: Volume>(payload: &[u8]) -> Option<Vec<u8>> {
    let (volume, files) = V::decode(payload)?;
    Some(volume.encode(&files))
}

fn files() -> [Inode; 2] {
    let extents = vec![
        Extent {
            start: 7,
            sectors: 196,
        },
        Extent {
            start: 300,
            sectors: 4,
        },
    ];
    [
        Inode {
            name: "big.bin".to_string(),
            size: 100_000,
            extents,
        },
        Inode {
            name: "empty".to_string(),
            size: 0,
            extents: Vec::new(),
        },
    ]
}

fn minix_mount() -> Row {
    let mut w = Writer::new();
    let superblock = Superblock {
        inode_count: 4,
        inode_table_lba: 1,
        inode_table_sectors: 1,
    };
    w.raw(&superblock.encode());
    w.u16(2);
    for inode in files() {
        w.raw(&inode.encode());
    }
    Row {
        what: "mfs mount",
        frame: w.into_bytes(),
        recode: recode_volume::<Minix>,
        name_at: Some(SECTOR + 2),
    }
}

fn fat_mount() -> Row {
    let mut w = Writer::new();
    w.u16(2);
    let name_at = w.written().len() + 1;
    for inode in files() {
        w.str(Len::U8, &inode.name);
        w.u64(inode.size);
        w.u32(inode.extents.len() as u32);
        for e in &inode.extents {
            w.u64(e.start);
            w.u32(e.sectors);
        }
    }
    Row {
        what: "fat mount",
        frame: w.into_bytes(),
        recode: recode_volume::<Fat16>,
        name_at: Some(name_at),
    }
}

/// The frame every payload above travels in.
fn ckpt_frame() -> Row {
    Row {
        what: "checkpoint frame",
        frame: Snapshot::new(3, 17, vfs_mounts().frame).encode(),
        recode: |b| Some(Snapshot::decode(b).ok()?.encode()),
        name_at: None,
    }
}

fn table() -> Vec<Row> {
    vec![
        vfs_mounts(),
        pm_records(),
        inet_session([1, 3], 4),
        minix_mount(),
        fat_mount(),
        ckpt_frame(),
    ]
}

#[test]
fn what_encode_wrote_decodes_back_to_the_same_bytes() {
    for row in table() {
        let again = (row.recode)(&row.frame);
        assert_eq!(again.as_ref(), Some(&row.frame), "{}", row.what);
    }
}

#[test]
fn every_strict_prefix_is_garbage() {
    for row in table() {
        for cut in 0..row.frame.len() {
            let got = (row.recode)(&row.frame[..cut]);
            assert_eq!(got, None, "{} cut at {cut}", row.what);
        }
    }
}

#[test]
fn one_trailing_byte_is_garbage() {
    for row in table() {
        for extra in [0u8, 1, 0xFF] {
            let mut frame = row.frame.clone();
            frame.push(extra);
            assert_eq!((row.recode)(&frame), None, "{} + {extra:#x}", row.what);
        }
    }
}

#[test]
fn a_name_that_is_not_utf8_is_garbage() {
    for row in table() {
        let Some(at) = row.name_at else { continue };
        let mut frame = row.frame.clone();
        frame[at] = 0xFF;
        assert_eq!((row.recode)(&frame), None, "{}", row.what);
    }
}

/// A name longer than its one-byte prefix can say is cut at a character
/// boundary, prefix and bytes agreeing, and the frame still decodes.
#[test]
fn an_overlong_name_is_cut_not_corrupted() {
    let long = "n".repeat(254) + "\u{e9}tail";
    let mut table = files();
    table[0].name = long.clone();
    let payload = Fat16::default().encode(&table);
    let (_, decoded) = Fat16::decode(&payload).expect("still one of ours");
    assert_eq!(decoded[0].name, long[..254]);
    assert_eq!(decoded[1], table[1]);
}

#[test]
fn inet_rejects_a_session_its_slab_cannot_hold() {
    for (ids, slab_len) in [([0, 3], 4), ([1, 4], 4), ([1, 3], 0), ([1, 3], 70_000)] {
        let row = inet_session(ids, slab_len);
        assert_eq!((row.recode)(&row.frame), None, "{ids:?} in {slab_len}");
    }
}
