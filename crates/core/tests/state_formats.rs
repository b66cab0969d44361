//! The bytes every component externalises, pinned as text: one machine
//! with every checkpointing component on it runs a short workload, and
//! each record of its checkpoint store is dumped as hex; one literal
//! fleet node snapshot rides along. A change to a state codec that moves
//! none of this kept the formats.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use phoenix::apps::{
    CkptLpd, CkptLpdStatus, CkptMp3Player, CkptMp3Status, Dd, DdStatus, Wget, WgetStatus,
};
use phoenix::os::{names, NicKind, Os};
use phoenix_fleet::NodeSnapshot;
use phoenix_servers::fsfmt::{FileContent, FileSpec};
use phoenix_simcore::time::SimDuration;

fn one_file(name: &str) -> Vec<FileSpec> {
    vec![FileSpec {
        name: name.to_string(),
        content: FileContent::Synthetic { size: 100_000 },
    }]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut s, b| {
        write!(s, "{b:02x}").unwrap();
        s
    })
}

/// Every checkpointed component has saved at least once when this stops:
/// a print job, a song and a download are in flight, both mounts have
/// been read, and the keyboard holds typed-but-unread input.
fn store_dump() -> String {
    let mut os = Os::builder()
        .seed(18)
        .with_network(NicKind::Rtl8139)
        .with_disk(2048, 11, one_file("bigfile"))
        .with_fat_disk(2048, 12, one_file("big.bin"))
        .with_chardevs()
        .with_checkpointing()
        .boot();
    let vfs = os.endpoint(names::VFS).expect("vfs up");
    let inet = os.endpoint(names::INET).expect("inet up");

    let job: Vec<u8> = (0..40 * 1024).map(|i| (i % 251) as u8).collect();
    let lpd = Rc::new(RefCell::new(CkptLpdStatus::default()));
    os.spawn_app("ckpt-lpd", Box::new(CkptLpd::new(vfs, job, lpd.clone())));
    let mp3 = Rc::new(RefCell::new(CkptMp3Status::default()));
    let period = SimDuration::from_millis(25);
    os.spawn_app(
        "ckpt-mp3",
        Box::new(CkptMp3Player::new(vfs, 400, 1024, period, mp3)),
    );
    let dd_mfs = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-mfs",
        Box::new(Dd::new(vfs, "bigfile", 8 * 1024, dd_mfs.clone())),
    );
    let dd_fat = Rc::new(RefCell::new(DdStatus::default()));
    os.spawn_app(
        "dd-fat",
        Box::new(Dd::new(vfs, "/fat/big.bin", 8 * 1024, dd_fat.clone())),
    );
    let wget = Rc::new(RefCell::new(WgetStatus::default()));
    os.spawn_app(
        "wget",
        Box::new(Wget::new(inet, 64 * 1024 * 1024, 3, wget.clone())),
    );
    os.type_input(SimDuration::from_millis(20), b"phoe".to_vec());
    os.type_input(SimDuration::from_millis(40), b"nix".to_vec());
    os.run_for(SimDuration::from_millis(300));

    assert!(dd_mfs.borrow().done && dd_fat.borrow().done, "both reads");
    assert!(!lpd.borrow().done, "the print job is still in flight");
    assert!(!wget.borrow().done, "the download is still in flight");
    assert!(wget.borrow().bytes > 0, "the connection is live");

    let store = os.ckpt_store().expect("checkpointing machine");
    let mut lines: Vec<String> = store
        .borrow()
        .export()
        .iter()
        .map(|(owner, key, frame)| format!("{owner} {key} {}\n", hex(frame)))
        .collect();
    lines.sort();
    lines.concat()
}

fn node_snapshot_line() -> String {
    let frame =
        |inc, seq, payload: &[u8]| phoenix_ckpt::Snapshot::new(inc, seq, payload.to_vec()).encode();
    let snap = NodeSnapshot {
        node: 2,
        gen: 5,
        ckpt: vec![
            (
                "chr.printer".to_string(),
                "printer".to_string(),
                frame(3, 17, &4096u64.to_le_bytes()),
            ),
            (
                "vfs".to_string(),
                "mounts".to_string(),
                frame(1, 2, &[0, 0, 0, 0]),
            ),
        ],
        ds: vec![(
            "fleet.identity".to_string(),
            "fleet".to_string(),
            vec![2, 5, 0, 0, 0],
        )],
    };
    format!("node-snapshot {}\n", hex(&snap.encode()))
}

#[test]
fn state_formats_are_pinned() {
    let actual = store_dump() + &node_snapshot_line();
    let expected = include_str!("state_formats.txt");
    assert!(
        actual == expected,
        "an externalised-state format moved; the bytes now:\n{actual}"
    );
}
