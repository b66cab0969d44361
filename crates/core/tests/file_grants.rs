//! The life of VFS's grant over a reader's buffer: VFS makes one per READ
//! it forwards to a file server and revokes it when the forward ends —
//! on the reply, on the file server's death, and when the reader died
//! under the read. A reader that dies mid-read costs the file server one
//! failed copy, not a complaint, and the driver keeps running.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix::apps::{Dd, DdStatus};
use phoenix::experiments::{fig8_expected_sha1, fig8_files};
use phoenix::os::{names, Os};
use phoenix_simcore::time::SimDuration;

const DISK_SEED: u64 = 41;
const FILE_SIZE: u64 = 1 << 20;
const SECTORS: u64 = FILE_SIZE / 512 + 1024;

fn boot() -> Os {
    Os::builder()
        .seed(41)
        .with_disk(SECTORS, DISK_SEED, fig8_files(FILE_SIZE))
        .boot()
}

/// Spawns `dd` over the file in 64 KB reads.
fn dd(os: &mut Os, name: &str) -> Rc<RefCell<DdStatus>> {
    let vfs = os.endpoint(names::VFS).expect("VFS runs");
    let status = Rc::new(RefCell::new(DdStatus::default()));
    let app = Dd::new(vfs, "bigfile", 64 * 1024, Rc::clone(&status));
    os.spawn_app(name, Box::new(app));
    status
}

/// Runs in 50 µs steps until VFS has a read forwarded, its grant open.
fn until_a_read_is_in_flight(os: &mut Os) {
    for _ in 0..10_000 {
        if os.grants_held(names::VFS) == 1 {
            return;
        }
        os.run_for(SimDuration::from_micros(50));
    }
    panic!("no read reached the file server");
}

fn complaints(os: &Os) -> Vec<(String, u64)> {
    let filed = os.metrics().counters();
    filed
        .filter(|&(name, n)| name.starts_with("rs.complaints.") && n > 0)
        .map(|(name, n)| (name.to_string(), n))
        .collect()
}

#[test]
fn a_completed_read_leaves_no_grant() {
    let mut os = boot();
    let status = dd(&mut os, "dd");
    until_a_read_is_in_flight(&mut os);
    os.run_for(SimDuration::from_secs(5));
    let st = status.borrow();
    assert!(st.done && st.errors == 0, "{st:?}");
    let want = fig8_expected_sha1(SECTORS, DISK_SEED, FILE_SIZE);
    assert_eq!(st.sha1.as_deref(), Some(want.as_str()));
    assert_eq!(os.grants_held(names::VFS), 0);
}

#[test]
fn a_file_server_killed_mid_read_leaves_no_grant() {
    let mut os = boot();
    let status = dd(&mut os, "dd");
    until_a_read_is_in_flight(&mut os);
    assert!(os.kill_by_user(names::MFS));
    os.run_for(SimDuration::from_secs(2));
    // The recovery-unaware reader reports the abort and stops.
    assert_eq!(status.borrow().errors, 1);
    assert!(os.is_up(names::MFS), "the file server is back");
    assert_eq!(os.grants_held(names::VFS), 0);
}

#[test]
fn a_reader_killed_mid_read_leaves_no_grant_and_no_complaint() {
    let mut os = boot();
    let driver = os.endpoint(names::BLK_SATA);
    dd(&mut os, "dd");
    until_a_read_is_in_flight(&mut os);
    assert!(os.kill_by_user("dd"));
    os.run_for(SimDuration::from_secs(1));
    assert_eq!(os.grants_held(names::VFS), 0);
    let gone = os
        .trace()
        .events()
        .filter(|e| e.message == "client buffer gone");
    assert_eq!(gone.count(), 1, "the file server's copy failed once");
    assert_eq!(complaints(&os), [], "a dead reader is nobody's fault");
    assert_eq!(
        os.endpoint(names::BLK_SATA),
        driver,
        "the driver was not restarted"
    );
    // The file server goes on serving the next reader.
    let status = dd(&mut os, "dd-2");
    os.run_for(SimDuration::from_secs(5));
    let st = status.borrow();
    assert!(st.done && st.errors == 0, "{st:?}");
    let want = fig8_expected_sha1(SECTORS, DISK_SEED, FILE_SIZE);
    assert_eq!(st.sha1.as_deref(), Some(want.as_str()));
}
