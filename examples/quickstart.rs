//! Quickstart: boot the failure-resilient OS, kill a device driver the way
//! a hostile user would, and watch the reincarnation server bring it back
//! — transparently, with a fresh endpoint, in well under a second.
//!
//! Run with: `cargo run --example quickstart`

use phoenix::os::{names, NicKind, Os};
use phoenix_simcore::time::SimDuration;

fn main() {
    // Boot an OS with an RTL8139 NIC, the INET server, and a remote peer.
    let mut os = Os::builder().seed(7).with_network(NicKind::Rtl8139).boot();
    println!("booted at {}", os.now());
    for (name, up) in [
        (names::INET, os.is_up(names::INET)),
        (names::ETH_RTL8139, os.is_up(names::ETH_RTL8139)),
    ] {
        println!("  {name:<16} {}", if up { "up" } else { "DOWN" });
    }

    // The Ethernet driver is an ordinary user-mode process with a unique
    // IPC endpoint.
    let old = os.endpoint(names::ETH_RTL8139).expect("driver up");
    println!("\ndriver incarnation: {old}");

    // Kill it like the paper's crash-simulation script does (kill -9).
    println!("killing {} ...", names::ETH_RTL8139);
    os.kill_by_user(names::ETH_RTL8139);
    os.run_for(SimDuration::from_secs(1));

    // The reincarnation server detected the exit via the process manager,
    // ran the recovery policy, restarted the driver, and published the new
    // endpoint in the data store — where INET picked it up and
    // reinitialized the card.
    let new = os.endpoint(names::ETH_RTL8139).expect("driver recovered");
    println!("recovered as:       {new}");
    assert_ne!(old, new, "a restart always yields a fresh endpoint");

    println!("\nrecovery metrics:");
    for key in [
        "rs.recoveries",
        "rs.defect.killed",
        "inet.driver_reintegrations",
    ] {
        println!("  {key:<28} {}", os.metrics().counter(key));
    }
    if let Some(h) = os.metrics().log_histogram("rs.recovery_time") {
        if let Some(mean) = h.mean_duration() {
            println!("  mean recovery time           {:.3}s", mean.as_secs_f64());
        }
    }

    println!("\nrecovery-related trace:");
    for e in os.trace().events() {
        let m = &e.message;
        if m.contains("died") || m.contains("recovered") || m.contains("publish eth") {
            println!("  {e}");
        }
    }
}
