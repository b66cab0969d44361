//! A miniature §7.2 fault-injection campaign: mutate the running DP8390
//! driver's binary code with the paper's seven fault types until it
//! crashes, classify each detected defect, and verify recovery.
//!
//! Run with: `cargo run --release --example fault_campaign`
//! (the full-size campaign is `cargo run --release -p phoenix-bench --
//! sec72`)

use phoenix::campaign::{run_campaign, CampaignConfig};
use phoenix_servers::policy::reason;

fn main() {
    let cfg = CampaignConfig {
        injections: 500,
        ..CampaignConfig::default()
    };
    println!(
        "injecting {} random binary faults into the running eth.dp8390 driver ...\n",
        cfg.injections
    );
    let (result, traffic) = run_campaign(&cfg);

    println!("{}\n", result.render());
    println!("per-crash log (defect class, faults since previous crash):");
    for (i, c) in result.crashes.iter().enumerate() {
        println!(
            "  crash #{:<3} {:<10} after {:>3} faults  recovered={}{}",
            i + 1,
            reason::name(c.defect),
            c.injections_since_last,
            c.recovered,
            if c.needed_hard_reset {
                " (BIOS reset)"
            } else {
                ""
            },
        );
    }
    let t = traffic.borrow();
    println!(
        "\nbackground traffic stayed alive throughout: {} datagrams echoed, {} resent",
        t.echoed, t.resent
    );
}
