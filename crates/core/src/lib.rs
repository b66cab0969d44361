//! Phoenix: a failure-resilient operating system in simulation — a full
//! reproduction of *Failure Resilience for Device Drivers* (Herder, Bos,
//! Gras, Homburg, Tanenbaum; DSN 2007).
//!
//! The system runs every server and device driver as an isolated
//! user-mode process on a microkernel substrate. A reincarnation server
//! detects defects (exits, panics, exceptions, kills, missed heartbeats,
//! complaints, dynamic updates) and repairs them through parametrized
//! policy scripts; a data store propagates the restarted component's new
//! endpoint to its dependents, which reintegrate it — transparently for
//! network and block drivers, with application-level recovery for
//! character drivers.
//!
//! # Quick start
//!
//! ```
//! use phoenix::os::{names, NicKind, Os};
//! use phoenix_simcore::time::SimDuration;
//!
//! // Boot an OS with an RTL8139 NIC, INET and a remote peer.
//! let mut os = Os::builder().seed(7).with_network(NicKind::Rtl8139).boot();
//! assert!(os.is_up(names::ETH_RTL8139));
//!
//! // Kill the Ethernet driver like a hostile user would...
//! let old = os.endpoint(names::ETH_RTL8139).unwrap();
//! os.kill_by_user(names::ETH_RTL8139);
//! os.run_for(SimDuration::from_secs(1));
//!
//! // ...and the reincarnation server has already replaced it.
//! let new = os.endpoint(names::ETH_RTL8139).unwrap();
//! assert_ne!(old, new, "fresh incarnation with a new endpoint");
//! assert_eq!(os.metrics().counter("rs.recoveries"), 1);
//! ```
//!
//! Key modules:
//!
//! * [`os`] — [`os::Os`] and [`os::OsBuilder`]: assemble and drive the OS.
//! * [`apps`] — `wget`, `dd`, printer daemon, MP3 player, CD burner, UDP
//!   ping: the workloads of the paper's evaluation and examples.
//! * [`client`] — the two protocol engines under the apps (char-stream
//!   writer, file reader) and the retry they share: §6.3 from the
//!   client's side, written once.
//! * [`campaign`] — the §7 campaign families (§7.2 fault injection, chaos,
//!   checkpointing, fail-silent, microreboot, SLO, hot standby) on one
//!   shared kit.
//! * [`experiments`] — Fig. 3 / Fig. 7 / Fig. 8 experiment drivers.

pub mod apps;
pub mod audit;
pub mod campaign;
pub mod client;
pub mod experiments;
pub mod loadgen;
pub mod os;

pub use audit::{run_authority_workload, AuthoritySnapshot};
pub use campaign::{
    metrics_digest, run_campaign, run_chaos_campaign, run_ckpt_campaign, run_slo_campaign,
    CampaignConfig, CampaignResult, ChaosCampaignConfig, ChaosCampaignResult, ChaosKillRecord,
    CkptCampaignConfig, CkptCampaignResult, SloCampaignConfig, SloCampaignResult, SloPhaseRow,
};
pub use os::{names, NicKind, Os, OsBuilder, OverGrant};

// Re-export the substrate crates so downstream users need only `phoenix`.
pub use phoenix_ckpt as ckpt;
pub use phoenix_drivers as drivers;
pub use phoenix_fault as fault;
pub use phoenix_hw as hw;
pub use phoenix_kernel as kernel;
pub use phoenix_servers as servers;
pub use phoenix_simcore as simcore;
