//! phoenix-fleet: multi-node simulation with DIR-Net-style distributed
//! reincarnation.
//!
//! A single-machine phoenix `Os` already survives driver and server
//! failures — its local Reincarnation Server (RS) detects, restarts and
//! reintegrates them. This crate answers the next question the paper's
//! recovery model raises: *who recovers the recoverer?* A fleet runs N
//! independent `Os` instances, each seeded from its own forked RNG
//! stream, in one deterministic event loop:
//!
//! - [`wire`] — the inter-node network: a full mesh of directed links
//!   with fixed latency and per-link partition/loss chaos windows.
//! - [`proto`] — the gossip backbone kinds (heartbeat, typed complaint,
//!   conviction, rebuttal) and the peer-held node-snapshot wire format.
//! - [`agent`] — the per-node fleet agent: a DIR-Net-style two-level
//!   watchdog ring with federated evidence (ghost rejection, accuser
//!   inversion, quorum conviction, ring-successor arbitration).
//! - [`link`] — go-back-N snapshot transfer over the lossy wire, reusing
//!   the `netproto` segment format of the remote file peer.
//! - [`fleet`] — the event loop tying it together: node-level fault
//!   injection, crash-only node microreboot on conviction, and adoption
//!   of the peer-held checkpoint/DS snapshot into the reborn node.
//! - [`campaign`] — the fleet chaos campaign with per-phase node MTTRs
//!   (detect / repair / reintegrate) and a byte-stable fleet digest.
//!
//! Determinism contract: same fleet seed → byte-identical per-node and
//! fleet digests. All cross-node state is indexed by node id and
//! iterated in id order, every node, link and schedule stream is forked
//! off the fleet seed by domain, and nothing reads wall-clock time.

pub mod agent;
pub mod campaign;
pub mod fleet;
pub mod link;
pub mod proto;
pub mod wire;

pub use agent::{FleetAction, FleetAgent, LocalView};
pub use campaign::{
    run_fleet_campaign, run_fleet_control, FleetCampaignConfig, FleetCampaignResult, PhaseStat,
};
pub use fleet::{Fleet, FleetConfig};
pub use proto::{Frame, NodeSnapshot, NodeStat};
pub use wire::{Delivery, FleetWire, Payload};
