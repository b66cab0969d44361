//! System servers of the Phoenix failure-resilient OS.
//!
//! This crate contains the trusted server layer from Fig. 1 of the paper:
//!
//! * [`pm`] — the process manager: executes service binaries, delivers
//!   signals, and reports every child exit to RS (the `SIGCHLD` path of
//!   §5.1).
//! * [`ds`] — the data store (§5.3): stable names → current endpoints,
//!   prefix-pattern publish-subscribe, and authenticated private state
//!   backup for stateful components.
//! * [`rs`] — the reincarnation server (§5): defect detection over all six
//!   inputs and policy-driven recovery.
//! * [`policy`] — the parametrized policy-script language (§5.2, Fig. 2).
//! * [`vfs`] / [`mfs`] — the virtual file system, and the one file
//!   server engine with transparent block-driver recovery (§6.2).
//! * [`fsfmt`] / [`fsfat`] — the on-disk formats it serves, each with its
//!   `mkfs`: the native extent format and FAT16 (Fig. 5's two file
//!   servers are `FileServer<Minix>` and `FileServer<Fat16>`, each over
//!   its own disk + driver).
//! * [`inet`] / [`netproto`] / [`peer`] — the network server with
//!   transparent Ethernet-driver recovery (§6.1), the TCP-like transport,
//!   and the remote "Internet server" peer of Fig. 7.
//! * [`libserver`] — the shell VFS, MFS, FAT, INET and PM run inside: fault
//!   plane, externalised-state gate, data-store watch and complaint
//!   filing, written once (what `libdriver` is for drivers).

pub mod ds;
pub mod faultplane;
pub mod fsfat;
pub mod fsfmt;
pub mod inet;
pub mod libserver;
pub mod mfs;
pub mod netproto;
pub mod peer;
pub mod pm;
pub mod policy;
pub mod proto;
pub mod rs;
pub mod vfs;

pub use ds::{DataStore, SharedRecords};
pub use faultplane::{FaultPlane, ServerFault};
pub use inet::Inet;
pub use libserver::Server;
pub use mfs::FileServer;
pub use peer::FilePeer;
pub use pm::ProcessManager;
pub use policy::{PolicyDecision, PolicyInput, PolicyScript};
pub use rs::{ReincarnationServer, ServiceConfig};
pub use vfs::Vfs;
