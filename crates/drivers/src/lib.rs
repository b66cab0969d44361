//! User-mode device drivers for the Phoenix failure-resilient OS.
//!
//! Every driver is an isolated process built on the shared
//! [`libdriver::Driver`] loop, which contributes the generic protocol
//! handling — including the heartbeat and shutdown support that §7.3
//! reports cost "exactly 5 lines of code in the shared driver library"
//! (the heartbeat reply is marked `// analyze:recovery` in the source, so
//! the Fig. 9 counter finds it).
//!
//! Driver hot paths execute on the fault-injection VM (see
//! [`routines`]); the §7.2 campaign mutates the *running* driver's code
//! through [`libdriver::FaultPort`], and a restarted driver comes up with a
//! pristine copy, exactly like restarting from the on-disk binary.
//!
//! Drivers by recovery class (Fig. 3):
//!
//! | class | drivers | transparent recovery |
//! |---|---|---|
//! | network | [`net::Rtl8139Driver`], [`net::Dp8390Driver`] | yes, by the network server |
//! | block | [`block::DiskDriver`] (SATA/floppy), [`block::RamDiskDriver`] | yes, by the file server |
//! | character | [`chardrv::PrinterDriver`], [`chardrv::AudioDriver`], [`chardrv::ScsiCdDriver`] | maybe, by the application |

pub mod block;
pub mod chardrv;
pub mod libdriver;
pub mod net;
pub mod proto;
pub mod routines;

pub use block::{DiskDriver, RamDiskDriver};
pub use chardrv::{AudioDriver, KeyboardDriver, PrinterDriver, ScsiCdDriver};
pub use libdriver::{Driver, DriverLogic, FaultPort, GuardedRoutine};
pub use net::{Dp8390Driver, Rtl8139Driver};
