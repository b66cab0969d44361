//! Wire protocols spoken between drivers and the rest of the system.
//!
//! One `protocol!` table per protocol (rows: `phoenix_kernel::layout`):
//! the generic driver protocol (heartbeats, warm-spare control), the
//! block device protocol (FS ↔ disk drivers, grant-based data transfer),
//! the Ethernet protocol (INET ↔ network drivers), and the character
//! device protocol (VFS/applications ↔ printer, audio, SCSI and keyboard
//! drivers).

/// Status codes carried in a reply's `status` field.
pub mod status {
    /// Success.
    pub const OK: u64 = 0;
    /// Generic I/O error.
    pub const EIO: u64 = 5;
    /// Temporarily out of resources; retry later.
    pub const EAGAIN: u64 = 11;
    /// Permission denied (a complaint from a component that may not file
    /// one).
    pub const EACCES: u64 = 13;
    /// Invalid argument (bad LBA, bad length).
    pub const EINVAL: u64 = 22;
    /// Device not ready / no medium.
    pub const ENODEV: u64 = 19;
}

/// Generic driver protocol (every driver speaks this; supporting it is the
/// "exactly 5 lines of code in the shared driver library" of §7.3).
// analyze:recovery
pub mod drv {
    use phoenix_simcore::trace::{RecoveryId, SpanId};

    phoenix_kernel::protocol! {
        /// Heartbeat ping from the reincarnation server.
        request HB_PING = 0x0100 -> HB_PONG, HbPing { nonce: 0 }
        /// Heartbeat pong back to RS, echoing the ping's nonce.
        reply HB_PONG = 0x0101, HbPong { nonce: 0 }
        /// RS -> warm spare: start tailing the primary's checkpoint record,
        /// one poll per `period_us` microseconds.
        oneway STANDBY = 0x0102, Standby { period_us: 0 }
        /// RS -> warm spare: go live as the primary. The spare runs its
        /// deferred device init, re-publishes its fault-port code under the
        /// primary name, stops tailing, and adopts the tailed watermark.
        /// The recovery episode rides along so the first served request
        /// tags the timeline's replay phase.
        oneway PROMOTE = 0x0103, Promote {
            recovery: 0 as Option<RecoveryId>,
            span: 1 as Option<SpanId>,
        }
    }

    /// What makes a program or data-store name a warm spare's.
    const SPARE: &str = "standby.";

    /// The program and data-store name of `primary`'s warm spare, the
    /// incarnation [`STANDBY`] and [`PROMOTE`] address.
    pub fn spare_name(primary: &str) -> String {
        [SPARE, primary].concat()
    }

    /// The primary whose warm spare goes by `name`, `None` if `name` is
    /// no spare's.
    pub fn spare_of(name: &str) -> Option<&str> {
        name.strip_prefix(SPARE)
    }
}

/// Block device protocol (MINIX `BDEV`), §6.2.
///
/// Data moves through memory grants: the file server creates a grant over
/// its buffer cache page and passes the grant id; the driver `safecopy`s
/// into/out of it. Disk block I/O is idempotent, so a restarted driver can
/// simply be asked again.
pub mod bdev {
    phoenix_kernel::protocol! {
        /// Open a minor device. The reply's `count` is the capacity in
        /// sectors.
        request OPEN = 0x0200 -> REPLY, Open { minor: 0 }
        /// Read `count` sectors at `lba` into the grant (write access).
        request READ = 0x0201 -> REPLY, Read {
            lba: 0,
            count: 1,
            grant: 2,
        }
        /// Write sectors. Same layout; the grant must allow reading.
        request WRITE = 0x0202 -> REPLY, Write {
            lba: 0,
            count: 1,
            grant: 2,
        }
        /// Reply to any request: the status, the bytes transferred (the
        /// capacity for OPEN), and 1 + the checksum of the descriptor the
        /// driver validated, echoed for the file server's sentinel (0 = no
        /// echo).
        reply REPLY = 0x0203, Reply {
            status: 0,
            count: 1,
            csum_echo: 2,
        }
    }
}

/// Ethernet driver protocol (MINIX `DL`), §6.1.
pub mod eth {
    phoenix_kernel::protocol! {
        /// (Re)initialize: put the card in promiscuous mode, enable rx/tx.
        /// Sent by INET when it learns a driver's endpoint from the data
        /// store — both at first start and after every recovery.
        request INIT = 0x0300 -> INIT_REPLY;
        /// Reply to INIT.
        reply INIT_REPLY = 0x0301, InitReply { status: 0 }
        /// Transmit a frame; the frame travels in `data`.
        request WRITE = 0x0302 -> WRITE_REPLY;
        /// Reply to WRITE.
        reply WRITE_REPLY = 0x0303, WriteReply { status: 0 }
        /// Received frame pushed to the network server (one-way); frame in
        /// `data`.
        oneway RECV = 0x0304;
    }
}

/// Character device protocol, §6.3. A request's `dev` is the device index
/// VFS routes it by.
pub mod cdev {
    phoenix_kernel::protocol! {
        /// Open.
        request OPEN = 0x0400 -> REPLY;
        /// Write the byte stream in `data`. The reply's `count` is the bytes
        /// accepted (may be short — stream devices apply backpressure). A
        /// checkpointed caller tags the write with its write-ahead-log
        /// `seq` (0 = not logged: the paper's error-push semantics) and the
        /// absolute stream `offset` of the first payload byte.
        request WRITE = 0x0401 -> REPLY, Write {
            seq: 5,
            offset: 6,
            dev: 7,
        }
        /// Reply to any cdev request: the status, the bytes accepted, and
        /// 1 + the payload checksum (the sentinel echo, 0 = none). A
        /// checkpointed driver answers a logged write with its cumulative
        /// consumed watermark — bytes committed to hardware, acknowledged
        /// apart from IPC completion — and the echo of the write's `seq`.
        reply REPLY = 0x0402, Reply {
            status: 0,
            count: 1,
            csum_echo: 2,
            consumed: 3,
            ack_seq: 4,
        }
        /// Read up to `len` bytes from an input stream device. Reply:
        /// status + data (possibly empty when no input is pending).
        request READ = 0x0405 -> REPLY, Read { len: 0, dev: 7 }
        /// SCSI burner: begin a burn of `chunks` chunks.
        request BURN_START = 0x0410 -> REPLY, BurnStart { chunks: 0, dev: 7 }
        /// SCSI burner: write chunk `index`; payload in `data`.
        request BURN_CHUNK = 0x0411 -> REPLY, BurnChunk { index: 0, dev: 7 }
        /// SCSI burner: finalize the disc.
        request BURN_FINALIZE = 0x0412 -> REPLY, BurnFinalize { dev: 7 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_tagging_round_trips() {
        let tagged = cdev::Write {
            seq: 7,
            offset: 4096,
            dev: 0,
        };
        let m = tagged.into_message();
        assert_eq!(cdev::Write::from_message(&m), Some(tagged));
        let untagged = cdev::Write::from_message(&phoenix_kernel::types::Message::new(cdev::WRITE));
        assert_eq!(untagged.map(|w| w.seq), Some(0), "seq 0 = opt-out");
        assert_eq!(
            cdev::Write::from_message(&cdev::Reply::default().into_message()),
            None
        );
    }

    #[test]
    fn reply_ack_round_trips() {
        let acked = cdev::Reply {
            consumed: 8192,
            ack_seq: 9,
            ..Default::default()
        };
        let m = acked.into_message();
        assert_eq!(cdev::Reply::from_message(&m), Some(acked));
        assert_eq!(m.params[3..5], [8192, 9]);
    }
}
