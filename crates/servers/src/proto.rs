//! Wire protocols spoken among the system servers.
//!
//! Complements `phoenix_drivers::proto` (driver-facing protocols) with the
//! process manager, data store, reincarnation server, file system and
//! socket protocols — and, at the end of the file, the client side of the
//! last two: one constructor per request an application sends VFS or INET
//! and one classifier for what comes back, so the param layout, the
//! device order and the mount route are each written once.

use phoenix_drivers::proto::{cdev, status};
use phoenix_kernel::types::{Endpoint, IpcError, Message};

/// Process manager protocol (RS ↔ PM).
pub mod pm {
    use phoenix_kernel::types::Endpoint;

    phoenix_kernel::protocol! {
        /// RS registers itself as the receiver of child-exit reports.
        oneway REGISTER = 0x0500;
        /// Execute the program named in `data`, at `version` (0 = latest).
        request START = 0x0501 -> START_REPLY, Start { version: 0 }
        /// The status and the new process's endpoint.
        reply START_REPLY = 0x0502, StartReply {
            status: 0,
            endpoint: 1 as Endpoint,
        }
        /// Send `signal` (0 = SIGTERM, 1 = SIGKILL) to an endpoint.
        request KILL = 0x0503 -> KILL_REPLY, Kill {
            target: 0 as Endpoint,
            signal: 2,
        }
        /// The status of a KILL.
        reply KILL_REPLY = 0x0504, KillReply { status: 0 }
        /// Child exit report to RS (one-way): the endpoint, the `reason`
        /// kind (one of the values below) and its `detail` (exit code /
        /// exception / 1 if a user-originated signal); the process name in
        /// `data`.
        oneway SIGCHLD = 0x0505, Sigchld {
            endpoint: 0 as Endpoint,
            reason: 2,
            detail: 3,
        }
        /// SIGCHLD `reason`: the process exited with a code.
        value EXITED = 0;
        /// SIGCHLD `reason`: the process panicked.
        value PANICKED = 1;
        /// SIGCHLD `reason`: a CPU or MMU exception killed the process.
        value EXCEPTION = 2;
        /// SIGCHLD `reason`: a signal killed the process.
        value SIGNALED = 3;
    }
}

/// Data store protocol (§5.3): naming + publish-subscribe. Private state
/// backup is the checkpoint-store extension (`phoenix_ckpt::proto::ckpt`).
pub mod ds {
    use phoenix_kernel::types::Endpoint;
    use phoenix_simcore::trace::{RecoveryId, SpanId};

    phoenix_kernel::protocol! {
        /// Publish the key in `data` → endpoint. RS only. The recovery
        /// episode's correlation token (`RecoveryId`/`SpanId`) rides along
        /// so dependents can tag reintegration.
        request PUBLISH = 0x0600 -> ACK, Publish {
            endpoint: 0 as Endpoint,
            recovery: 2 as Option<RecoveryId>,
            span: 3 as Option<SpanId>,
        }
        /// Subscribe to keys matching a prefix pattern in `data` (a
        /// trailing `*` is a wildcard, e.g. `eth.*`). Reply: generic ACK.
        request SUBSCRIBE = 0x0604 -> ACK;
        /// Retrieve the next pending update after a notify.
        request CHECK = 0x0605 -> CHECK_REPLY;
        /// The status (OK, or NO_UPDATE when no update is pending), the
        /// published endpoint and the publish's episode token; the key in
        /// `data`.
        reply CHECK_REPLY = 0x0606, CheckReply {
            status: 0,
            endpoint: 1 as Endpoint,
            recovery: 3 as Option<RecoveryId>,
            span: 4 as Option<SpanId>,
        }
        /// Generic acknowledgement.
        reply ACK = 0x060A, Ack { status: 0 }
    }
}

/// Reincarnation server protocol (§5): the `service` utility and
/// complaint interface.
pub mod rs {
    use phoenix_kernel::types::Endpoint;

    phoenix_kernel::protocol! {
        /// Start a service; config is carried out-of-band in the RS service
        /// table (the machine builds it), `data` = service name.
        request UP = 0x0700 -> ACK;
        /// Restart a service by name (user-initiated, defect class 3/6).
        request RESTART = 0x0701 -> ACK;
        /// Dynamic update: replace with the latest program version
        /// (defect class 6), `data` = service name.
        request UPDATE = 0x0702 -> ACK;
        /// Stop a service, `data` = service name.
        request DOWN = 0x0703 -> ACK;
        /// Complaint from an authorized server about a malfunctioning
        /// component (defect class 5). `data` = accused service name;
        /// `kind` = evidence class (see [`super::evidence`]; 0 = legacy
        /// unclassified, treated as high confidence); `incarnation` is the
        /// accused incarnation as the accuser last saw it (`None` =
        /// unspecified). RS uses it to drop ghost complaints filed against
        /// an incarnation that has already been replaced.
        request COMPLAIN = 0x0704 -> ACK, Complain {
            kind: 0,
            incarnation: 1 as Option<Endpoint>,
        }
        /// Generic acknowledgement.
        reply ACK = 0x0705, Ack { status: 0 }
    }
}

/// Evidence classes carried by [`rs::COMPLAIN`] (§5.1 defect class 5).
///
/// RS arbitrates complaints by class: *high-confidence* evidence is a
/// protocol violation the accuser observed directly and cannot
/// misattribute (a reply of the wrong type, a hard deadline, a checksum
/// the driver itself echoed wrongly), so a single complaint triggers the
/// policy restart — exactly the seed behavior. *Low-confidence* evidence
/// is circumstantial (a plausible-but-suspect reply, garbled frames that
/// may as well be the wire's fault) and must accumulate to a quorum
/// before RS acts, so one corrupted message can never restart a healthy
/// driver.
pub mod evidence {
    phoenix_kernel::protocol! {
        /// The driver failed to answer within the server's deadline.
        value DEADLINE = 1;
        /// Reply of the wrong message type for the outstanding request.
        value BAD_REPLY = 2;
        /// Transfer length disagrees with the request (short/overlong).
        value SHORT_TRANSFER = 3;
        /// Content checksum mismatch: the driver's echoed checksum or a
        /// read-back scrub disagrees with the data it delivered. Low
        /// confidence: a single corrupted reply on a chaotic fabric can
        /// flip the echoed sum without the driver being at fault.
        value CRC_MISMATCH = 4;
        /// Kernel babble guard: the endpoint exceeded its unsolicited-send
        /// or reply-rate budget.
        value BABBLE = 5;
        /// Kernel progress watchdog: the endpoint sits on requests older
        /// than the stall threshold while its callers are still alive.
        value PROGRESS = 6;
        /// A reply that is well-formed but fails a soft sanity check
        /// (status/length/sum inconsistency). Low confidence.
        value SUSPECT_REPLY = 7;
        /// Repeated undecodable frames from a network driver. Low
        /// confidence: the wire itself corrupts frames too.
        value GARBLED_FRAMES = 8;
        /// Fleet evidence: a peer node's Reincarnation Server stopped
        /// advancing its audit beacon (RS dead or wedged) while the node
        /// itself still answers. Low confidence: beacons ride the lossy
        /// inter-node wire, so a quorum of accusers is required before the
        /// fleet reboots the recoverer.
        value RS_SILENT = 9;
        /// Fleet evidence: a peer node answered nothing at all for several
        /// watchdog periods (node crash or partition). Low confidence: an
        /// asymmetric partition makes a healthy node look dead to one
        /// observer, so conviction needs independent accusers.
        value NODE_UNREACHABLE = 10;
    }

    /// Whether a single complaint of this class suffices for a restart.
    /// Legacy unclassified complaints (kind 0) keep the seed's
    /// one-complaint-restarts behavior.
    pub fn high_confidence(kind: u32) -> bool {
        !matches!(
            kind,
            CRC_MISMATCH | SUSPECT_REPLY | GARBLED_FRAMES | RS_SILENT | NODE_UNREACHABLE
        )
    }

    /// One row per evidence class: its label (metrics / trace), RS's
    /// `rs.complaints.evidence.*` counter and the fleet's
    /// `fleet.convictions.*` counter, so no caller builds a name.
    macro_rules! evidence_names {
        ($($kind:pat => $name:literal,)*) => {
            /// Human-readable evidence-class name (metrics / trace labels).
            pub fn name(kind: u32) -> &'static str {
                match kind { $($kind => $name,)* }
            }
            /// RS's counter of complaints filed with this evidence.
            pub fn complaint_counter(kind: u32) -> &'static str {
                match kind { $($kind => concat!("rs.complaints.evidence.", $name),)* }
            }
            /// The fleet's counter of convictions on this evidence.
            pub fn conviction_counter(kind: u32) -> &'static str {
                match kind { $($kind => concat!("fleet.convictions.", $name),)* }
            }
        };
    }
    evidence_names! {
        DEADLINE => "deadline",
        BAD_REPLY => "bad-reply",
        SHORT_TRANSFER => "short-transfer",
        CRC_MISMATCH => "crc-mismatch",
        BABBLE => "babble",
        PROGRESS => "progress",
        SUSPECT_REPLY => "suspect-reply",
        GARBLED_FRAMES => "garbled-frames",
        RS_SILENT => "rs-silent",
        NODE_UNREACHABLE => "node-unreachable",
        _ => "unclassified",
    }
}

/// Builds the [`rs::COMPLAIN`] request accusing `accused` of `kind`.
pub fn complain(kind: u32, accused: &str, incarnation: Option<Endpoint>) -> Message {
    let kind = u64::from(kind);
    let complain = rs::Complain { kind, incarnation };
    complain
        .into_message()
        .with_data(accused.as_bytes().to_vec())
}

/// File system protocol (application ↔ VFS ↔ MFS). A request's `route` is
/// the mount its handle belongs to (see [`mount_of`]).
pub mod fs {
    phoenix_kernel::protocol! {
        /// Open by path (in `data`).
        request OPEN = 0x0800 -> OPEN_REPLY, Open { route: 7 }
        /// The status, the inode and the size in bytes.
        reply OPEN_REPLY = 0x0801, OpenReply {
            status: 0,
            ino: 1,
            size: 2,
        }
        /// Read `len` bytes at `offset` into `buf..buf + len` of the
        /// caller's address space. No file byte rides in a message: VFS
        /// forwards the request with `grant` set to its magic grant over
        /// that buffer, for the file server, which copies each chunk into
        /// it (a client leaves `grant` 0).
        request READ = 0x0802 -> DATA_REPLY, Read {
            ino: 0,
            offset: 1,
            len: 2,
            buf: 3,
            grant: 4,
            route: 7,
        }
        /// Write the `len` bytes at `buf` of the caller's address space at
        /// `offset`; `grant` as in READ.
        request WRITE = 0x0803 -> DATA_REPLY, Write {
            ino: 0,
            offset: 1,
            len: 2,
            buf: 3,
            grant: 4,
            route: 7,
        }
        /// The status and the byte count; a file server's reply carries no
        /// data (a read's bytes are in the client's buffer). VFS answers
        /// a request it cannot forward — whatever its kind — with an error
        /// DATA_REPLY of its own: `driver_died` is 1 when the failure was a
        /// dead driver (§6.3), and a refused logged `cdev::WRITE` echoes
        /// its log sequence in `ack_seq` (the slots of `cdev::REPLY`'s
        /// watermark).
        reply DATA_REPLY = 0x0804, DataReply {
            status: 0,
            count: 1,
            driver_died: 2,
            consumed: 3,
            ack_seq: 4,
        }
    }
}

/// Socket protocol (application ↔ INET).
pub mod sock {
    phoenix_kernel::protocol! {
        /// Open a reliable stream to the remote peer.
        request CONNECT = 0x0900 -> CONNECT_REPLY;
        /// The status and the connection id. INET never sets
        /// `driver_died`; the client's [`super::classify`] reads the slot
        /// of every reply kind it expects.
        reply CONNECT_REPLY = 0x0901, ConnectReply {
            status: 0,
            conn: 1,
            driver_died: 2,
        }
        /// Send the payload in `data` on a stream. Reply: ACK.
        request SEND = 0x0902 -> ACK, Send { conn: 0 }
        /// Stream payload pushed to the application (one-way), in `data`.
        oneway DATA = 0x0903, Data { conn: 0 }
        /// Stream closed by peer (one-way).
        oneway CLOSED = 0x0904, Closed { conn: 0 }
        /// Send unreliable datagram `seq` (payload in `data`). Reply: ACK.
        request DGRAM_SEND = 0x0905 -> ACK, DgramSend { seq: 1 }
        /// Datagram pushed to the application (one-way, payload in `data`).
        oneway DGRAM_DATA = 0x0906;
        /// Generic acknowledgement; `driver_died` as in CONNECT_REPLY.
        reply ACK = 0x0907, Ack {
            status: 0,
            driver_died: 2,
        }
        /// Close a stream and release its connection id for reuse.
        /// Idempotent; replayed closes are status 0. Reply: ACK.
        request CLOSE = 0x0908 -> ACK, Close { conn: 0 }
    }
}

/// The `route` of a handle on the FAT mount (the root mount is 0).
pub const FAT_ROUTE: u64 = 1;

/// The character devices VFS serves. The discriminant is the `dev` of the
/// device's requests and its row in [`DEV_TABLE`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dev {
    /// `/dev/lp`.
    Printer,
    /// `/dev/audio`.
    Audio,
    /// `/dev/cd`.
    Scsi,
    /// `/dev/kbd`.
    Kbd,
}

/// `(device, path, data-store key)`, in [`Dev`] order.
pub const DEV_TABLE: [(Dev, &str, &str); 4] = [
    (Dev::Printer, "/dev/lp", "chr.printer"),
    (Dev::Audio, "/dev/audio", "chr.audio"),
    (Dev::Scsi, "/dev/cd", "chr.scsi"),
    (Dev::Kbd, "/dev/kbd", "chr.kbd"),
];

impl Dev {
    /// [`fs::OPEN`] of the device node.
    pub fn open(self) -> Message {
        open(DEV_TABLE[self as usize].1)
    }

    /// [`cdev::WRITE`] of `data`.
    pub fn write(self, data: Vec<u8>) -> Message {
        self.logged_write(data, 0, 0)
    }

    /// [`cdev::WRITE`] of `data`, tagged with its write-ahead-log `seq`
    /// and the stream `offset` of its first byte (`seq` 0 = not logged).
    pub fn logged_write(self, data: Vec<u8>, seq: u64, offset: u64) -> Message {
        let dev = self as u64;
        cdev::Write { seq, offset, dev }
            .into_message()
            .with_data(data)
    }

    /// [`cdev::READ`] of up to `len` bytes.
    pub fn read(self, len: u64) -> Message {
        let dev = self as u64;
        cdev::Read { len, dev }.into_message()
    }

    /// [`cdev::BURN_START`] of a `chunks`-chunk disc.
    pub fn burn_start(self, chunks: u64) -> Message {
        let dev = self as u64;
        cdev::BurnStart { chunks, dev }.into_message()
    }

    /// [`cdev::BURN_CHUNK`] number `index`.
    pub fn burn_chunk(self, index: u64, data: Vec<u8>) -> Message {
        let dev = self as u64;
        cdev::BurnChunk { index, dev }
            .into_message()
            .with_data(data)
    }

    /// [`cdev::BURN_FINALIZE`].
    pub fn burn_finalize(self) -> Message {
        let dev = self as u64;
        cdev::BurnFinalize { dev }.into_message()
    }
}

/// The mount a path lives on: `(route id, name within that mount)`.
pub fn mount_of(path: &str) -> (u64, &str) {
    match path.strip_prefix("/fat/") {
        Some(name) => (FAT_ROUTE, name),
        None => (0, path),
    }
}

/// [`fs::OPEN`] of `path`.
pub fn open(path: &str) -> Message {
    Message::new(fs::OPEN).with_data(path.as_bytes().to_vec())
}

/// An open file as its client holds it. Data requests are built from the
/// handle, so they go to the file server that opened it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct File {
    /// Inode number on the owning file server.
    pub ino: u64,
    /// File size in bytes at open time.
    pub size: u64,
    route: u64,
}

impl File {
    /// The handle an OK [`fs::OPEN_REPLY`] to [`open`]`(path)` grants;
    /// `None` for a reply of any other kind.
    pub fn opened(path: &str, reply: &Message) -> Option<File> {
        let reply = fs::OpenReply::from_message(reply)?;
        Some(File {
            ino: reply.ino,
            size: reply.size,
            route: mount_of(path).0,
        })
    }

    /// [`fs::READ`] of `len` bytes at `offset` into the caller's buffer
    /// at `buf`.
    pub fn read(&self, offset: u64, len: u64, buf: u64) -> Message {
        let (ino, route) = (self.ino, self.route);
        fs::Read {
            ino,
            offset,
            len,
            buf,
            grant: 0,
            route,
        }
        .into_message()
    }

    /// [`fs::WRITE`] at `offset` of the `len` bytes of the caller's
    /// buffer at `buf`.
    pub fn write(&self, offset: u64, len: u64, buf: u64) -> Message {
        let (ino, route) = (self.ino, self.route);
        fs::Write {
            ino,
            offset,
            len,
            buf,
            grant: 0,
            route,
        }
        .into_message()
    }
}

/// [`sock::CONNECT`].
pub fn connect() -> Message {
    Message::new(sock::CONNECT)
}

/// [`sock::SEND`] of the one request the remote peer understands:
/// stream `size` bytes of the content `content_seed` generates.
pub fn get(conn: u64, size: u64, content_seed: u64) -> Message {
    let request = format!("GET {size} {content_seed}").into_bytes();
    sock::Send { conn }.into_message().with_data(request)
}

/// [`sock::CLOSE`] of `conn`.
pub fn close(conn: u64) -> Message {
    sock::Close { conn }.into_message()
}

/// [`sock::DGRAM_SEND`] of datagram `seq`.
pub fn dgram(seq: u64, payload: Vec<u8>) -> Message {
    sock::DgramSend { seq }.into_message().with_data(payload)
}

/// What the answer to a VFS or INET call means to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyClass {
    /// The expected reply kind with status OK.
    Ok,
    /// `EAGAIN`: nothing wrong, try again shortly (a full device FIFO).
    Busy,
    /// An error pushed up by VFS because the driver behind the request
    /// died (§6.3) — or was convicted by a protocol sentinel.
    DriverDied,
    /// The call itself was aborted: the server died holding it.
    Gone,
    /// Any other error status.
    Status(u64),
    /// A reply kind the request cannot produce.
    Garbled,
}

/// Classifies the outcome of a call whose success reply is `expected`.
/// VFS refuses a request it cannot forward with an error-status
/// [`fs::DATA_REPLY`] whatever the request was, so that kind is accepted
/// alongside the expected one. Slot 2 of either is the driver-died flag.
pub fn classify(expected: u32, result: &Result<Message, IpcError>) -> ReplyClass {
    let Ok(reply) = result else {
        return ReplyClass::Gone;
    };
    // analyze:allow(raw-mtype): the garble check of a reply against the
    // one kind its call expects, which the caller names as a number.
    let outcome = if reply.mtype == expected {
        status_and_slot_two(reply)
    } else {
        let refusal = fs::DataReply::from_message(reply).filter(|r| r.status != status::OK);
        refusal.map(|r| (r.status, r.driver_died))
    };
    match outcome {
        None => ReplyClass::Garbled,
        Some((status::OK, _)) => ReplyClass::Ok,
        Some((status::EAGAIN, _)) => ReplyClass::Busy,
        Some((_, 1)) => ReplyClass::DriverDied,
        Some((st, _)) => ReplyClass::Status(st),
    }
}

/// `(status, slot 2)` of the reply kinds a client call expects. Slot 2 is
/// the driver-died flag only in VFS's refusal. On an error status the
/// others carry 0 there: VFS zeroes a relayed [`cdev::REPLY`]'s checksum
/// echo, a failed open has no size and INET never sets it.
fn status_and_slot_two(reply: &Message) -> Option<(u64, u64)> {
    match (fs::Msg::decode(reply), sock::Msg::decode(reply)) {
        (Some(fs::Msg::OPEN_REPLY(r)), _) => Some((r.status, r.size)),
        (Some(fs::Msg::DATA_REPLY(r)), _) => Some((r.status, r.driver_died)),
        (_, Some(sock::Msg::CONNECT_REPLY(r))) => Some((r.status, r.driver_died)),
        (_, Some(sock::Msg::ACK(r))) => Some((r.status, r.driver_died)),
        _ => cdev::Reply::from_message(reply).map(|r| (r.status, r.csum_echo)),
    }
}

/// A character device's answer as its client reads it: the driver's
/// [`cdev::REPLY`] as VFS relays it, or VFS's own [`fs::DATA_REPLY`]
/// refusal, whose slots mean the same (a refused logged write echoes its
/// log sequence where the driver's acknowledgment would be).
pub fn dev_reply(reply: &Message) -> Option<cdev::Reply> {
    match (cdev::Msg::decode(reply), fs::Msg::decode(reply)) {
        (Some(cdev::Msg::REPLY(r)), _) => Some(r),
        (_, Some(fs::Msg::DATA_REPLY(r))) => Some(cdev::Reply {
            status: r.status,
            count: r.count,
            csum_echo: r.driver_died,
            consumed: r.consumed,
            ack_seq: r.ack_seq,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complaint_round_trips_through_the_wire_layout() {
        let ep = Endpoint::new(7, 3);
        let msg = complain(evidence::CRC_MISMATCH, "blk.sata", Some(ep));
        assert_eq!(msg.mtype, rs::COMPLAIN);
        let c = rs::Complain::from_message(&msg).expect("a complaint");
        assert_eq!(
            (c.kind, msg.data.as_slice(), c.incarnation),
            (
                u64::from(evidence::CRC_MISMATCH),
                b"blk.sata".as_slice(),
                Some(ep)
            )
        );
    }

    #[test]
    fn unspecified_incarnation_is_zero_zero_on_the_wire() {
        let msg = complain(evidence::DEADLINE, "eth.rtl8139", None);
        assert_eq!((msg.param(1), msg.param(2)), (0, 0));
        let c = rs::Complain::from_message(&msg).expect("a complaint");
        assert_eq!(c.incarnation, None);
        // Kind 0 is the legacy name-only complaint: unclassified.
        let msg = complain(0, "victim", None);
        assert_eq!(msg.params[..3], [0, 0, 0]);
        let c = rs::Complain::from_message(&msg).expect("a complaint");
        assert_eq!(evidence::name(c.kind as u32), "unclassified");
        // Any other kind is no complaint at all.
        assert_eq!(rs::Complain::from_message(&Message::new(rs::UP)), None);
    }

    #[test]
    fn evidence_counters_are_the_prefixed_class_name() {
        for kind in 0..=evidence::NODE_UNREACHABLE + 1 {
            let name = evidence::name(kind);
            assert_eq!(
                evidence::complaint_counter(kind),
                format!("rs.complaints.evidence.{name}")
            );
            assert_eq!(
                evidence::conviction_counter(kind),
                format!("fleet.convictions.{name}")
            );
        }
        assert_eq!(
            evidence::name(evidence::NODE_UNREACHABLE + 1),
            "unclassified"
        );
    }

    #[test]
    fn device_table_is_in_enum_order() {
        for (i, (dev, path, _)) in DEV_TABLE.iter().enumerate() {
            assert_eq!(*dev as usize, i);
            let write = cdev::Write::from_message(&dev.write(vec![1]));
            assert_eq!(write.map(|w| w.dev), Some(i as u64));
            assert_eq!(dev.open().data, path.as_bytes());
        }
    }

    #[test]
    fn a_handle_carries_the_route_of_the_path_that_opened_it() {
        let reply = Message::new(fs::OPEN_REPLY)
            .with_param(1, 9)
            .with_param(2, 4096);
        let fat = File::opened("/fat/big.bin", &reply).expect("an open reply");
        assert_eq!((fat.ino, fat.size), (9, 4096));
        let read = fs::Read::from_message(&fat.read(512, 64, 0));
        assert_eq!(read.map(|r| r.route), Some(FAT_ROUTE));
        let write = fs::Write::from_message(&fat.write(0, 512, 0));
        assert_eq!(write.map(|w| w.route), Some(FAT_ROUTE));
        let root = File::opened("bigfile", &reply).expect("an open reply");
        let read = fs::Read::from_message(&root.read(0, 1, 0));
        assert_eq!(read.map(|r| r.route), Some(0));
        assert_eq!(mount_of("/fat/a/b"), (FAT_ROUTE, "a/b"));
        assert_eq!(File::opened("bigfile", &Message::new(fs::DATA_REPLY)), None);
    }

    #[test]
    fn replies_classify_by_kind_then_status() {
        let reply = |kind: u32, st: u64, died: u64| {
            Ok(Message::new(kind).with_param(0, st).with_param(2, died))
        };
        let class = |r| classify(cdev::REPLY, &r);
        assert_eq!(class(reply(cdev::REPLY, status::OK, 0)), ReplyClass::Ok);
        assert_eq!(
            class(reply(cdev::REPLY, status::EAGAIN, 0)),
            ReplyClass::Busy
        );
        assert_eq!(
            class(reply(cdev::REPLY, status::EIO, 0)),
            ReplyClass::Status(status::EIO)
        );
        // VFS's own refusal, with and without the driver-died flag.
        assert_eq!(
            class(reply(fs::DATA_REPLY, status::EIO, 1)),
            ReplyClass::DriverDied
        );
        assert_eq!(
            class(reply(fs::DATA_REPLY, status::ENODEV, 0)),
            ReplyClass::Status(status::ENODEV)
        );
        assert_eq!(
            class(reply(fs::DATA_REPLY, status::OK, 0)),
            ReplyClass::Garbled
        );
        assert_eq!(class(reply(sock::ACK, status::OK, 0)), ReplyClass::Garbled);
        assert_eq!(class(Err(IpcError::DeadDestination)), ReplyClass::Gone);
    }
}
