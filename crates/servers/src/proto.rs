//! Wire protocols spoken among the system servers.
//!
//! Complements `phoenix_drivers::proto` (driver-facing protocols) with the
//! process manager, data store, reincarnation server, file system and
//! socket protocols — and, at the end of the file, the client side of the
//! last two: one constructor per request an application sends VFS or INET
//! and one classifier for what comes back, so the param layout, the
//! device order and the mount route are each written once.

use std::borrow::Cow;

use phoenix_drivers::proto::{cdev, status};
use phoenix_kernel::types::{Endpoint, IpcError, Message};

/// Packs an endpoint into two message params.
pub fn pack_endpoint(ep: Endpoint) -> (u64, u64) {
    (u64::from(ep.slot()), u64::from(ep.generation()))
}

/// Unpacks an endpoint from two message params.
pub fn unpack_endpoint(slot: u64, generation: u64) -> Endpoint {
    Endpoint::new(slot as u16, generation as u32)
}

/// Process manager protocol (RS ↔ PM).
pub mod pm {
    /// RS registers itself as the receiver of child-exit reports.
    /// proto: oneway
    pub const REGISTER: u32 = 0x0500;
    /// Execute a program: name in `data`, optional version in `params[0]`
    /// (0 = latest). Reply: START_REPLY.
    /// proto: request, reply=START_REPLY, params 0=version
    pub const START: u32 = 0x0501;
    /// Reply: `params[0]` = status, `params[1..3]` = endpoint.
    /// proto: reply, params 0=status, params 1/2=endpoint
    pub const START_REPLY: u32 = 0x0502;
    /// Send a signal: `params[0..2]` = endpoint, `params[2]` = signal
    /// (0 = SIGTERM, 1 = SIGKILL). Reply: KILL_REPLY.
    /// proto: request, reply=KILL_REPLY, params 0/1=endpoint, params 2=signal
    pub const KILL: u32 = 0x0503;
    /// Reply: `params[0]` = status.
    /// proto: reply, params 0=status
    pub const KILL_REPLY: u32 = 0x0504;
    /// Child exit report to RS (one-way): `params[0..2]` = endpoint,
    /// `params[2]` = reason kind (0 exit, 1 panic, 2 exception,
    /// 3 signal), `params[3]` = detail (exit code / exception /
    /// 1 if user-originated signal), process name in `data`.
    /// proto: oneway, params 0/1=endpoint, params 2=reason, params 3=detail
    pub const SIGCHLD: u32 = 0x0505;
}

/// Data store protocol (§5.3): naming + publish-subscribe + private state
/// backup.
pub mod ds {
    /// Publish `key` (in `data`) → endpoint (`params[0..2]`). RS only.
    /// The recovery-episode correlation token (`RecoveryId`/`SpanId`)
    /// rides in spare params 2/3 so dependents can tag reintegration.
    /// proto: request, reply=ACK, params 0/1=endpoint, params 2/3=recovery-token
    pub const PUBLISH: u32 = 0x0600;
    /// Remove a published key (in `data`).
    /// proto: request, reply=ACK
    pub const RETRACT: u32 = 0x0601;
    /// Look up a key (in `data`). Reply: LOOKUP_REPLY.
    /// proto: request, reply=LOOKUP_REPLY
    pub const LOOKUP: u32 = 0x0602;
    /// Reply: `params[0]` = status, `params[1..3]` = endpoint.
    /// proto: reply, params 0=status, params 1/2=endpoint
    pub const LOOKUP_REPLY: u32 = 0x0603;
    /// Subscribe to keys matching a prefix pattern in `data` (a trailing
    /// `*` is a wildcard, e.g. `eth.*`). Reply: generic ACK.
    /// proto: request, reply=ACK
    pub const SUBSCRIBE: u32 = 0x0604;
    /// Retrieve the next pending update after a notify. Reply:
    /// CHECK_REPLY.
    /// proto: request, reply=CHECK_REPLY
    pub const CHECK: u32 = 0x0605;
    /// Reply: `params[0]` = status (OK, or EAGAIN when no update is
    /// pending), `params[1..3]` = endpoint, key in `data`; the episode
    /// correlation token of the publish rides in params 3/4.
    /// proto: reply, params 0=status, params 1/2=endpoint, params 3/4=recovery-token
    pub const CHECK_REPLY: u32 = 0x0606;
    /// Store a private record: `params[0]` = key length; `data` = key
    /// bytes followed by value bytes. Owner = the publisher name bound to
    /// the caller's endpoint.
    /// proto: request, reply=ACK, params 0=key-len
    pub const STORE: u32 = 0x0607;
    /// Retrieve a private record (key in `data`). Reply: RETRIEVE_REPLY.
    /// proto: request, reply=RETRIEVE_REPLY
    pub const RETRIEVE: u32 = 0x0608;
    /// Reply: `params[0]` = status, value in `data`.
    /// proto: reply, params 0=status
    pub const RETRIEVE_REPLY: u32 = 0x0609;
    /// Generic acknowledgement: `params[0]` = status.
    /// proto: reply, params 0=status
    pub const ACK: u32 = 0x060A;
}

/// Reincarnation server protocol (§5): the `service` utility and
/// complaint interface.
pub mod rs {
    /// Start a service; config is carried out-of-band in the RS service
    /// table (the machine builds it), `data` = service name.
    /// proto: request, reply=ACK
    pub const UP: u32 = 0x0700;
    /// Restart a service by name (user-initiated, defect class 3/6).
    /// proto: request, reply=ACK
    pub const RESTART: u32 = 0x0701;
    /// Dynamic update: replace with the latest program version
    /// (defect class 6), `data` = service name.
    /// proto: request, reply=ACK
    pub const UPDATE: u32 = 0x0702;
    /// Stop a service, `data` = service name.
    /// proto: request, reply=ACK
    pub const DOWN: u32 = 0x0703;
    /// Complaint from an authorized server about a malfunctioning
    /// component (defect class 5). `data` = accused service name,
    /// `params[0]` = evidence kind (see [`super::evidence`]; 0 = legacy
    /// unclassified, treated as high confidence), `params[1..3]` = the
    /// accused *incarnation*'s endpoint as the accuser last saw it
    /// ((0, 0) = unspecified). RS uses the endpoint to drop ghost
    /// complaints filed against an incarnation that has already been
    /// replaced.
    /// proto: request, reply=ACK, params 0=evidence-kind, params 1/2=endpoint
    pub const COMPLAIN: u32 = 0x0704;
    /// Generic acknowledgement: `params[0]` = status.
    /// proto: reply, params 0=status
    pub const ACK: u32 = 0x0705;
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
///
/// proto: values
pub mod evidence {
    /// The driver failed to answer within the server's deadline.
    pub const DEADLINE: u32 = 1;
    /// Reply of the wrong message type for the outstanding request.
    pub const BAD_REPLY: u32 = 2;
    /// Transfer length disagrees with the request (short/overlong).
    pub const SHORT_TRANSFER: u32 = 3;
    /// Content checksum mismatch: the driver's echoed checksum or a
    /// read-back scrub disagrees with the data it delivered. Low
    /// confidence: a single corrupted reply on a chaotic fabric can
    /// flip the echoed sum without the driver being at fault.
    pub const CRC_MISMATCH: u32 = 4;
    /// Kernel babble guard: the endpoint exceeded its unsolicited-send
    /// or reply-rate budget.
    pub const BABBLE: u32 = 5;
    /// Kernel progress watchdog: the endpoint sits on requests older
    /// than the stall threshold while its callers are still alive.
    pub const PROGRESS: u32 = 6;
    /// A reply that is well-formed but fails a soft sanity check
    /// (status/length/sum inconsistency). Low confidence.
    pub const SUSPECT_REPLY: u32 = 7;
    /// Repeated undecodable frames from a network driver. Low
    /// confidence: the wire itself corrupts frames too.
    pub const GARBLED_FRAMES: u32 = 8;
    /// Fleet evidence: a peer node's Reincarnation Server stopped
    /// advancing its audit beacon (RS dead or wedged) while the node
    /// itself still answers. Low confidence: beacons ride the lossy
    /// inter-node wire, so a quorum of accusers is required before the
    /// fleet reboots the recoverer.
    pub const RS_SILENT: u32 = 9;
    /// Fleet evidence: a peer node answered nothing at all for several
    /// watchdog periods (node crash or partition). Low confidence: an
    /// asymmetric partition makes a healthy node look dead to one
    /// observer, so conviction needs independent accusers.
    pub const NODE_UNREACHABLE: u32 = 10;

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

/// One [`rs::COMPLAIN`], decoded — the only code that knows the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Complaint<'a> {
    /// Evidence class (see [`evidence`]; 0 = legacy unclassified).
    pub kind: u32,
    /// Stable service name of the accused.
    pub accused: Cow<'a, str>,
    /// The accused incarnation as the accuser last saw it, `None` when
    /// unspecified (`(0, 0)` on the wire).
    pub incarnation: Option<Endpoint>,
}

/// Builds the [`rs::COMPLAIN`] request accusing `accused` of `kind`.
pub fn complain(kind: u32, accused: &str, incarnation: Option<Endpoint>) -> Message {
    let (slot, generation) = incarnation.map_or((0, 0), pack_endpoint);
    Message::new(rs::COMPLAIN)
        .with_param(0, u64::from(kind))
        .with_param(1, slot)
        .with_param(2, generation)
        .with_data(accused.as_bytes().to_vec())
}

impl Complaint<'_> {
    /// Reads a complaint back out of an [`rs::COMPLAIN`] request.
    pub fn decode(msg: &Message) -> Complaint<'_> {
        Complaint {
            kind: msg.param(0) as u32,
            accused: String::from_utf8_lossy(&msg.data),
            incarnation: match (msg.param(1), msg.param(2)) {
                (0, 0) => None,
                (slot, generation) => Some(unpack_endpoint(slot, generation)),
            },
        }
    }
}

/// File system protocol (application ↔ VFS ↔ MFS).
pub mod fs {
    /// Open by path (in `data`). Reply: OPEN_REPLY. `params[7]` routes
    /// the handle to the owning file server (see `mount_of`).
    /// proto: request, reply=OPEN_REPLY, params 7=fs-route
    pub const OPEN: u32 = 0x0800;
    /// Reply: `params[0]` = status, `params[1]` = inode, `params[2]` =
    /// size in bytes.
    /// proto: reply, params 0=status, params 1=inode, params 2=size
    pub const OPEN_REPLY: u32 = 0x0801;
    /// Read: `params[0]` = inode, `params[1]` = offset, `params[2]` = len.
    /// Reply: DATA_REPLY.
    /// proto: request, reply=DATA_REPLY, params 0=inode, params 1=offset
    /// proto: params 2=len, params 7=fs-route
    pub const READ: u32 = 0x0802;
    /// Write: `params[0]` = inode, `params[1]` = offset; payload in
    /// `data`. Reply: DATA_REPLY (bytes written in `params[1]`).
    /// proto: request, reply=DATA_REPLY, params 0=inode, params 1=offset
    /// proto: params 7=fs-route
    pub const WRITE: u32 = 0x0803;
    /// Reply: `params[0]` = status, `params[1]` = byte count, read data in
    /// `data`.
    /// proto: reply, params 0=status, params 1=result-count
    pub const DATA_REPLY: u32 = 0x0804;
}

/// Socket protocol (application ↔ INET).
pub mod sock {
    /// Open a reliable stream to the remote peer. Reply: CONNECT_REPLY.
    /// proto: request, reply=CONNECT_REPLY
    pub const CONNECT: u32 = 0x0900;
    /// Reply: `params[0]` = status, `params[1]` = connection id.
    /// proto: reply, params 0=status, params 1=conn-id
    pub const CONNECT_REPLY: u32 = 0x0901;
    /// Send on a stream: `params[0]` = conn id, payload in `data`.
    /// Reply: ACK with status.
    /// proto: request, reply=ACK, params 0=conn-id
    pub const SEND: u32 = 0x0902;
    /// Stream payload pushed to the application (one-way): `params[0]` =
    /// conn id, payload in `data`.
    /// proto: oneway, params 0=conn-id
    pub const DATA: u32 = 0x0903;
    /// Stream closed by peer (one-way): `params[0]` = conn id.
    /// proto: oneway, params 0=conn-id
    pub const CLOSED: u32 = 0x0904;
    /// Send an unreliable datagram (payload in `data`). Reply: ACK.
    /// proto: request, reply=ACK
    pub const DGRAM_SEND: u32 = 0x0905;
    /// Datagram pushed to the application (one-way, payload in `data`).
    /// proto: oneway
    pub const DGRAM_DATA: u32 = 0x0906;
    /// Generic acknowledgement: `params[0]` = status.
    /// proto: reply, params 0=status
    pub const ACK: u32 = 0x0907;
    /// Close a stream and release its connection id for reuse:
    /// `params[0]` = conn id. Idempotent; replayed closes are status 0.
    /// Reply: ACK with status.
    /// proto: request, reply=ACK, params 0=conn-id
    pub const CLOSE: u32 = 0x0908;
}

/// Request param routing a handle through VFS: the mount id of an `fs`
/// handle ([`mount_of`]), the [`Dev`] index of a `cdev` request.
pub const ROUTE_PARAM: usize = 7;

/// [`ROUTE_PARAM`] of a handle on the FAT mount (the root mount is 0).
pub const FAT_ROUTE: u64 = 1;

/// VFS reply param: 1 when the failure was a dead driver (aborted
/// rendezvous) rather than an ordinary I/O error (§6.3).
pub const DRIVER_DIED_PARAM: usize = 2;

/// The character devices VFS serves. The discriminant is the device's
/// [`ROUTE_PARAM`] and its row in [`DEV_TABLE`].
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
    fn routed(self, request: Message) -> Message {
        request.with_param(ROUTE_PARAM, self as u64)
    }

    /// [`fs::OPEN`] of the device node.
    pub fn open(self) -> Message {
        open(DEV_TABLE[self as usize].1)
    }

    /// [`cdev::WRITE`] of `data`.
    pub fn write(self, data: Vec<u8>) -> Message {
        self.routed(Message::new(cdev::WRITE)).with_data(data)
    }

    /// [`cdev::READ`] of up to `len` bytes.
    pub fn read(self, len: u64) -> Message {
        self.routed(Message::new(cdev::READ)).with_param(0, len)
    }

    /// [`cdev::BURN_START`] of a `chunks`-chunk disc.
    pub fn burn_start(self, chunks: u64) -> Message {
        self.routed(Message::new(cdev::BURN_START))
            .with_param(0, chunks)
    }

    /// [`cdev::BURN_CHUNK`] number `seq`.
    pub fn burn_chunk(self, seq: u64, data: Vec<u8>) -> Message {
        self.routed(Message::new(cdev::BURN_CHUNK))
            .with_param(0, seq)
            .with_data(data)
    }

    /// [`cdev::BURN_FINALIZE`].
    pub fn burn_finalize(self) -> Message {
        self.routed(Message::new(cdev::BURN_FINALIZE))
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
    /// The handle an OK [`fs::OPEN_REPLY`] to [`open`]`(path)` grants.
    pub fn opened(path: &str, reply: &Message) -> File {
        File {
            ino: reply.param(1),
            size: reply.param(2),
            route: mount_of(path).0,
        }
    }

    fn at(&self, request: Message, offset: u64) -> Message {
        request
            .with_param(0, self.ino)
            .with_param(1, offset)
            .with_param(ROUTE_PARAM, self.route)
    }

    /// [`fs::READ`] of `len` bytes at `offset`.
    pub fn read(&self, offset: u64, len: u64) -> Message {
        self.at(Message::new(fs::READ), offset).with_param(2, len)
    }

    /// [`fs::WRITE`] of `data` at `offset`.
    pub fn write(&self, offset: u64, data: Vec<u8>) -> Message {
        self.at(Message::new(fs::WRITE), offset).with_data(data)
    }
}

/// [`sock::CONNECT`].
pub fn connect() -> Message {
    Message::new(sock::CONNECT)
}

/// [`sock::SEND`] of the one request the remote peer understands:
/// stream `size` bytes of the content `content_seed` generates.
pub fn get(conn: u64, size: u64, content_seed: u64) -> Message {
    Message::new(sock::SEND)
        .with_param(0, conn)
        .with_data(format!("GET {size} {content_seed}").into_bytes())
}

/// [`sock::CLOSE`] of `conn`.
pub fn close(conn: u64) -> Message {
    Message::new(sock::CLOSE).with_param(0, conn)
}

/// [`sock::DGRAM_SEND`] of datagram `seq`.
pub fn dgram(seq: u64, payload: Vec<u8>) -> Message {
    Message::new(sock::DGRAM_SEND)
        .with_param(1, seq)
        .with_data(payload)
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
/// alongside the expected one.
pub fn classify(expected: u32, result: &Result<Message, IpcError>) -> ReplyClass {
    let Ok(reply) = result else {
        return ReplyClass::Gone;
    };
    let st = reply.param(0);
    if reply.mtype != expected && (reply.mtype != fs::DATA_REPLY || st == status::OK) {
        return ReplyClass::Garbled;
    }
    match st {
        status::OK => ReplyClass::Ok,
        status::EAGAIN => ReplyClass::Busy,
        _ if reply.param(DRIVER_DIED_PARAM) == 1 => ReplyClass::DriverDied,
        _ => ReplyClass::Status(st),
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
        let c = Complaint::decode(&msg);
        assert_eq!(
            (c.kind, &*c.accused, c.incarnation),
            (evidence::CRC_MISMATCH, "blk.sata", Some(ep))
        );
    }

    #[test]
    fn unspecified_incarnation_is_zero_zero_on_the_wire() {
        let msg = complain(evidence::DEADLINE, "eth.rtl8139", None);
        assert_eq!((msg.param(1), msg.param(2)), (0, 0));
        assert_eq!(Complaint::decode(&msg).incarnation, None);
        // Kind 0 is the legacy name-only complaint: unclassified.
        let c = complain(0, "victim", None);
        assert_eq!(c.params[..3], [0, 0, 0]);
        assert_eq!(evidence::name(Complaint::decode(&c).kind), "unclassified");
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
            assert_eq!(dev.write(vec![1]).param(ROUTE_PARAM), i as u64);
            assert_eq!(dev.open().data, path.as_bytes());
        }
    }

    #[test]
    fn a_handle_carries_the_route_of_the_path_that_opened_it() {
        let reply = Message::new(fs::OPEN_REPLY)
            .with_param(1, 9)
            .with_param(2, 4096);
        let fat = File::opened("/fat/big.bin", &reply);
        assert_eq!((fat.ino, fat.size), (9, 4096));
        assert_eq!(fat.read(512, 64).param(ROUTE_PARAM), FAT_ROUTE);
        assert_eq!(fat.write(0, vec![0]).param(ROUTE_PARAM), FAT_ROUTE);
        assert_eq!(
            File::opened("bigfile", &reply)
                .read(0, 1)
                .param(ROUTE_PARAM),
            0
        );
        assert_eq!(mount_of("/fat/a/b"), (FAT_ROUTE, "a/b"));
    }

    #[test]
    fn replies_classify_by_kind_then_status() {
        let reply = |kind: u32, st: u64, died: u64| {
            Ok(Message::new(kind)
                .with_param(0, st)
                .with_param(DRIVER_DIED_PARAM, died))
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
