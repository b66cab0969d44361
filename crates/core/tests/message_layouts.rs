//! The bytes of every message another crate or a test builds or reads
//! through the servers' and the checkpoint protocol's helpers, as
//! literals: `(mtype, params, data)` for each builder, and the values each
//! decoder reads out of a literal message. A change to how a message is
//! built may rewrite the calls below; it may not change a literal.

use phoenix_ckpt::proto::ckpt;
use phoenix_drivers::proto::{cdev, drv};
use phoenix_kernel::types::{Endpoint, IpcError, Message};
use phoenix_servers::proto::{
    classify, close, complain, dev_reply, dgram, ds, fs, get, open, pm, rs, Dev, File, ReplyClass,
};
use phoenix_simcore::trace::{RecoveryId, SpanId};

/// A message's wire content.
fn shape(m: &Message) -> (u32, [u64; 8], Vec<u8>) {
    (m.mtype, m.params, m.data.clone())
}

/// A message from its wire content.
fn msg(mtype: u32, params: [u64; 8], data: &[u8]) -> Message {
    Message {
        source: Endpoint::default(),
        mtype,
        params,
        data: data.to_vec(),
    }
}

#[test]
fn a_complaint_is_kind_then_the_accused_incarnation() {
    let m = complain(4, "blk.sata", Some(Endpoint::new(7, 3)));
    assert_eq!(
        shape(&m),
        (0x0704, [4, 7, 3, 0, 0, 0, 0, 0], b"blk.sata".to_vec())
    );
    let m = complain(1, "eth.rtl8139", None);
    assert_eq!(
        shape(&m),
        (0x0704, [1, 0, 0, 0, 0, 0, 0, 0], b"eth.rtl8139".to_vec())
    );

    let decoded = |m: Message| {
        let c = rs::Complain::from_message(&m).expect("a complaint");
        (
            c.kind,
            String::from_utf8_lossy(&m.data).to_string(),
            c.incarnation,
        )
    };
    assert_eq!(
        decoded(msg(0x0704, [6, 9, 2, 5, 5, 5, 5, 5], b"vfs")),
        (6, "vfs".to_string(), Some(Endpoint::new(9, 2)))
    );
    assert_eq!(
        decoded(msg(0x0704, [8, 0, 0, 0, 0, 0, 0, 0], b"x")),
        (8, "x".to_string(), None)
    );
    let m = complain(2, "x", Some(Endpoint::new(u16::MAX, u32::MAX)));
    assert_eq!(
        shape(&m),
        (
            0x0704,
            [2, 0xFFFF, 0xFFFF_FFFF, 0, 0, 0, 0, 0],
            b"x".to_vec()
        )
    );
    // An endpoint's halves are truncated to a slot and a generation; only
    // (0, 0) on the wire is unspecified.
    assert_eq!(
        decoded(msg(0x0704, [3, 0x1_0000, 0, 0, 0, 0, 0, 0], b"x")),
        (3, "x".to_string(), Some(Endpoint::new(0, 0)))
    );
    assert_eq!(
        decoded(msg(
            0x0704,
            [3, 0x1_0005, 0x1_0000_0009, 0, 0, 0, 0, 0],
            b"x"
        )),
        (3, "x".to_string(), Some(Endpoint::new(5, 9)))
    );
}

#[test]
fn pm_names_an_endpoint_by_its_slot_then_its_generation() {
    let started = pm::StartReply {
        status: 0,
        endpoint: Endpoint::new(u16::MAX, u32::MAX),
    };
    assert_eq!(
        shape(&started.into_message()),
        (0x0502, [0, 0xFFFF, 0xFFFF_FFFF, 0, 0, 0, 0, 0], Vec::new())
    );
    let start_reply = |params| {
        let r = pm::StartReply::from_message(&msg(0x0502, params, b"")).expect("a start reply");
        (r.status, r.endpoint)
    };
    assert_eq!(
        start_reply([0, 5, 9, 0, 0, 0, 0, 0]),
        (0, Endpoint::new(5, 9))
    );
    assert_eq!(
        start_reply([0, 0x1_0005, 0x1_0000_0009, 1, 1, 1, 1, 1]),
        (0, Endpoint::new(5, 9))
    );
    assert_eq!(
        start_reply([2, 0, 0, 0, 0, 0, 0, 0]),
        (2, Endpoint::new(0, 0))
    );

    let kill = pm::Kill {
        target: Endpoint::new(7, 3),
        signal: 1,
    };
    assert_eq!(
        shape(&kill.into_message()),
        (0x0503, [7, 3, 1, 0, 0, 0, 0, 0], Vec::new())
    );
    let kill = |params| {
        let k = pm::Kill::from_message(&msg(0x0503, params, b"")).expect("a kill");
        (k.target, k.signal)
    };
    assert_eq!(
        kill([0xFFFF, 0xFFFF_FFFF, 0, 0, 0, 0, 0, 0]),
        (Endpoint::new(u16::MAX, u32::MAX), 0)
    );
    assert_eq!(
        kill([0x1_0002, 0x1_0000_0001, 1, 0, 0, 0, 0, 0]),
        (Endpoint::new(2, 1), 1)
    );

    let exit = pm::Sigchld {
        endpoint: Endpoint::new(12, 4),
        reason: 2,
        detail: 11,
    };
    assert_eq!(
        shape(&exit.into_message()),
        (0x0505, [12, 4, 2, 11, 0, 0, 0, 0], Vec::new())
    );
    let sigchld = |params| {
        let s = pm::Sigchld::from_message(&msg(0x0505, params, b"eth")).expect("a sigchld");
        (s.endpoint, s.reason, s.detail)
    };
    assert_eq!(
        sigchld([0xFFFF, 0xFFFF_FFFF, 3, 1, 0, 0, 0, 0]),
        (Endpoint::new(u16::MAX, u32::MAX), 3, 1)
    );
}

#[test]
fn ds_carries_the_endpoint_then_the_episode_token() {
    let publish = ds::Publish {
        endpoint: Endpoint::new(3, 2),
        recovery: RecoveryId::from_wire(4),
        span: None,
    };
    assert_eq!(
        shape(&publish.into_message()),
        (0x0600, [3, 2, 4, 0, 0, 0, 0, 0], Vec::new())
    );
    let publish = |params| {
        let p = ds::Publish::from_message(&msg(0x0600, params, b"eth")).expect("a publish");
        (p.endpoint, p.recovery, p.span)
    };
    assert_eq!(
        publish([0xFFFF, 0xFFFF_FFFF, 0, 0, 0, 0, 0, 0]),
        (Endpoint::new(u16::MAX, u32::MAX), None, None)
    );
    assert_eq!(
        publish([3, 2, 4, 5, 9, 9, 9, 9]),
        (
            Endpoint::new(3, 2),
            RecoveryId::from_wire(4),
            SpanId::from_wire(5)
        )
    );

    let update = ds::CheckReply {
        status: 0,
        endpoint: Endpoint::new(9, 1),
        recovery: RecoveryId::from_wire(6),
        span: SpanId::from_wire(7),
    };
    assert_eq!(
        shape(&update.into_message()),
        (0x0606, [0, 9, 1, 6, 7, 0, 0, 0], Vec::new())
    );
    let drained = ds::CheckReply {
        status: 11,
        ..Default::default()
    };
    assert_eq!(
        shape(&drained.into_message()),
        (0x0606, [11, 0, 0, 0, 0, 0, 0, 0], Vec::new())
    );
    let check_reply = |params| {
        let u = ds::CheckReply::from_message(&msg(0x0606, params, b"eth")).expect("a reply");
        (u.status, u.endpoint, u.recovery, u.span)
    };
    assert_eq!(
        check_reply([0, 0xFFFF, 0xFFFF_FFFF, 0, 0, 0, 0, 0]),
        (0, Endpoint::new(u16::MAX, u32::MAX), None, None)
    );
    assert_eq!(
        check_reply([0, 9, 1, 6, 7, 0, 0, 0]),
        (
            0,
            Endpoint::new(9, 1),
            RecoveryId::from_wire(6),
            SpanId::from_wire(7)
        )
    );
}

#[test]
fn an_episode_token_is_zero_for_none() {
    for (recovery, span, params) in [
        (None, None, [0, 0, 0, 0, 0, 0, 0, 0]),
        (
            RecoveryId::from_wire(3),
            SpanId::from_wire(8),
            [3, 8, 0, 0, 0, 0, 0, 0],
        ),
    ] {
        let promote = drv::Promote { recovery, span };
        assert_eq!(shape(&promote.into_message()), (0x0103, params, Vec::new()));
    }
    let promote = |params| {
        let p = drv::Promote::from_message(&msg(0x0103, params, b"")).expect("a promote");
        (p.recovery, p.span)
    };
    assert_eq!(promote([0, 0, 0, 0, 0, 0, 0, 0]), (None, None));
    assert_eq!(
        promote([3, 8, 1, 1, 1, 1, 1, 1]),
        (RecoveryId::from_wire(3), SpanId::from_wire(8))
    );
    assert_eq!(
        promote([0, 8, 0, 0, 0, 0, 0, 0]),
        (None, SpanId::from_wire(8))
    );

    let restored = ckpt::RestoreReply {
        status: 0,
        recovery: RecoveryId::from_wire(5),
        span: SpanId::from_wire(6),
    };
    assert_eq!(
        shape(&restored.into_message()),
        (0x0A03, [0, 5, 6, 0, 0, 0, 0, 0], Vec::new())
    );
    let denied = ckpt::RestoreReply {
        status: 4,
        ..Default::default()
    };
    assert_eq!(
        shape(&denied.into_message()),
        (0x0A03, [4, 0, 0, 0, 0, 0, 0, 0], Vec::new())
    );
    let restore_reply = |params| {
        let r = ckpt::RestoreReply::from_message(&msg(0x0A03, params, b"")).expect("a reply");
        (r.status, r.recovery, r.span)
    };
    assert_eq!(restore_reply([0, 0, 0, 0, 0, 0, 0, 0]), (0, None, None));
    assert_eq!(
        restore_reply([2, 5, 6, 0, 0, 0, 0, 0]),
        (2, RecoveryId::from_wire(5), SpanId::from_wire(6))
    );
}

#[test]
fn file_requests_carry_the_handle_and_its_mount() {
    assert_eq!(
        shape(&open("/fat/big.bin")),
        (0x0800, [0; 8], b"/fat/big.bin".to_vec())
    );
    let reply = msg(0x0801, [0, 9, 4096, 0, 0, 0, 0, 0], b"");
    let fat = File::opened("/fat/big.bin", &reply).expect("an open reply");
    assert_eq!((fat.ino, fat.size), (9, 4096));
    // The buffer in the caller's space in slot 3; VFS's grant over it in
    // slot 4 of the request it forwards, 0 from the client.
    assert_eq!(
        shape(&fat.read(512, 64, 0x2000)),
        (0x0802, [9, 512, 64, 0x2000, 0, 0, 0, 1], Vec::new())
    );
    assert_eq!(
        shape(&fat.write(1024, 512, 0x400)),
        (0x0803, [9, 1024, 512, 0x400, 0, 0, 0, 1], Vec::new())
    );
    let root = File::opened("bigfile", &msg(0x0801, [0, 3, 100, 0, 0, 0, 0, 0], b""))
        .expect("an open reply");
    assert_eq!((root.ino, root.size), (3, 100));
    assert_eq!(
        shape(&root.read(0, 100, 0)),
        (0x0802, [3, 0, 100, 0, 0, 0, 0, 0], Vec::new())
    );
    assert_eq!(
        shape(&root.write(0, 512, 64)),
        (0x0803, [3, 0, 512, 64, 0, 0, 0, 0], Vec::new())
    );
    let forwarded = fs::Read {
        grant: 7,
        ..fs::Read::from_message(&root.read(0, 100, 0)).expect("a read")
    };
    assert_eq!(
        shape(&forwarded.into_message()),
        (0x0802, [3, 0, 100, 0, 7, 0, 0, 0], Vec::new())
    );
}

#[test]
fn device_requests_carry_the_device_in_slot_seven() {
    assert_eq!(
        shape(&Dev::Printer.open()),
        (0x0800, [0; 8], b"/dev/lp".to_vec())
    );
    assert_eq!(
        shape(&Dev::Audio.write(vec![1, 2, 3])),
        (0x0401, [0, 0, 0, 0, 0, 0, 0, 1], vec![1, 2, 3])
    );
    assert_eq!(
        shape(&Dev::Kbd.read(256)),
        (0x0405, [256, 0, 0, 0, 0, 0, 0, 3], Vec::new())
    );
    assert_eq!(
        shape(&Dev::Scsi.burn_start(12)),
        (0x0410, [12, 0, 0, 0, 0, 0, 0, 2], Vec::new())
    );
    assert_eq!(
        shape(&Dev::Scsi.burn_chunk(4, vec![0xCD; 2])),
        (0x0411, [4, 0, 0, 0, 0, 0, 0, 2], vec![0xCD; 2])
    );
    assert_eq!(
        shape(&Dev::Scsi.burn_finalize()),
        (0x0412, [0, 0, 0, 0, 0, 0, 0, 2], Vec::new())
    );
}

#[test]
fn socket_requests() {
    assert_eq!(
        shape(&get(5, 4096, 77)),
        (0x0902, [5, 0, 0, 0, 0, 0, 0, 0], b"GET 4096 77".to_vec())
    );
    assert_eq!(
        shape(&close(5)),
        (0x0908, [5, 0, 0, 0, 0, 0, 0, 0], Vec::new())
    );
    assert_eq!(
        shape(&dgram(11, vec![9, 9])),
        (0x0905, [0, 11, 0, 0, 0, 0, 0, 0], vec![9, 9])
    );
}

#[test]
fn the_write_ahead_log_rides_in_slots_five_and_six() {
    // What the driver reads: the log tag, or nothing for an unlogged write.
    let request_wal = |m: &Message| {
        let write = cdev::Write::from_message(m).filter(|w| w.seq != 0)?;
        Some((write.seq, write.offset))
    };
    let tagged = Dev::Printer.logged_write(vec![7], 7, 4096);
    assert_eq!(
        shape(&tagged),
        (0x0401, [0, 0, 0, 0, 0, 7, 4096, 0], vec![7])
    );
    let logged = msg(0x0401, [0, 0, 0, 0, 0, 3, 2048, 1], b"ab");
    assert_eq!(request_wal(&logged), Some((3, 2048)));
    let opted_out = msg(0x0401, [0, 0, 0, 0, 0, 0, 2048, 1], b"ab");
    assert_eq!(request_wal(&opted_out), None);
}

#[test]
fn the_consumed_watermark_rides_in_slots_three_and_four() {
    // What the client reads: the acknowledged watermark, if any.
    let reply_ack = |m: &Message| {
        let reply = dev_reply(m).filter(|r| r.ack_seq != 0)?;
        Some((reply.consumed, reply.ack_seq))
    };
    let acked = cdev::Reply {
        status: 0,
        count: 1024,
        csum_echo: 9,
        consumed: 8192,
        ack_seq: 9,
    };
    assert_eq!(
        shape(&acked.into_message()),
        (0x0402, [0, 1024, 9, 8192, 9, 0, 0, 0], Vec::new())
    );
    let acked = msg(0x0402, [0, 1024, 0, 8192, 9, 0, 0, 0], b"");
    assert_eq!(reply_ack(&acked), Some((8192, 9)));
    assert_eq!(
        reply_ack(&msg(0x0402, [0, 1024, 0, 8192, 0, 0, 0, 0], b"")),
        None
    );
    // VFS's refusal of a logged write echoes the log entry in flight.
    let refusal = msg(0x0804, [5, 0, 1, 0, 7, 0, 0, 0], b"");
    assert_eq!(reply_ack(&refusal), Some((0, 7)));
}

#[test]
fn replies_classify_by_kind_then_status_then_slot_two() {
    let cdev_reply = 0x0402;
    let class = |expected: u32, mtype: u32, params: [u64; 8]| {
        classify(expected, &Ok(msg(mtype, params, b"")))
    };
    let with = |st: u64, died: u64| [st, 0, died, 0, 0, 0, 0, 0];
    assert_eq!(class(cdev_reply, 0x0402, with(0, 0)), ReplyClass::Ok);
    assert_eq!(class(cdev_reply, 0x0402, with(11, 0)), ReplyClass::Busy);
    assert_eq!(class(cdev_reply, 0x0402, with(5, 0)), ReplyClass::Status(5));
    assert_eq!(
        class(cdev_reply, 0x0402, with(5, 1)),
        ReplyClass::DriverDied
    );
    // VFS's own refusal, with and without the driver-died flag.
    assert_eq!(
        class(cdev_reply, 0x0804, with(5, 1)),
        ReplyClass::DriverDied
    );
    assert_eq!(
        class(cdev_reply, 0x0804, with(19, 0)),
        ReplyClass::Status(19)
    );
    assert_eq!(class(cdev_reply, 0x0804, with(0, 0)), ReplyClass::Garbled);
    assert_eq!(class(cdev_reply, 0x0907, with(0, 0)), ReplyClass::Garbled);
    assert_eq!(class(cdev_reply, 0x0907, with(5, 1)), ReplyClass::Garbled);
    let gone: Result<Message, IpcError> = Err(IpcError::DeadDestination);
    assert_eq!(classify(cdev_reply, &gone), ReplyClass::Gone);

    // Slot 2 of whichever kind the call expects is read as the flag.
    assert_eq!(class(0x0801, 0x0801, with(19, 1)), ReplyClass::DriverDied);
    assert_eq!(class(0x0801, 0x0801, with(19, 2)), ReplyClass::Status(19));
    assert_eq!(class(0x0804, 0x0804, with(5, 1)), ReplyClass::DriverDied);
    assert_eq!(class(0x0804, 0x0804, with(0, 1)), ReplyClass::Ok);
    assert_eq!(class(0x0901, 0x0901, with(1, 1)), ReplyClass::DriverDied);
    assert_eq!(class(0x0901, 0x0901, with(1, 0)), ReplyClass::Status(1));
    assert_eq!(class(0x0907, 0x0907, with(22, 1)), ReplyClass::DriverDied);
    assert_eq!(class(0x0907, 0x0907, with(11, 1)), ReplyClass::Busy);
}

/// VFS, MFS and INET each answer a request of another table's kind, and
/// a reply kind of their own tables sent as a request, with their
/// refusal: `(kind, status)` of the reply.
#[test]
fn every_server_refuses_a_foreign_kind_and_its_own_reply_kind() {
    use std::cell::RefCell;
    use std::rc::Rc;

    use phoenix::os::{names, NicKind, Os};
    use phoenix_drivers::proto::status;
    use phoenix_kernel::process::{ProcEvent, Process};
    use phoenix_kernel::system::Ctx;
    use phoenix_servers::fsfmt::{FileContent, FileSpec};
    use phoenix_servers::proto::{ds, fs, sock};
    use phoenix_simcore::time::SimDuration;

    /// Sends one request and keeps what comes back.
    struct Ask(Endpoint, u32, Rc<RefCell<Option<(u32, u64)>>>);
    impl Process for Ask {
        fn on_event(&mut self, ctx: &mut Ctx<'_>, event: ProcEvent) {
            match event {
                ProcEvent::Start => {
                    let _ = ctx.sendrec(self.0, Message::new(self.1));
                }
                ProcEvent::Reply {
                    result: Ok(reply), ..
                } => *self.2.borrow_mut() = Some((reply.mtype, reply.param(0))),
                _ => {}
            }
        }
    }

    let file = FileSpec {
        name: "bigfile".to_string(),
        content: FileContent::Synthetic { size: 4096 },
    };
    let mut os = Os::builder()
        .seed(3)
        .with_network(NicKind::Rtl8139)
        .with_disk(2048, 11, vec![file])
        .with_chardevs()
        .boot();
    os.run_for(SimDuration::from_millis(200));
    let einval_fs = Some((fs::DATA_REPLY, status::EINVAL));
    let einval_sock = Some((sock::ACK, status::EINVAL));
    // (server, request kind, answer)
    let cases = [
        (names::VFS, ds::PUBLISH, einval_fs),
        (names::VFS, fs::OPEN_REPLY, einval_fs),
        (names::VFS, cdev::REPLY, einval_fs),
        (names::MFS, ds::PUBLISH, einval_fs),
        (names::MFS, fs::DATA_REPLY, einval_fs),
        (names::INET, ds::PUBLISH, einval_sock),
        (names::INET, sock::CONNECT_REPLY, einval_sock),
    ];
    for (server, kind, expected) in cases {
        let answer = Rc::new(RefCell::new(None));
        let ep = os.endpoint(server).unwrap();
        let ask = Box::new(Ask(ep, kind, answer.clone()));
        os.spawn_app_with_ipc("client", ask, &[server]);
        os.run_for(SimDuration::from_millis(50));
        assert_eq!(*answer.borrow(), expected, "{server} answering {kind:#x}");
    }
}
