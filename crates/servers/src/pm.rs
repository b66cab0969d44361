//! The process manager.
//!
//! PM is the parent of all system processes: it executes programs on
//! behalf of the reincarnation server (which lacks the spawn privilege
//! itself), delivers signals, and — being the parent — receives every
//! child's exit status from the kernel, which it forwards to RS as a
//! `SIGCHLD` report "according to the POSIX specification" (§5.1).
//!
//! PM keeps no process registry of its own: the kernel's process table is
//! the only one, and RS reconciles its slots against it. PM's one piece
//! of state is whom it forwards exit reports to.

use phoenix_drivers::proto::drv;
use phoenix_kernel::process::ProcEvent;
use phoenix_kernel::system::Ctx;
use phoenix_kernel::types::{CallId, Endpoint, ExitReason, KillOrigin, Message, Signal};
use phoenix_simcore::trace::TraceLevel;
use phoenix_simcore::wire::{Reader, Writer};

use crate::libserver::{Names, ServerLogic, Shell};
use crate::proto::pm;

/// Status codes in PM replies.
pub mod pm_status {
    /// Success.
    pub const OK: u64 = 0;
    /// Unknown program.
    pub const NO_PROGRAM: u64 = 2;
    /// Target endpoint is stale.
    pub const NO_PROCESS: u64 = 3;
    /// Caller is not authorized.
    pub const DENIED: u64 = 13;
}

/// The START_REPLY of `status`, naming the started endpoint if any.
fn start_reply(status: u64, started: Option<Endpoint>) -> Message {
    let endpoint = started.unwrap_or_default();
    pm::StartReply { status, endpoint }.into_message()
}

/// The process manager's logic; run it as `Server<ProcessManager>`. Its
/// externalised state (crash-only contract) is the reaper binding alone,
/// saved when it changes: if the registration of the reincarnation server
/// with a restarted PM is lost, the restore rebinds it.
#[derive(Debug, Default)]
pub struct ProcessManager {
    /// Who receives SIGCHLD forwards (the reincarnation server).
    reaper: Option<Endpoint>,
}

impl ProcessManager {
    /// Creates the process manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// The SIGCHLD `reason` kind and `detail` of an exit.
    fn encode_reason(reason: &ExitReason) -> (u64, u64) {
        match reason {
            ExitReason::Exited(code) => (u64::from(pm::EXITED), *code as u64),
            ExitReason::Panicked(_) => (u64::from(pm::PANICKED), 0),
            ExitReason::Exception(k) => (u64::from(pm::EXCEPTION), *k as u64),
            ExitReason::Signaled(_, KillOrigin::User) => (u64::from(pm::SIGNALED), 1),
            ExitReason::Signaled(_, KillOrigin::System) => (u64::from(pm::SIGNALED), 0),
        }
    }
}

impl ServerLogic for ProcessManager {
    const NAMES: Names = Names {
        server: "pm",
        state_key: "pm.records",
        injected_crash: "pm.injected_crash",
        stalled_events: "pm.stalled_events",
        garbled_replies: "pm.garbled_replies",
        restore_garbage: "pm.records_restore_garbage",
    };

    /// PM's whole state is externalised, so a payload decodes into a PM.
    // analyze:recovery
    type Saved = ProcessManager;

    /// Serialises the reaper binding (layout: DESIGN §5e, "what is on
    /// the wire").
    // analyze:recovery
    fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        Endpoint::put_opt(self.reaper, &mut w);
        w.into_bytes()
    }

    // analyze:recovery
    fn decode(payload: &[u8]) -> Option<ProcessManager> {
        let mut r = Reader::new(payload);
        let reaper = Endpoint::get_opt(&mut r)?;
        r.finish()?;
        Some(ProcessManager { reaper })
    }

    /// A live reaper binding delivered after the restart (RS
    /// re-registers on respawn) wins over the snapshot.
    // analyze:recovery
    fn adopt(&mut self, ctx: &mut Ctx<'_>, saved: ProcessManager) {
        self.reaper = self.reaper.or(saved.reaper);
        ctx.metrics().incr("pm.records_restored");
    }

    fn event(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, event: ProcEvent) {
        match event {
            ProcEvent::Message(msg)
                if matches!(drv::Msg::decode(&msg), Some(drv::Msg::HB_PING(_))) =>
            {
                // RS liveness ping: with no START/KILL in flight a wedged
                // PM would leave no stalled request to audit, so RS pings
                // it like a driver. The pong goes through the garble
                // filter — a corrupting PM mangles it, which RS reads the
                // same as silence.
                sh.push(ctx, msg.source, Message::new(drv::HB_PONG));
            }
            ProcEvent::Message(msg) if matches!(pm::Msg::decode(&msg), Some(pm::Msg::REGISTER)) => {
                if self.reaper != Some(msg.source) {
                    self.reaper = Some(msg.source);
                    sh.gate.mark_dirty();
                }
                ctx.trace(
                    TraceLevel::Info,
                    format!("exit reports will go to {}", msg.source),
                );
            }
            ProcEvent::ChildExited(status) => {
                // Forward the exit to the reincarnation server — this is
                // the SIGCHLD + wait() path that makes defect classes 1-3
                // immediately visible (§5.1).
                if let Some(reaper) = self.reaper {
                    let (reason, detail) = Self::encode_reason(&status.reason);
                    let exit = pm::Sigchld {
                        endpoint: status.endpoint,
                        reason,
                        detail,
                    };
                    let name = status.name.into_bytes();
                    let _ = ctx.send(reaper, exit.into_message().with_data(name));
                }
            }
            _ => {}
        }
    }

    /// Serves one START/KILL request (also the replay path for requests
    /// parked behind a restore).
    fn request(&mut self, sh: &mut Shell, ctx: &mut Ctx<'_>, call: CallId, msg: Message) {
        match pm::Msg::decode(&msg) {
            // Only the registered reaper (RS) may start services.
            Some(pm::Msg::START(_)) if self.reaper != Some(msg.source) => {
                sh.reply(ctx, call, start_reply(pm_status::DENIED, None));
            }
            Some(pm::Msg::START(start)) => {
                let program = String::from_utf8_lossy(&msg.data);
                let version = match start.version {
                    0 => None,
                    v => Some(v as u32),
                };
                let reply = match ctx.sys_spawn(&program, version) {
                    Ok(ep) => start_reply(pm_status::OK, Some(ep)),
                    Err(_) => start_reply(pm_status::NO_PROGRAM, None),
                };
                sh.reply(ctx, call, reply);
            }
            Some(pm::Msg::KILL(kill)) if self.reaper == Some(msg.source) => {
                let signal = if kill.signal == 1 {
                    Signal::Kill
                } else {
                    Signal::Term
                };
                let st = match ctx.sys_kill(kill.target, signal) {
                    Ok(()) => pm_status::OK,
                    Err(_) => pm_status::NO_PROCESS,
                };
                sh.reply(ctx, call, pm::KillReply { status: st }.into_message());
            }
            // A KILL from anyone but the reaper; a one-way message or a
            // reply; another table's kind.
            Some(pm::Msg::KILL(_) | pm::Msg::REGISTER | pm::Msg::SIGCHLD(_))
            | Some(pm::Msg::START_REPLY(_) | pm::Msg::KILL_REPLY(_))
            | None => {
                let denied = pm::KillReply {
                    status: pm_status::DENIED,
                };
                sh.reply(ctx, call, denied.into_message());
            }
        }
    }
}
