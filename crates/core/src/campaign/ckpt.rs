//! Checkpoint campaign: char-driver kills with and without phoenix-ckpt.

use std::cell::RefCell;
use std::rc::Rc;

use phoenix_simcore::time::SimDuration;

use super::{
    ckpt_print_job, fossilize, printed_bytes, printer_byte_exact, samples_played, scripted_kill,
    CkptStreams, AUDIO_BLOCK_BYTES, AUDIO_BLOCK_PERIOD,
};
use crate::apps::{Lpd, LpdStatus, Mp3Player, Mp3Status};
use crate::os::{names, Os};

/// Parameters of the checkpoint campaign: repeated kills of the stream
/// char drivers (printer, audio) while a print job and an audio stream
/// are in flight, with the `phoenix-ckpt` subsystem on or off.
#[derive(Debug, Clone)]
pub struct CkptCampaignConfig {
    /// Root seed.
    pub seed: u64,
    /// Driver kills, alternating printer / audio.
    pub faults: u64,
    /// Virtual time between consecutive kills.
    pub kill_interval: SimDuration,
    /// `true` = checkpoint/replay path; `false` = the paper's §6.3
    /// error-push baseline.
    pub checkpointing: bool,
}

impl Default for CkptCampaignConfig {
    fn default() -> Self {
        CkptCampaignConfig {
            seed: 2007,
            faults: 100,
            kill_interval: SimDuration::from_millis(400),
            checkpointing: true,
        }
    }
}

/// Aggregate checkpoint-campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CkptCampaignResult {
    /// Whether the run had checkpointing on.
    pub checkpointing: bool,
    /// Kills executed.
    pub kills: u64,
    /// Kills after which a fresh incarnation came up in time.
    pub recovered_kills: u64,
    /// Bytes the printer committed to paper (device oracle).
    pub printed_bytes: u64,
    /// Bytes the print job contained.
    pub expected_printed: u64,
    /// The printed stream equals the job byte-for-byte — no duplicated
    /// page, no lost line.
    pub printer_byte_exact: bool,
    /// Bytes the DAC played (device oracle).
    pub samples_played: u64,
    /// Bytes the audio stream contained.
    pub expected_samples: u64,
    /// Errors that reached the applications: baseline job restarts /
    /// fatal reports / dropped blocks, or residual errors on the
    /// checkpointed path (must be 0 there).
    pub app_visible_errors: u64,
    /// Log replays the checkpointed apps performed (transparent).
    pub replays: u64,
    /// Char WRITE requests the drivers served.
    pub requests: u64,
    /// Snapshot saves the drivers issued.
    pub saves: u64,
    /// Snapshot restores completed.
    pub restores: u64,
    /// Replayed bytes deduplicated against restored watermarks.
    pub dedup_bytes: u64,
    /// Watermark jumps (lost/corrupt snapshot, caller log trusted).
    pub watermark_jumps: u64,
    /// Both workloads ran to completion.
    pub workloads_done: bool,
    /// MD5 over the canonical metrics dump (determinism handle).
    pub digest: String,
}

impl CkptCampaignResult {
    /// Fraction of kills fully transparent to the applications, in
    /// [0, 1]: recovery completed and no error surfaced.
    pub fn transparency_rate(&self) -> f64 {
        if self.kills == 0 {
            return 1.0;
        }
        let opaque = self.app_visible_errors.min(self.kills) + (self.kills - self.recovered_kills);
        (self.kills - opaque.min(self.kills)) as f64 / self.kills as f64
    }

    /// Extra DS messages (saves + restores) per served char request —
    /// the per-request logging overhead of the subsystem.
    pub fn overhead_msgs_per_request(&self) -> f64 {
        if self.requests == 0 {
            return 0.0;
        }
        (self.saves + self.restores) as f64 / self.requests as f64
    }

    /// Renders the summary line.
    pub fn render(&self) -> String {
        format!(
            "ckpt={}: {} kills ({} recovered) -> transparency {:.0}%, \
             printer {}/{} bytes (byte-exact: {}), audio {}/{} bytes, \
             app errors {}, replays {}, saves {}, restores {}, \
             dedup {} B, watermark jumps {}, overhead {:.3} msg/req; digest {}",
            self.checkpointing,
            self.kills,
            self.recovered_kills,
            self.transparency_rate() * 100.0,
            self.printed_bytes,
            self.expected_printed,
            self.printer_byte_exact,
            self.samples_played,
            self.expected_samples,
            self.app_visible_errors,
            self.replays,
            self.saves,
            self.restores,
            self.dedup_bytes,
            self.watermark_jumps,
            self.overhead_msgs_per_request(),
            self.digest,
        )
    }
}

/// The applications of one arm.
enum Apps {
    /// Write-ahead-logging apps: a driver failure is replayed away.
    Checkpointed(CkptStreams),
    /// The §6.3 error-push baseline: the same job and stream, but a
    /// driver failure surfaces as an application-visible error.
    Legacy {
        lpd: Rc<RefCell<LpdStatus>>,
        mp3: Rc<RefCell<Mp3Status>>,
    },
}

impl Apps {
    fn spawn_legacy(os: &mut Os, job: Vec<u8>, audio_blocks: u64) -> Apps {
        let vfs = os.endpoint(names::VFS).expect("vfs up after boot");
        let lpd = Rc::new(RefCell::new(LpdStatus::default()));
        let mp3 = Rc::new(RefCell::new(Mp3Status::default()));
        os.spawn_app("lpd", Box::new(Lpd::new(vfs, job, lpd.clone())));
        os.spawn_app(
            "mp3",
            Box::new(Mp3Player::new(
                vfs,
                audio_blocks,
                AUDIO_BLOCK_BYTES,
                AUDIO_BLOCK_PERIOD,
                mp3.clone(),
            )),
        );
        Apps::Legacy { lpd, mp3 }
    }

    fn done(&self) -> bool {
        match self {
            Apps::Checkpointed(s) => s.done(),
            Apps::Legacy { lpd, mp3 } => lpd.borrow().done && mp3.borrow().done,
        }
    }

    /// `(app-visible errors, transparent replays)`: baseline job
    /// restarts, fatal reports and dropped blocks never replay.
    fn errors_and_replays(&self) -> (u64, u64) {
        match self {
            Apps::Checkpointed(s) => (s.app_errors(), s.replays()),
            Apps::Legacy { lpd, mp3 } => {
                let lpd = lpd.borrow();
                (
                    lpd.job_restarts + lpd.fatal + mp3.borrow().blocks_dropped,
                    0,
                )
            }
        }
    }
}

/// Runs the checkpoint campaign: boots the char-device machine (with or
/// without `phoenix-ckpt`), starts a print job and a paced audio stream,
/// then kills the printer and audio drivers alternately while both are in
/// flight. Returns the result plus the booted [`Os`] for trace/timeline
/// inspection.
pub fn run_ckpt_campaign(cfg: &CkptCampaignConfig) -> (CkptCampaignResult, Os) {
    let builder = Os::builder()
        .seed(cfg.seed)
        .heartbeat(SimDuration::from_millis(500), 3);
    // Workloads sized to stay in flight across the whole kill schedule.
    let job = ckpt_print_job(cfg.seed, (cfg.faults as usize).max(4) * 3072);
    let audio_blocks = cfg.faults.max(4) * 6;
    let expected_samples = audio_blocks * AUDIO_BLOCK_BYTES as u64;
    let (mut os, apps) = if cfg.checkpointing {
        let mut os = builder.with_checkpointing().boot();
        let streams = CkptStreams::spawn(&mut os, job.clone(), audio_blocks);
        (os, Apps::Checkpointed(streams))
    } else {
        let mut os = builder.with_chardevs().boot();
        let apps = Apps::spawn_legacy(&mut os, job.clone(), audio_blocks);
        (os, apps)
    };
    os.run_for(SimDuration::from_millis(100));

    let mut result = CkptCampaignResult {
        checkpointing: cfg.checkpointing,
        ..CkptCampaignResult::default()
    };
    for i in 0..cfg.faults {
        let target = if i % 2 == 0 {
            names::CHR_PRINTER
        } else {
            names::CHR_AUDIO
        };
        let kill = scripted_kill(&mut os, target, 600, cfg.kill_interval);
        result.kills += 1;
        result.recovered_kills += u64::from(kill.recovered);
    }

    // Drain: let both workloads run to completion (the DAC still has
    // queued blocks to play after the last ack).
    let poll = SimDuration::from_millis(50);
    os.run_until(poll, 1200, |os| {
        apps.done() && samples_played(os) >= expected_samples
    });
    // The apps' `done` means acked by the driver; the printer FIFO may
    // still be draining to paper. Let the hardware catch up.
    os.run_until(poll, 400, |os| printed_bytes(os) >= job.len() as u64);

    result.expected_printed = job.len() as u64;
    result.expected_samples = expected_samples;
    result.printed_bytes = printed_bytes(&mut os);
    result.printer_byte_exact = printer_byte_exact(&mut os, &job);
    result.samples_played = samples_played(&mut os);
    result.workloads_done = apps.done();
    (result.app_visible_errors, result.replays) = apps.errors_and_replays();

    let fossil = fossilize(&mut os, &[]);
    let m = os.metrics();
    result.requests = m.counter("cdev.writes");
    result.saves = m.counter("ckpt.saves");
    result.restores = m.counter("ckpt.restores");
    result.dedup_bytes = m.counter("ckpt.dedup_bytes");
    result.watermark_jumps = m.counter("ckpt.watermark_jumps");
    result.digest = fossil.digest;
    (result, os)
}
