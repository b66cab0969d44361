//! Block storage device models: a SATA disk and a floppy drive.
//!
//! Both expose a simple command/LBA/count/DMA register interface and
//! complete operations asynchronously after a modeled seek + transfer
//! delay, raising an IRQ. Disk contents are *synthetic*: unwritten blocks
//! read as a deterministic function of `(disk_seed, lba)`, and writes are
//! kept in a sparse overlay. This lets the Fig. 8 experiment read a 1 GB
//! "file filled with random data" without a gigabyte of host memory, while
//! the harness can independently compute the expected SHA-1. A disk of at
//! most [`STORED_SECTORS`] computes that content once, when it is made,
//! and copies it out on every read; a bigger one computes it at each read.

use std::any::Any;
use std::collections::BTreeMap;

use phoenix_simcore::time::{SimDuration, SimTime};

use crate::bus::{DevCtx, Device};

/// Sector size in bytes.
pub const SECTOR: usize = 512;

/// The largest disk whose unwritten content is built once and kept:
/// 8,192 sectors, 4 MiB, the largest server address space. A small disk
/// is re-read thousands of times per sector by a campaign, a bigger one
/// (Fig. 8's) about once, so only the small one is worth its memory.
pub const STORED_SECTORS: u64 = 8192;

/// Where the xorshift64* chain of sector `lba` starts.
fn chain_start(seed: u64, lba: u64) -> u64 {
    seed ^ lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_4E5B
}

/// Advances a chain one step and returns the eight bytes it yields.
#[inline(always)]
fn chain_next(x: &mut u64) -> [u8; 8] {
    *x ^= *x >> 12;
    *x ^= *x << 25;
    *x ^= *x >> 27;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes()
}

/// Writes the content of unwritten sector `lba` into `out`.
pub fn synth_sector_into(seed: u64, lba: u64, out: &mut [u8; SECTOR]) {
    let mut x = chain_start(seed, lba);
    for word in out.as_chunks_mut::<8>().0 {
        *word = chain_next(&mut x);
    }
}

/// Deterministic content of an unwritten sector.
///
/// A small xorshift keyed by `(seed, lba)`; the experiment harness uses the
/// same function to compute expected checksums.
pub fn synth_sector(seed: u64, lba: u64) -> Vec<u8> {
    let mut out = [0; SECTOR];
    synth_sector_into(seed, lba, &mut out);
    out.to_vec()
}

/// Writes the content of the unwritten sectors from `lba` on into `out`,
/// whole sectors. One sector's chain is serial — each word waits for the
/// one before it — but sectors do not depend on each other, so four
/// chains advance in lockstep and the host overlaps their latencies.
fn synth_run_into(seed: u64, lba: u64, out: &mut [u8]) {
    let (sectors, _) = out.as_chunks_mut::<SECTOR>();
    let (quads, rest) = sectors.as_chunks_mut::<4>();
    let mut lba = lba;
    for quad in quads {
        let mut chains = [0, 1, 2, 3].map(|lane| chain_start(seed, lba + lane));
        for word in 0..SECTOR / 8 {
            for (sector, x) in quad.iter_mut().zip(&mut chains) {
                sector[word * 8..word * 8 + 8].copy_from_slice(&chain_next(x));
            }
        }
        lba += 4;
    }
    for sector in rest {
        synth_sector_into(seed, lba, sector);
        lba += 1;
    }
}

/// Pure storage model: capacity, synthetic base content, write overlay.
#[derive(Debug, Clone)]
pub struct DiskModel {
    sectors: u64,
    seed: u64,
    /// The base content of every sector, for a disk of at most
    /// [`STORED_SECTORS`]; a bigger disk synthesises it at each read.
    image: Option<Box<[u8]>>,
    overlay: BTreeMap<u64, Vec<u8>>,
}

impl DiskModel {
    /// Creates a disk of `sectors` sectors with synthetic content derived
    /// from `seed`.
    pub fn new(sectors: u64, seed: u64) -> Self {
        let image = (sectors <= STORED_SECTORS).then(|| {
            let mut image = vec![0; sectors as usize * SECTOR];
            synth_run_into(seed, 0, &mut image);
            image.into_boxed_slice()
        });
        DiskModel {
            sectors,
            seed,
            image,
            overlay: BTreeMap::new(),
        }
    }

    /// Number of sectors.
    pub fn sectors(&self) -> u64 {
        self.sectors
    }

    /// Reads one sector. Out-of-range LBAs return `None`.
    pub fn read(&self, lba: u64) -> Option<Vec<u8>> {
        if lba >= self.sectors {
            return None;
        }
        let mut out = vec![0; SECTOR];
        self.read_run(lba, &mut out);
        Some(out)
    }

    /// Reads the sectors from `lba` on into `out`, whole sectors, in
    /// place: written sectors are copied out of the overlay and the runs
    /// of unwritten ones between them out of the base content. The
    /// caller has checked the run against [`DiskModel::sectors`].
    pub fn read_run(&self, lba: u64, out: &mut [u8]) {
        let at = |l: u64| (l - lba) as usize * SECTOR;
        let end = lba + (out.len() / SECTOR) as u64;
        let mut next = lba;
        for (&written, data) in self.overlay.range(lba..end) {
            self.base_into(next, &mut out[at(next)..at(written)]);
            out[at(written)..at(written + 1)].copy_from_slice(data);
            next = written + 1;
        }
        self.base_into(next, &mut out[at(next)..at(end)]);
    }

    /// Writes the base content of the sectors from `lba` on into `out`,
    /// whole sectors: copied from the image if the disk has one,
    /// synthesised where it lands if not.
    fn base_into(&self, lba: u64, out: &mut [u8]) {
        match &self.image {
            Some(image) => {
                let from = lba as usize * SECTOR;
                out.copy_from_slice(&image[from..from + out.len()]);
            }
            None => synth_run_into(self.seed, lba, out),
        }
    }

    /// Writes one sector. Returns `false` for out-of-range LBAs or short
    /// data.
    pub fn write(&mut self, lba: u64, data: &[u8]) -> bool {
        if lba >= self.sectors || data.len() != SECTOR {
            return false;
        }
        match self.overlay.get_mut(&lba) {
            Some(sector) => sector.copy_from_slice(data),
            None => {
                self.overlay.insert(lba, data.to_vec());
            }
        }
        true
    }

    /// Number of sectors that have ever been written.
    pub fn written_sectors(&self) -> usize {
        self.overlay.len()
    }
}

/// Common register map shared by both disk devices.
pub mod regs {
    /// Command: write one of the [`super::cmd`] codes to start an operation.
    pub const CMD: u16 = 0x00;
    /// Logical block address of the operation.
    pub const LBA: u16 = 0x04;
    /// Sector count (1..=256).
    pub const COUNT: u16 = 0x08;
    /// Device-side DMA address (inside the driver's IOMMU window).
    pub const DMA_ADDR: u16 = 0x0C;
    /// Status register.
    pub const STATUS: u16 = 0x10;
    /// Interrupt status (write-1-to-clear).
    pub const ISR: u16 = 0x14;
    /// Capacity in sectors (read-only).
    pub const CAPACITY: u16 = 0x18;
    /// Floppy only: motor control.
    pub const MOTOR: u16 = 0x1C;
}

/// Command codes.
pub mod cmd {
    /// Read `COUNT` sectors at `LBA` into `DMA_ADDR`.
    pub const READ: u32 = 1;
    /// Write `COUNT` sectors at `LBA` from `DMA_ADDR`.
    pub const WRITE: u32 = 2;
    /// Reset the controller, aborting any in-flight operation.
    pub const RESET: u32 = 3;
}

/// Status bits.
pub mod status {
    /// Controller ready for a command.
    pub const READY: u32 = 0x01;
    /// Operation in progress.
    pub const BUSY: u32 = 0x02;
    /// Last operation failed.
    pub const ERR: u32 = 0x04;
}

/// ISR bits.
pub mod disk_isr {
    /// Operation completed successfully.
    pub const DONE: u32 = 0x01;
    /// Operation failed (bad LBA, DMA fault, motor off).
    pub const FAIL: u32 = 0x02;
}

/// Timing and behavior parameters for a disk device.
#[derive(Debug, Clone)]
pub struct DiskTiming {
    /// Sustained media transfer rate, bytes/second.
    pub rate: u64,
    /// Fixed per-command overhead (seek + controller latency).
    pub overhead: SimDuration,
    /// Whether the device needs the motor spun up (floppy).
    pub needs_motor: bool,
    /// Motor spin-up time (floppy).
    pub spinup: SimDuration,
    /// Time after a controller reset before commands proceed (SATA link
    /// renegotiation). A restarted driver resets the controller, so every
    /// recovery pays this — the dominant term in Fig. 8's overhead.
    pub reset_settle: SimDuration,
}

impl DiskTiming {
    /// 2007-era SATA disk: ~33 MB/s sustained sequential, sub-ms overhead,
    /// ~half a second of link renegotiation after a controller reset.
    pub fn sata() -> Self {
        DiskTiming {
            rate: 33_000_000,
            overhead: SimDuration::from_micros(150),
            needs_motor: false,
            spinup: SimDuration::ZERO,
            reset_settle: SimDuration::from_millis(500),
        }
    }

    /// 3.5" floppy: ~60 KB/s, long seeks, motor spin-up.
    pub fn floppy() -> Self {
        DiskTiming {
            rate: 60_000,
            overhead: SimDuration::from_millis(80),
            needs_motor: true,
            spinup: SimDuration::from_millis(300),
            reset_settle: SimDuration::ZERO,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pending {
    None,
    Read { lba: u64, count: u32, dma: u64 },
    Write { lba: u64, count: u32, dma: u64 },
}

/// A disk controller device (used for both SATA and floppy with different
/// [`DiskTiming`]).
#[derive(Debug)]
pub struct DiskDevice {
    model: DiskModel,
    timing: DiskTiming,
    name: &'static str,
    lba: u32,
    count: u32,
    dma: u32,
    isr: u32,
    err: bool,
    motor_on: bool,
    pending: Pending,
    /// Commands issued before this instant stall until the link settles.
    link_ready_at: SimTime,
    /// Incremented on reset so late timers from an aborted op are ignored.
    op_epoch: u64,
    ops_done: u64,
    ops_failed: u64,
}

impl DiskDevice {
    /// Creates a SATA disk of `sectors` sectors.
    pub fn sata(sectors: u64, seed: u64) -> Self {
        Self::new("sata", DiskModel::new(sectors, seed), DiskTiming::sata())
    }

    /// Creates a 1.44 MB floppy.
    pub fn floppy(seed: u64) -> Self {
        Self::new("floppy", DiskModel::new(2880, seed), DiskTiming::floppy())
    }

    /// Creates a disk with explicit model and timing.
    pub fn new(name: &'static str, model: DiskModel, timing: DiskTiming) -> Self {
        DiskDevice {
            model,
            timing,
            name,
            lba: 0,
            count: 0,
            dma: 0,
            isr: 0,
            err: false,
            motor_on: false,
            pending: Pending::None,
            link_ready_at: SimTime::ZERO,
            op_epoch: 0,
            ops_done: 0,
            ops_failed: 0,
        }
    }

    /// The underlying storage model (test/harness access).
    pub fn model(&self) -> &DiskModel {
        &self.model
    }

    /// Mutable storage model access (e.g. for mkfs-style preparation).
    pub fn model_mut(&mut self) -> &mut DiskModel {
        &mut self.model
    }

    /// Completed operations.
    pub fn ops_done(&self) -> u64 {
        self.ops_done
    }

    /// Failed operations.
    pub fn ops_failed(&self) -> u64 {
        self.ops_failed
    }

    fn fail(&mut self, ctx: &mut DevCtx<'_, '_>) {
        self.err = true;
        self.pending = Pending::None;
        self.ops_failed += 1;
        self.isr |= disk_isr::FAIL;
        ctx.raise_irq();
    }

    fn start(&mut self, ctx: &mut DevCtx<'_, '_>, write: bool) {
        if self.pending != Pending::None {
            // Command while busy: reject.
            self.fail(ctx);
            return;
        }
        if self.timing.needs_motor && !self.motor_on {
            self.fail(ctx);
            return;
        }
        let count = self.count.clamp(1, 256);
        let lba = u64::from(self.lba);
        if lba + u64::from(count) > self.model.sectors() {
            self.fail(ctx);
            return;
        }
        let dma = u64::from(self.dma);
        self.pending = if write {
            Pending::Write { lba, count, dma }
        } else {
            Pending::Read { lba, count, dma }
        };
        self.err = false;
        let bytes = u64::from(count) * SECTOR as u64;
        // Stall behind any in-progress link renegotiation after a reset.
        let settle = self.link_ready_at.since(ctx.now());
        let delay =
            settle + self.timing.overhead + SimDuration::for_transfer(bytes, self.timing.rate);
        ctx.set_timer_after(delay, self.op_epoch);
    }
}

impl Device for DiskDevice {
    fn name(&self) -> &str {
        self.name
    }

    fn read(&mut self, _ctx: &mut DevCtx<'_, '_>, reg: u16) -> u32 {
        match reg {
            regs::STATUS => {
                let mut s = 0;
                match self.pending {
                    Pending::None => s |= status::READY,
                    _ => s |= status::BUSY,
                }
                if self.err {
                    s |= status::ERR;
                }
                s
            }
            regs::ISR => self.isr,
            regs::LBA => self.lba,
            regs::COUNT => self.count,
            regs::DMA_ADDR => self.dma,
            regs::CAPACITY => self.model.sectors() as u32,
            regs::MOTOR => u32::from(self.motor_on),
            _ => 0,
        }
    }

    fn write(&mut self, ctx: &mut DevCtx<'_, '_>, reg: u16, value: u32) {
        match reg {
            regs::LBA => self.lba = value,
            regs::COUNT => self.count = value,
            regs::DMA_ADDR => self.dma = value,
            regs::ISR => self.isr &= !value,
            regs::MOTOR => {
                self.motor_on = value != 0;
            }
            regs::CMD => match value {
                cmd::READ => self.start(ctx, false),
                cmd::WRITE => self.start(ctx, true),
                cmd::RESET => {
                    // Abort any in-flight operation; a timer from the old
                    // epoch will be ignored. Disk I/O stays idempotent, so
                    // the restarted driver simply reissues the request.
                    // SATA link renegotiation stalls subsequent commands.
                    self.op_epoch += 1;
                    self.pending = Pending::None;
                    self.err = false;
                    self.isr = 0;
                    self.link_ready_at = ctx.now() + self.timing.reset_settle;
                }
                _ => {}
            },
            _ => {}
        }
    }

    fn timer(&mut self, ctx: &mut DevCtx<'_, '_>, token: u64) {
        if token != self.op_epoch {
            return; // aborted by reset
        }
        let (write, lba, count, dma) = match self.pending {
            Pending::None => return,
            Pending::Read { lba, count, dma } => (false, lba, count, dma),
            Pending::Write { lba, count, dma } => (true, lba, count, dma),
        };
        // The window is resolved once for the request. What it exposes of
        // the transfer, cut to whole sectors, is what moves: sector `i`
        // moves iff sectors `0..=i` all lie inside the window.
        let span = ctx
            .dma_span(dma, count as usize * SECTOR)
            .unwrap_or_default();
        let (sectors, _) = span.as_chunks_mut::<SECTOR>();
        if write {
            for (i, sector) in sectors.iter().enumerate() {
                self.model.write(lba + i as u64, sector);
            }
        } else {
            self.model.read_run(lba, sectors.as_flattened_mut());
        }
        if sectors.len() < count as usize {
            self.fail(ctx);
            return;
        }
        self.pending = Pending::None;
        self.ops_done += 1;
        self.isr |= disk_isr::DONE;
        ctx.raise_irq();
    }

    fn hard_reset(&mut self) {
        self.op_epoch += 1;
        self.pending = Pending::None;
        self.err = false;
        self.isr = 0;
        self.motor_on = false;
    }

    fn as_any(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synth_sector_is_deterministic_and_distinct() {
        assert_eq!(synth_sector(1, 5), synth_sector(1, 5));
        assert_ne!(synth_sector(1, 5), synth_sector(1, 6));
        assert_ne!(synth_sector(1, 5), synth_sector(2, 5));
        assert_eq!(synth_sector(1, 5).len(), SECTOR);
    }

    #[test]
    fn model_overlay_shadows_synthetic_content() {
        let mut m = DiskModel::new(10, 42);
        let base = m.read(3).unwrap();
        let new = vec![0xAB; SECTOR];
        assert!(m.write(3, &new));
        assert_eq!(m.read(3).unwrap(), new);
        assert_ne!(m.read(3).unwrap(), base);
        assert_eq!(m.read(4).unwrap(), synth_sector(42, 4));
        assert_eq!(m.written_sectors(), 1);
    }

    /// `synth_sector` as it was first written: one serial chain, one
    /// `Vec`, eight bytes pushed a step.
    fn synth_sector_serial(seed: u64, lba: u64) -> Vec<u8> {
        let mut x = seed ^ lba.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_4E5B;
        let mut out = Vec::with_capacity(SECTOR);
        for _ in 0..SECTOR / 8 {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            out.extend_from_slice(&x.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
        }
        out
    }

    /// The four-lane run against one sector at a time, at run lengths on
    /// both sides of every lane boundary, with and without a written
    /// sector somewhere in the run, on a disk that stores its content and
    /// on one that synthesises it.
    #[test]
    fn read_run_equals_sector_by_sector_reads() {
        const LBA: u64 = 5;
        for sectors in [64, STORED_SECTORS + 1] {
            for run in [1usize, 3, 4, 5, 8, 31, 32] {
                for written in [None, Some(0), Some(run / 2), Some(run - 1)] {
                    let mut m = DiskModel::new(sectors, 42);
                    if let Some(w) = written {
                        assert!(m.write(LBA + w as u64, &[0xAB; SECTOR]));
                    }
                    let mut got = vec![0xEE; run * SECTOR];
                    m.read_run(LBA, &mut got);
                    for (i, sector) in got.chunks_exact(SECTOR).enumerate() {
                        let want = if written == Some(i) {
                            vec![0xAB; SECTOR]
                        } else {
                            synth_sector_serial(42, LBA + i as u64)
                        };
                        let case = format!("{sectors} sectors, run {run}, written {written:?}");
                        assert_eq!(sector, want, "sector {i}, {case}");
                        assert_eq!(m.read(LBA + i as u64).unwrap(), want);
                    }
                }
            }
        }
    }

    #[test]
    fn rewriting_a_sector_keeps_one_overlay_entry() {
        let mut m = DiskModel::new(8, 1);
        assert!(m.write(2, &[1; SECTOR]));
        assert!(m.write(2, &[2; SECTOR]));
        assert_eq!(m.written_sectors(), 1);
        assert_eq!(m.read(2).unwrap(), vec![2; SECTOR]);
    }

    #[test]
    fn model_bounds() {
        let mut m = DiskModel::new(4, 0);
        assert!(m.read(4).is_none());
        assert!(!m.write(4, &vec![0; SECTOR]));
        assert!(!m.write(0, b"short"));
    }
}
