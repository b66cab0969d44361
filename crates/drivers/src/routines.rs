//! Fault-VM programs for driver hot paths.
//!
//! Each driver executes one of these routines on its request path, so a
//! binary mutation injected by the §7.2 campaign lands in code that really
//! runs: header parsing, bounds validation (the `Assert`s that become
//! driver panics), and per-byte loops (whose inverted termination
//! conditions become infinite loops caught by heartbeats).

use phoenix_fault::isa::{Asm, Instr, Reg};

/// Register conventions used by all routines.
pub mod reg {
    /// First argument.
    pub const A0: u8 = 0;
    /// Second argument.
    pub const A1: u8 = 1;
    /// Third argument.
    pub const A2: u8 = 2;
    /// Primary result.
    pub const RES: u8 = 3;
    /// Scratch.
    pub const T0: u8 = 4;
    /// Scratch.
    pub const T1: u8 = 5;
    /// Scratch.
    pub const T2: u8 = 6;
    /// Scratch / flag.
    pub const FLAG: u8 = 7;
}

/// Emits `assert hi >= lo` (unsigned): falls through when the condition
/// holds, fails a driver consistency check otherwise.
fn emit_assert_ge(a: &mut Asm, hi: Reg, lo: Reg) {
    let ok = a.label();
    a.jge_to(hi, lo, ok);
    a.emit(Instr::MovImm(reg::FLAG, 0));
    a.emit(Instr::Assert(reg::FLAG));
    a.bind(ok);
}

/// Emits `assert a == b` — the classic driver postcondition check ("did
/// the copy loop do what it should have?"). Mutations that silently
/// corrupt registers trip these as internal panics, which is why panics
/// dominate the paper's crash statistics (65%, §7.2).
fn emit_assert_eq(a: &mut Asm, x: Reg, y: Reg) {
    emit_assert_ge(a, x, y);
    emit_assert_ge(a, y, x);
}

/// Emits `assert r != 0`.
fn emit_assert_nonzero(a: &mut Asm, r: Reg) {
    a.emit(Instr::Assert(r));
}

/// Emits a loop summing `len` (in `len_reg`) bytes starting at `base` into
/// `RES` (clobbers T0..T2).
///
/// Its shape is a host-speed contract: the loop is the fault VM's
/// `ByteSumLoop`, which `Vm::run` runs as one native step while its words
/// are pristine. A loop of another shape still runs, one interpreted
/// instruction per step, seven per byte; the fused-loop tests in
/// `tests/byte_sum_fusion.rs` fail if a routine loses its one fused head.
fn emit_byte_sum(a: &mut Asm, base: Reg, len_reg: Reg) {
    let top = a.label();
    let done = a.label();
    a.emit(Instr::MovImm(reg::RES, 0));
    a.emit(Instr::MovImm(reg::T0, 0)); // i = 0
    a.bind(top);
    a.jge_to(reg::T0, len_reg, done);
    a.emit(Instr::Mov(reg::T1, base));
    a.emit(Instr::Add(reg::T1, reg::T0));
    a.emit(Instr::LoadB(reg::T2, reg::T1, 0));
    a.emit(Instr::Add(reg::RES, reg::T2));
    a.emit(Instr::AddImm(reg::T0, 1));
    a.jmp_to(top);
    a.bind(done);
}

/// Block request validation.
///
/// Inputs: `A0` = LBA, `A1` = sector count, `A2` = device capacity in
/// sectors. VM memory `[0..16)` holds the 16-byte request descriptor the
/// routine checksums. On success `RES` holds the transfer length in bytes
/// and `mem32[16]` the descriptor checksum.
///
/// Checks (each a driver panic when violated): count > 0, count <= 256,
/// LBA + count <= capacity.
pub fn disk_request() -> Vec<u32> {
    let mut a = Asm::new();
    // count > 0
    emit_assert_nonzero(&mut a, reg::A1);
    // count <= 256
    a.emit(Instr::MovImm(reg::T0, 256));
    emit_assert_ge(&mut a, reg::T0, reg::A1);
    // lba + count <= capacity
    a.emit(Instr::Mov(reg::T0, reg::A0));
    a.emit(Instr::Add(reg::T0, reg::A1));
    emit_assert_ge(&mut a, reg::A2, reg::T0);
    // checksum the 16-byte descriptor at mem[0]
    a.emit(Instr::MovImm(reg::T1, 0)); // base
    a.emit(Instr::MovImm(reg::T2, 16));
    {
        // inline byte-sum with fixed len in T2, base in T1; the load
        // overwrites its own address register, a shape the VM fuses too
        let top = a.label();
        let done = a.label();
        a.emit(Instr::MovImm(reg::RES, 0));
        a.emit(Instr::MovImm(reg::T0, 0));
        a.bind(top);
        a.jge_to(reg::T0, reg::T2, done);
        a.emit(Instr::Mov(reg::FLAG, reg::T1));
        a.emit(Instr::Add(reg::FLAG, reg::T0));
        a.emit(Instr::LoadB(reg::FLAG, reg::FLAG, 0));
        a.emit(Instr::Add(reg::RES, reg::FLAG));
        a.emit(Instr::AddImm(reg::T0, 1));
        a.jmp_to(top);
        a.bind(done);
    }
    a.emit(Instr::MovImm(reg::T0, 16));
    a.emit(Instr::Store(reg::T0, reg::RES, 0)); // mem32[16] = checksum
                                                // Postcondition: re-read the stored checksum and compare.
    a.emit(Instr::Load(reg::T1, reg::T0, 0));
    emit_assert_eq(&mut a, reg::T1, reg::RES);
    // result: bytes = count << 9
    a.emit(Instr::Mov(reg::RES, reg::A1));
    a.emit(Instr::Shl(reg::RES, 9));
    // Postcondition: bytes is a whole number of non-empty sectors.
    a.emit(Instr::Mov(reg::T0, reg::RES));
    a.emit(Instr::Shr(reg::T0, 9));
    emit_assert_eq(&mut a, reg::T0, reg::A1);
    a.emit(Instr::Halt);
    a.finish()
}

/// Network receive-path validation.
///
/// VM memory holds the 4-byte ring header followed by the frame payload.
/// Inputs: `A0` = declared frame length (bounds-checked), `A1` = number of
/// header/prefix bytes to checksum (drivers parse headers, not payloads, so
/// they clamp this to [`HEADER_SUM_BYTES`]). Checks: header status byte
/// set, length > 0, length <= 1518. Sums `A1` bytes from offset 4 into
/// `RES`.
pub fn net_rx() -> Vec<u32> {
    let mut a = Asm::new();
    // status = mem8[0]; assert status != 0
    a.emit(Instr::MovImm(reg::T0, 0));
    a.emit(Instr::LoadB(reg::T1, reg::T0, 0));
    emit_assert_nonzero(&mut a, reg::T1);
    // assert len > 0 and len <= 1518
    emit_assert_nonzero(&mut a, reg::A0);
    a.emit(Instr::MovImm(reg::T0, 1518));
    emit_assert_ge(&mut a, reg::T0, reg::A0);
    // sum A1 prefix bytes at mem[4..4+A1]
    a.emit(Instr::MovImm(reg::A2, 4)); // base = 4
    emit_byte_sum(&mut a, reg::A2, reg::A1);
    // Postconditions (driver consistency checks): the loop consumed
    // exactly A1 bytes, the base pointer is untouched, and the header
    // status byte still reads OK.
    emit_assert_eq(&mut a, reg::T0, reg::A1);
    a.emit(Instr::MovImm(reg::T1, 4));
    emit_assert_eq(&mut a, reg::A2, reg::T1);
    a.emit(Instr::MovImm(reg::T0, 0));
    a.emit(Instr::LoadB(reg::T1, reg::T0, 0));
    emit_assert_nonzero(&mut a, reg::T1);
    // Output: A2 = the ring header's next-packet page, which the DP8390
    // driver programs into BNRY. A mutation that corrupts this value makes
    // the driver scribble an invalid ring pointer into the chip — the
    // §7.2 "card confused by the faulty driver" path.
    a.emit(Instr::MovImm(reg::T0, 0));
    a.emit(Instr::LoadB(reg::A2, reg::T0, 1));
    a.emit(Instr::Halt);
    a.finish()
}

/// Prefix length drivers checksum on the rx/tx paths.
pub const HEADER_SUM_BYTES: usize = 64;

/// Network transmit-path validation: `A0` = frame length (bounds-checked),
/// `A1` = prefix bytes to checksum, payload at `mem[0..len)`.
pub fn net_tx() -> Vec<u32> {
    let mut a = Asm::new();
    emit_assert_nonzero(&mut a, reg::A0);
    a.emit(Instr::MovImm(reg::T0, 1518));
    emit_assert_ge(&mut a, reg::T0, reg::A0);
    a.emit(Instr::MovImm(reg::A2, 0));
    emit_byte_sum(&mut a, reg::A2, reg::A1);
    // Postcondition: the serialization loop consumed exactly A1 bytes.
    emit_assert_eq(&mut a, reg::T0, reg::A1);
    a.emit(Instr::Halt);
    a.finish()
}

/// The longest payload one run of [`char_write`] sums within the driver
/// step budget ([`GAS_LIMIT`](crate::libdriver::GAS_LIMIT)): a pristine
/// run takes `7 * len + 8` steps. Drivers checksum a longer payload in
/// pieces of at most this many bytes.
pub const CHAR_WRITE_MAX_LEN: usize = 7_141;

/// Character-device write path: `A0` = payload length at `mem[0..len)`.
/// Checks length > 0, sums payload.
pub fn char_write() -> Vec<u32> {
    let mut a = Asm::new();
    emit_assert_nonzero(&mut a, reg::A0);
    a.emit(Instr::MovImm(reg::A1, 0));
    emit_byte_sum(&mut a, reg::A1, reg::A0);
    // Postcondition: the loop consumed exactly A0 bytes.
    emit_assert_eq(&mut a, reg::T0, reg::A0);
    a.emit(Instr::Halt);
    a.finish()
}

/// Appends `factor` copies of the routine's own instruction mix *after*
/// its final `Halt` — cold code that is present in the binary but never
/// executed on the hot path.
///
/// A real driver binary is dominated by initialization, error handling and
/// ioctl paths that rarely run; the §7.2 campaign injected 12,500+ faults
/// to provoke only 347 crashes precisely because most mutations land in
/// such cold code. Padding reproduces that ratio's *shape*: mutations are
/// spread over the whole image, but only those hitting the hot prefix (or
/// redirecting control into the cold region) can crash the driver.
pub fn with_cold_section(hot: Vec<u32>, factor: usize) -> Vec<u32> {
    let mut out = hot.clone();
    for _ in 0..factor {
        out.extend_from_slice(&hot);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use phoenix_fault::vm::{Outcome, Trap, Vm};

    fn run(program: &[u32], setup: impl FnOnce(&mut Vm)) -> (Outcome, Vm) {
        let mut vm = Vm::new(2048);
        setup(&mut vm);
        let out = vm.run(program, 50_000);
        (out, vm)
    }

    #[test]
    fn disk_request_accepts_valid_and_computes_bytes() {
        let p = disk_request();
        let (out, vm) = run(&p, |vm| {
            vm.regs[reg::A0 as usize] = 100; // lba
            vm.regs[reg::A1 as usize] = 8; // count
            vm.regs[reg::A2 as usize] = 1024; // capacity
            vm.mem[0..16].copy_from_slice(&[1u8; 16]);
        });
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(vm.regs[reg::RES as usize], 8 * 512);
        assert_eq!(
            u32::from_le_bytes(vm.mem[16..20].try_into().unwrap()),
            16,
            "descriptor checksum"
        );
    }

    #[test]
    fn disk_request_rejects_zero_count_and_overflow() {
        let p = disk_request();
        let (out, _) = run(&p, |vm| {
            vm.regs[reg::A1 as usize] = 0;
            vm.regs[reg::A2 as usize] = 1024;
        });
        assert!(matches!(
            out,
            Outcome::Trapped {
                trap: Trap::Assert,
                ..
            }
        ));
        let (out, _) = run(&p, |vm| {
            vm.regs[reg::A0 as usize] = 1020;
            vm.regs[reg::A1 as usize] = 8;
            vm.regs[reg::A2 as usize] = 1024;
        });
        assert!(matches!(
            out,
            Outcome::Trapped {
                trap: Trap::Assert,
                ..
            }
        ));
        let (out, _) = run(&p, |vm| {
            vm.regs[reg::A1 as usize] = 300; // > 256
            vm.regs[reg::A2 as usize] = 100_000;
        });
        assert!(matches!(
            out,
            Outcome::Trapped {
                trap: Trap::Assert,
                ..
            }
        ));
    }

    #[test]
    fn net_rx_validates_header_and_sums_prefix() {
        let p = net_rx();
        let (out, vm) = run(&p, |vm| {
            vm.mem[0] = 1; // status OK
            vm.mem[4..8].copy_from_slice(&[10, 20, 30, 40]);
            vm.regs[reg::A0 as usize] = 4;
            vm.regs[reg::A1 as usize] = 4;
        });
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(vm.regs[reg::RES as usize], 100);
    }

    #[test]
    fn net_rx_rejects_bad_status_and_giant_frames() {
        let p = net_rx();
        let (out, _) = run(&p, |vm| {
            vm.mem[0] = 0; // bad status
            vm.regs[reg::A0 as usize] = 4;
            vm.regs[reg::A1 as usize] = 4;
        });
        assert!(matches!(
            out,
            Outcome::Trapped {
                trap: Trap::Assert,
                ..
            }
        ));
        let (out, _) = run(&p, |vm| {
            vm.mem[0] = 1;
            vm.regs[reg::A0 as usize] = 1600;
            vm.regs[reg::A1 as usize] = 64;
        });
        assert!(matches!(
            out,
            Outcome::Trapped {
                trap: Trap::Assert,
                ..
            }
        ));
    }

    #[test]
    fn net_tx_sums_prefix() {
        let p = net_tx();
        let (out, vm) = run(&p, |vm| {
            vm.mem[0..3].copy_from_slice(&[1, 2, 3]);
            vm.regs[reg::A0 as usize] = 3;
            vm.regs[reg::A1 as usize] = 3;
        });
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(vm.regs[reg::RES as usize], 6);
    }

    #[test]
    fn char_write_sums_bytes() {
        let p = char_write();
        let (out, vm) = run(&p, |vm| {
            vm.mem[0..3].copy_from_slice(&[1, 2, 3]);
            vm.regs[reg::A0 as usize] = 3;
        });
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(vm.regs[reg::RES as usize], 6);
    }

    #[test]
    fn char_write_halts_on_its_longest_payload_within_the_step_budget() {
        use crate::libdriver::GAS_LIMIT;
        let p = char_write();
        let outcome = |len: usize| {
            let mut vm = Vm::new(len + 16);
            vm.mem[..len].fill(1);
            vm.regs[reg::A0 as usize] = len as u32;
            (vm.run(&p, GAS_LIMIT), vm.regs[reg::RES as usize])
        };
        let len = CHAR_WRITE_MAX_LEN;
        let steps = 7 * len as u64 + 8;
        assert_eq!(outcome(len), (Outcome::Halted { steps }, len as u32));
        assert_eq!(outcome(len + 1).0, Outcome::OutOfGas, "the bound is tight");
    }

    #[test]
    fn routines_have_loops_and_asserts_for_the_mutator() {
        use phoenix_fault::isa::{decode, Instr};
        for p in [disk_request(), net_rx(), net_tx(), char_write()] {
            let has_assert = p.iter().any(|&w| matches!(decode(w), Instr::Assert(_)));
            let has_branch = p.iter().any(|&w| {
                matches!(
                    decode(w),
                    Instr::Jz(..) | Instr::Jnz(..) | Instr::Jlt(..) | Instr::Jge(..)
                )
            });
            let has_mem = p
                .iter()
                .any(|&w| matches!(decode(w), Instr::LoadB(..) | Instr::Store(..)));
            assert!(has_assert && has_branch && has_mem);
        }
    }
}
