//! The fault-injection virtual machine.
//!
//! Executes programs of [`crate::isa`] instructions over a small data
//! memory. Execution outcomes map one-to-one onto the paper's defect
//! classes (§5.1):
//!
//! * [`Trap::Assert`] — the driver's own sanity check fired → the driver
//!   *panics* (defect class 1, "process exit or panic");
//! * the other traps — illegal instruction, out-of-bounds access,
//!   misalignment, division by zero → the process is *killed by a CPU or
//!   MMU exception* (defect class 2);
//! * [`Outcome::OutOfGas`] — the routine never terminates → the driver is
//!   *stuck* and stops answering heartbeats (defect class 4).
//!
//! # The fused byte-sum loop
//!
//! Every driver routine checksums its payload with the same seven-word
//! loop ([`ByteSumLoop`]), which costs seven interpreted steps per byte.
//! When a `Jge` falls through, [`Vm::run`] matches the live words at its
//! `pc` against that loop and, if they are the loop and its gas and
//! bounds guards hold, runs all its iterations as one native step. The
//! outcome, the step count, the registers and the memory are what
//! stepping would leave. Nothing is cached: the words are matched afresh
//! at every entry, so a mutation anywhere in the loop makes it ordinary
//! code that is interpreted one instruction at a time.

use crate::isa::{decode, op, Instr, Reg, NUM_REGS};

/// Why execution stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trap {
    /// Undecodable instruction word.
    IllegalInstruction,
    /// Data access outside the VM memory (bad pointer).
    MemoryFault,
    /// Misaligned 32-bit access.
    Alignment,
    /// Division by zero.
    DivideByZero,
    /// An `Assert` failed: the driver's own consistency check.
    Assert,
    /// Jump target outside the program.
    BadJump,
}

/// Result of running a routine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// `Halt` reached; the routine completed (possibly with wrong results —
    /// silent data errors are *not* detectable here, just as in the paper).
    Halted {
        /// Instructions executed.
        steps: u64,
    },
    /// Execution trapped.
    Trapped {
        /// The trap kind.
        trap: Trap,
        /// Program counter at the faulting instruction.
        pc: usize,
    },
    /// The step budget ran out: an infinite (or pathologically long) loop.
    OutOfGas,
}

impl Outcome {
    /// `true` if the routine completed normally.
    pub fn is_ok(self) -> bool {
        matches!(self, Outcome::Halted { .. })
    }
}

/// The registers of a byte-sum loop whose head is at `pc`:
///
/// ```text
/// pc+0  Jge    i, n, exit   ; while i < n
/// pc+1  Mov    x, b
/// pc+2  Add    x, i
/// pc+3  LoadB  y, x, imm    ;   y = mem8[b + i + imm]
/// pc+4  Add    acc, y
/// pc+5  AddImm i, 1
/// pc+6  Jmp    pc
/// ```
///
/// `i`, `n`, `b`, `x` and `acc` are pairwise distinct and `y` is none of
/// `i`, `n`, `b` or `acc` (it may be `x`); otherwise one iteration would
/// change what the next reads, and the loop is not a byte sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ByteSumLoop {
    /// The index, counting up to `n`.
    pub i: Reg,
    /// The end of the index range.
    pub n: Reg,
    /// The base address.
    pub b: Reg,
    /// The address register, `b + i`.
    pub x: Reg,
    /// The byte loaded.
    pub y: Reg,
    /// The sum.
    pub acc: Reg,
    /// The load's displacement.
    pub imm: u16,
    /// Where the loop exits to.
    pub exit: usize,
}

/// Matches the seven words at `pc` against [`ByteSumLoop`]: `Some` iff
/// they decode to that loop with its register guards met. The words are
/// compared under masks, field for field what [`decode`] reads: opcode
/// and reserved bits always, a register or immediate only where the
/// instruction uses it.
pub fn byte_sum_loop(program: &[u32], pc: usize) -> Option<ByteSumLoop> {
    const OPCODE_RSVD: u32 = 0xFC0F_0000;
    const DST: u32 = 0x7 << 23;
    const SRC: u32 = 0x7 << 20;
    let reg = |w: u32, shift: u32| ((w >> shift) & 0x7) as Reg;
    let at = |r: Reg, shift: u32| u32::from(r) << shift;
    let [jge, mov, add_x, loadb, add_acc, inc, jmp] = *program.get(pc..pc.checked_add(7)?)? else {
        return None;
    };
    if jge & OPCODE_RSVD != op::JGE << 26 || mov & OPCODE_RSVD != op::MOV << 26 {
        return None;
    }
    let (i, n, exit) = (reg(jge, 23), reg(jge, 20), (jge & 0xFFFF) as usize);
    let (x, b) = (reg(mov, 23), reg(mov, 20));
    if add_x & (OPCODE_RSVD | DST | SRC) != op::ADD << 26 | at(x, 23) | at(i, 20)
        || loadb & (OPCODE_RSVD | SRC) != op::LOADB << 26 | at(x, 20)
    {
        return None;
    }
    let (y, imm) = (reg(loadb, 23), (loadb & 0xFFFF) as u16);
    if add_acc & (OPCODE_RSVD | SRC) != op::ADD << 26 | at(y, 20)
        || inc & (OPCODE_RSVD | DST | 0xFFFF) != op::ADDI << 26 | at(i, 23) | 1
        || jmp & OPCODE_RSVD != op::JMP << 26
        || (jmp & 0xFFFF) as usize != pc
    {
        return None;
    }
    let acc = reg(add_acc, 23);
    let distinct = [i, n, b, x, acc].iter().fold(0u8, |set, &r| set | 1 << r);
    let guarded = 1 << i | 1 << n | 1 << b | 1 << acc;
    if distinct.count_ones() != 5 || guarded & 1 << y != 0 {
        return None;
    }
    Some(ByteSumLoop {
        i,
        n,
        b,
        x,
        y,
        acc,
        imm,
        exit,
    })
}

/// VM execution state: eight registers plus a byte-addressed data memory.
#[derive(Debug, Clone)]
pub struct Vm {
    /// General-purpose registers.
    pub regs: [u32; NUM_REGS],
    /// Data memory.
    pub mem: Vec<u8>,
}

impl Vm {
    /// Creates a VM with zeroed registers and `mem_size` bytes of memory.
    pub fn new(mem_size: usize) -> Self {
        Vm {
            regs: [0; NUM_REGS],
            mem: vec![0; mem_size],
        }
    }

    /// Puts the VM back in the state [`Vm::new`]`(mem_size)` returns —
    /// zeroed registers, exactly `mem_size` zero bytes of memory — keeping
    /// the memory's allocation, so a VM run again and again allocates
    /// only when `mem_size` outgrows every earlier one.
    pub fn reset_to(&mut self, mem_size: usize) {
        self.regs = [0; NUM_REGS];
        self.mem.clear();
        self.mem.resize(mem_size, 0);
    }

    fn load32(&self, addr: u32) -> Result<u32, Trap> {
        if !addr.is_multiple_of(4) {
            return Err(Trap::Alignment);
        }
        let a = addr as usize;
        let bytes = self.mem.get(a..a + 4).ok_or(Trap::MemoryFault)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn store32(&mut self, addr: u32, v: u32) -> Result<(), Trap> {
        if !addr.is_multiple_of(4) {
            return Err(Trap::Alignment);
        }
        let a = addr as usize;
        let slot = self.mem.get_mut(a..a + 4).ok_or(Trap::MemoryFault)?;
        slot.copy_from_slice(&v.to_le_bytes());
        Ok(())
    }

    /// Runs the whole of loop `l`, whose `Jge` has just fallen through, as
    /// stepping would, and returns the steps it costs beyond that `Jge`:
    /// six per iteration, one per later `Jge`, `7k` for `k = n − i`
    /// iterations. `None`, with nothing changed, if they are more than
    /// `gas` or a load would leave memory: stepping then reaches the
    /// `OutOfGas` or the trap at its own step and `pc`.
    fn byte_sum(&mut self, l: ByteSumLoop, gas: u64) -> Option<u64> {
        let (i, n) = (self.regs[l.i as usize], self.regs[l.n as usize]);
        let k = n - i;
        let steps = 7 * u64::from(k);
        if steps > gas {
            return None;
        }
        let base = self.regs[l.b as usize];
        // The iteration with index j (i <= j < n) loads `base + j + imm`,
        // wrapping like the VM's own address arithmetic; a range that
        // wraps is never inside memory.
        let start = base.wrapping_add(i).wrapping_add(u32::from(l.imm));
        let bytes = self
            .mem
            .get(start as usize..start.checked_add(k)? as usize)?;
        let sum = bytes
            .iter()
            .fold(0u32, |s, &v| s.wrapping_add(u32::from(v)));
        let last = u32::from(bytes[bytes.len() - 1]);
        let regs = &mut self.regs;
        regs[l.acc as usize] = regs[l.acc as usize].wrapping_add(sum);
        regs[l.i as usize] = n;
        // `y` after `x`: where they are one register, the load wins.
        regs[l.x as usize] = base.wrapping_add(n - 1);
        regs[l.y as usize] = last;
        Some(steps)
    }

    /// Runs `program` from instruction 0 until `Halt`, a trap, or `max_steps`.
    ///
    /// A [`ByteSumLoop`] whose guards hold runs as one step of the loop
    /// below (see the module docs); everything else is interpreted one
    /// instruction per step.
    pub fn run(&mut self, program: &[u32], max_steps: u64) -> Outcome {
        let mut pc = 0usize;
        let mut steps = 0u64;
        loop {
            if steps >= max_steps {
                return Outcome::OutOfGas;
            }
            let Some(&word) = program.get(pc) else {
                // Fell off the end of the routine: wild control flow.
                return Outcome::Trapped {
                    trap: Trap::BadJump,
                    pc,
                };
            };
            steps += 1;
            let fault = |trap| Outcome::Trapped { trap, pc };
            let mut next = pc + 1;
            match decode(word) {
                Instr::Nop => {}
                Instr::MovImm(d, imm) => self.regs[d as usize] = u32::from(imm),
                Instr::Mov(d, s) => self.regs[d as usize] = self.regs[s as usize],
                Instr::Add(d, s) => {
                    self.regs[d as usize] =
                        self.regs[d as usize].wrapping_add(self.regs[s as usize]);
                }
                Instr::AddImm(d, imm) => {
                    self.regs[d as usize] = self.regs[d as usize].wrapping_add(u32::from(imm));
                }
                Instr::Sub(d, s) => {
                    self.regs[d as usize] =
                        self.regs[d as usize].wrapping_sub(self.regs[s as usize]);
                }
                Instr::Mul(d, s) => {
                    self.regs[d as usize] =
                        self.regs[d as usize].wrapping_mul(self.regs[s as usize]);
                }
                Instr::Div(d, s) => {
                    let divisor = self.regs[s as usize];
                    if divisor == 0 {
                        return fault(Trap::DivideByZero);
                    }
                    self.regs[d as usize] /= divisor;
                }
                Instr::And(d, s) => self.regs[d as usize] &= self.regs[s as usize],
                Instr::Or(d, s) => self.regs[d as usize] |= self.regs[s as usize],
                Instr::Xor(d, s) => self.regs[d as usize] ^= self.regs[s as usize],
                Instr::Shl(d, imm) => {
                    self.regs[d as usize] = self.regs[d as usize].wrapping_shl(u32::from(imm));
                }
                Instr::Shr(d, imm) => {
                    self.regs[d as usize] = self.regs[d as usize].wrapping_shr(u32::from(imm));
                }
                Instr::Load(d, s, imm) => {
                    let addr = self.regs[s as usize].wrapping_add(u32::from(imm));
                    match self.load32(addr) {
                        Ok(v) => self.regs[d as usize] = v,
                        Err(t) => return fault(t),
                    }
                }
                Instr::Store(d, s, imm) => {
                    let addr = self.regs[d as usize].wrapping_add(u32::from(imm));
                    let v = self.regs[s as usize];
                    if let Err(t) = self.store32(addr, v) {
                        return fault(t);
                    }
                }
                Instr::LoadB(d, s, imm) => {
                    let addr = self.regs[s as usize].wrapping_add(u32::from(imm)) as usize;
                    match self.mem.get(addr) {
                        Some(&b) => self.regs[d as usize] = u32::from(b),
                        None => return fault(Trap::MemoryFault),
                    }
                }
                Instr::StoreB(d, s, imm) => {
                    let addr = self.regs[d as usize].wrapping_add(u32::from(imm)) as usize;
                    let v = self.regs[s as usize] as u8;
                    match self.mem.get_mut(addr) {
                        Some(b) => *b = v,
                        None => return fault(Trap::MemoryFault),
                    }
                }
                Instr::Jmp(t) => next = usize::from(t),
                Instr::Jz(s, t) => {
                    if self.regs[s as usize] == 0 {
                        next = usize::from(t);
                    }
                }
                Instr::Jnz(s, t) => {
                    if self.regs[s as usize] != 0 {
                        next = usize::from(t);
                    }
                }
                Instr::Jlt(d, s, t) => {
                    if self.regs[d as usize] < self.regs[s as usize] {
                        next = usize::from(t);
                    }
                }
                Instr::Jge(d, s, t) => {
                    if self.regs[d as usize] >= self.regs[s as usize] {
                        next = usize::from(t);
                    } else if let Some(l) = byte_sum_loop(program, pc) {
                        if let Some(more) = self.byte_sum(l, max_steps - steps) {
                            steps += more;
                            next = l.exit;
                        }
                    }
                }
                Instr::Assert(s) => {
                    if self.regs[s as usize] == 0 {
                        return fault(Trap::Assert);
                    }
                }
                Instr::Halt => return Outcome::Halted { steps },
                Instr::Invalid(_) => return fault(Trap::IllegalInstruction),
            }
            pc = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{Asm, Instr};

    fn checksum_program() -> Vec<u32> {
        // R0 = len, R1 = base; returns sum of bytes in R2.
        let mut a = Asm::new();
        let top = a.label();
        let done = a.label();
        a.emit(Instr::MovImm(2, 0));
        a.emit(Instr::MovImm(3, 0));
        a.bind(top);
        a.jge_to(3, 0, done);
        a.emit(Instr::Mov(4, 1));
        a.emit(Instr::Add(4, 3));
        a.emit(Instr::Mov(5, 4));
        a.emit(Instr::LoadB(6, 5, 0));
        a.emit(Instr::Add(2, 6));
        a.emit(Instr::AddImm(3, 1));
        a.jmp_to(top);
        a.bind(done);
        a.emit(Instr::Halt);
        a.finish()
    }

    #[test]
    fn checksum_computes_byte_sum() {
        let p = checksum_program();
        let mut vm = Vm::new(64);
        vm.mem[8..12].copy_from_slice(&[1, 2, 3, 4]);
        vm.regs[0] = 4; // len
        vm.regs[1] = 8; // base
        let out = vm.run(&p, 10_000);
        assert!(out.is_ok(), "{out:?}");
        assert_eq!(vm.regs[2], 10);
    }

    #[test]
    fn out_of_bounds_load_traps_memory_fault() {
        let p = vec![
            crate::isa::encode(Instr::LoadB(0, 1, 0)),
            crate::isa::encode(Instr::Halt),
        ];
        let mut vm = Vm::new(16);
        vm.regs[1] = 1000;
        assert_eq!(
            vm.run(&p, 100),
            Outcome::Trapped {
                trap: Trap::MemoryFault,
                pc: 0
            }
        );
    }

    #[test]
    fn misaligned_word_access_traps() {
        let p = vec![
            crate::isa::encode(Instr::Load(0, 1, 1)),
            crate::isa::encode(Instr::Halt),
        ];
        let mut vm = Vm::new(16);
        assert_eq!(
            vm.run(&p, 100),
            Outcome::Trapped {
                trap: Trap::Alignment,
                pc: 0
            }
        );
    }

    #[test]
    fn divide_by_zero_traps() {
        let p = vec![
            crate::isa::encode(Instr::Div(0, 1)),
            crate::isa::encode(Instr::Halt),
        ];
        let mut vm = Vm::new(4);
        assert_eq!(
            vm.run(&p, 100),
            Outcome::Trapped {
                trap: Trap::DivideByZero,
                pc: 0
            }
        );
    }

    #[test]
    fn failed_assert_traps_as_panic() {
        let p = vec![
            crate::isa::encode(Instr::Assert(3)),
            crate::isa::encode(Instr::Halt),
        ];
        let mut vm = Vm::new(4);
        assert_eq!(
            vm.run(&p, 100),
            Outcome::Trapped {
                trap: Trap::Assert,
                pc: 0
            }
        );
        let mut vm2 = Vm::new(4);
        vm2.regs[3] = 1;
        assert!(vm2.run(&p, 100).is_ok());
    }

    #[test]
    fn infinite_loop_runs_out_of_gas() {
        let p = vec![crate::isa::encode(Instr::Jmp(0))];
        let mut vm = Vm::new(4);
        assert_eq!(vm.run(&p, 1_000), Outcome::OutOfGas);
    }

    #[test]
    fn falling_off_the_end_is_a_bad_jump() {
        let p = vec![crate::isa::encode(Instr::Nop)];
        let mut vm = Vm::new(4);
        assert_eq!(
            vm.run(&p, 100),
            Outcome::Trapped {
                trap: Trap::BadJump,
                pc: 1
            }
        );
    }

    #[test]
    fn illegal_instruction_traps() {
        let p = vec![0xFFFF_FFFF];
        let mut vm = Vm::new(4);
        assert_eq!(
            vm.run(&p, 100),
            Outcome::Trapped {
                trap: Trap::IllegalInstruction,
                pc: 0
            }
        );
    }

    #[test]
    fn reset_leaves_what_new_returns() {
        let mut vm = Vm::new(8);
        vm.regs = [7; NUM_REGS];
        vm.mem.fill(0xAB);
        for size in [4, 16, 0, 9] {
            vm.reset_to(size);
            let fresh = Vm::new(size);
            assert_eq!((vm.regs, &vm.mem), (fresh.regs, &fresh.mem));
            vm.regs[3] = 1;
            vm.mem.fill(0xCD);
        }
    }

    #[test]
    fn execution_is_deterministic() {
        let p = checksum_program();
        let run = || {
            let mut vm = Vm::new(32);
            vm.mem[0..4].copy_from_slice(&[9, 9, 9, 9]);
            vm.regs[0] = 4;
            (vm.run(&p, 1000), vm.regs)
        };
        assert_eq!(run(), run());
    }
}
