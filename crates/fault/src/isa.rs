//! Instruction set of the fault-injection VM.
//!
//! Driver hot paths are compiled to this tiny 32-bit RISC so the fault
//! injector can mutate *binary code*, like the injectors the paper builds
//! on (Ng & Chen's and Nooks', §7.2). Each instruction is one `u32` word:
//!
//! ```text
//!  31        26 25  23 22  20 19  16 15            0
//! +------------+------+------+------+----------------+
//! |   opcode   | dst  | src  | rsvd |      imm       |
//! +------------+------+------+------+----------------+
//! ```
//!
//! Decoding is total but validated: unknown opcodes or non-zero reserved
//! bits decode to [`Instr::Invalid`], which traps as an illegal
//! instruction — exactly what a bit-flipped opcode does on real hardware.

/// Number of general-purpose registers.
pub const NUM_REGS: usize = 8;

/// A register index (0..8).
pub type Reg = u8;

/// Decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// No operation.
    Nop,
    /// `dst = imm` (zero-extended).
    MovImm(Reg, u16),
    /// `dst = src`.
    Mov(Reg, Reg),
    /// `dst = dst + src` (wrapping).
    Add(Reg, Reg),
    /// `dst = dst + imm` (wrapping).
    AddImm(Reg, u16),
    /// `dst = dst - src` (wrapping).
    Sub(Reg, Reg),
    /// `dst = dst * src` (wrapping).
    Mul(Reg, Reg),
    /// `dst = dst / src`; traps on division by zero.
    Div(Reg, Reg),
    /// `dst = dst & src`.
    And(Reg, Reg),
    /// `dst = dst | src`.
    Or(Reg, Reg),
    /// `dst = dst ^ src`.
    Xor(Reg, Reg),
    /// `dst = dst << imm`.
    Shl(Reg, u16),
    /// `dst = dst >> imm`.
    Shr(Reg, u16),
    /// `dst = mem32[src + imm]`; traps on out-of-bounds or misalignment.
    Load(Reg, Reg, u16),
    /// `mem32[dst + imm] = src`; traps on out-of-bounds or misalignment.
    Store(Reg, Reg, u16),
    /// `dst = mem8[src + imm]`; traps on out-of-bounds.
    LoadB(Reg, Reg, u16),
    /// `mem8[dst + imm] = src as u8`; traps on out-of-bounds.
    StoreB(Reg, Reg, u16),
    /// Unconditional jump to absolute instruction index `imm`.
    Jmp(u16),
    /// Jump to `imm` if `src == 0`.
    Jz(Reg, u16),
    /// Jump to `imm` if `src != 0`.
    Jnz(Reg, u16),
    /// Jump to `imm` if `dst < src` (unsigned).
    Jlt(Reg, Reg, u16),
    /// Jump to `imm` if `dst >= src` (unsigned).
    Jge(Reg, Reg, u16),
    /// Driver sanity check: trap with a panic if `src == 0`.
    Assert(Reg),
    /// Successful end of the routine.
    Halt,
    /// Undecodable word; traps as an illegal instruction.
    Invalid(u32),
}

/// Opcode numbers, bits 31..26 of a word.
pub(crate) mod op {
    pub const NOP: u32 = 0;
    pub const MOVI: u32 = 1;
    pub const MOV: u32 = 2;
    pub const ADD: u32 = 3;
    pub const ADDI: u32 = 4;
    pub const SUB: u32 = 5;
    pub const MUL: u32 = 6;
    pub const DIV: u32 = 7;
    pub const AND: u32 = 8;
    pub const OR: u32 = 9;
    pub const XOR: u32 = 10;
    pub const SHL: u32 = 11;
    pub const SHR: u32 = 12;
    pub const LOAD: u32 = 13;
    pub const STORE: u32 = 14;
    pub const LOADB: u32 = 15;
    pub const STOREB: u32 = 16;
    pub const JMP: u32 = 17;
    pub const JZ: u32 = 18;
    pub const JNZ: u32 = 19;
    pub const JLT: u32 = 20;
    pub const JGE: u32 = 21;
    pub const ASSERT: u32 = 22;
    pub const HALT: u32 = 23;
    pub const MAX: u32 = 23;
}

fn pack(opcode: u32, dst: Reg, src: Reg, imm: u16) -> u32 {
    debug_assert!(opcode <= op::MAX);
    debug_assert!((dst as usize) < NUM_REGS && (src as usize) < NUM_REGS);
    (opcode << 26) | (u32::from(dst) << 23) | (u32::from(src) << 20) | u32::from(imm)
}

/// Encodes an instruction to its 32-bit word.
pub fn encode(i: Instr) -> u32 {
    use Instr::*;
    match i {
        Nop => pack(op::NOP, 0, 0, 0),
        MovImm(d, imm) => pack(op::MOVI, d, 0, imm),
        Mov(d, s) => pack(op::MOV, d, s, 0),
        Add(d, s) => pack(op::ADD, d, s, 0),
        AddImm(d, imm) => pack(op::ADDI, d, 0, imm),
        Sub(d, s) => pack(op::SUB, d, s, 0),
        Mul(d, s) => pack(op::MUL, d, s, 0),
        Div(d, s) => pack(op::DIV, d, s, 0),
        And(d, s) => pack(op::AND, d, s, 0),
        Or(d, s) => pack(op::OR, d, s, 0),
        Xor(d, s) => pack(op::XOR, d, s, 0),
        Shl(d, imm) => pack(op::SHL, d, 0, imm),
        Shr(d, imm) => pack(op::SHR, d, 0, imm),
        Load(d, s, imm) => pack(op::LOAD, d, s, imm),
        Store(d, s, imm) => pack(op::STORE, d, s, imm),
        LoadB(d, s, imm) => pack(op::LOADB, d, s, imm),
        StoreB(d, s, imm) => pack(op::STOREB, d, s, imm),
        Jmp(imm) => pack(op::JMP, 0, 0, imm),
        Jz(s, imm) => pack(op::JZ, 0, s, imm),
        Jnz(s, imm) => pack(op::JNZ, 0, s, imm),
        Jlt(d, s, imm) => pack(op::JLT, d, s, imm),
        Jge(d, s, imm) => pack(op::JGE, d, s, imm),
        Assert(s) => pack(op::ASSERT, 0, s, 0),
        Halt => pack(op::HALT, 0, 0, 0),
        Invalid(w) => w,
    }
}

/// Decodes a 32-bit word; undecodable words become [`Instr::Invalid`].
pub fn decode(w: u32) -> Instr {
    use Instr::*;
    let opcode = w >> 26;
    let dst = ((w >> 23) & 0x7) as Reg;
    let src = ((w >> 20) & 0x7) as Reg;
    let rsvd = (w >> 16) & 0xF;
    let imm = (w & 0xFFFF) as u16;
    if rsvd != 0 {
        return Invalid(w);
    }
    match opcode {
        op::NOP if dst == 0 && src == 0 && imm == 0 => Nop,
        op::NOP => Invalid(w),
        op::MOVI => MovImm(dst, imm),
        op::MOV => Mov(dst, src),
        op::ADD => Add(dst, src),
        op::ADDI => AddImm(dst, imm),
        op::SUB => Sub(dst, src),
        op::MUL => Mul(dst, src),
        op::DIV => Div(dst, src),
        op::AND => And(dst, src),
        op::OR => Or(dst, src),
        op::XOR => Xor(dst, src),
        op::SHL => Shl(dst, imm),
        op::SHR => Shr(dst, imm),
        op::LOAD => Load(dst, src, imm),
        op::STORE => Store(dst, src, imm),
        op::LOADB => LoadB(dst, src, imm),
        op::STOREB => StoreB(dst, src, imm),
        op::JMP => Jmp(imm),
        op::JZ => Jz(src, imm),
        op::JNZ => Jnz(src, imm),
        op::JLT => Jlt(dst, src, imm),
        op::JGE => Jge(dst, src, imm),
        op::ASSERT => Assert(src),
        op::HALT => Halt,
        _ => Invalid(w),
    }
}

/// A forward-reference label handed out by [`Asm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Label(usize);

/// Two-pass assembler with labels.
///
/// # Example
///
/// ```
/// use phoenix_fault::isa::{Asm, Instr};
///
/// // Sum bytes 0..len (len in R0, base in R1) into R2.
/// let mut a = Asm::new();
/// let top = a.label();
/// let done = a.label();
/// a.emit(Instr::MovImm(2, 0)); // acc = 0
/// a.emit(Instr::MovImm(3, 0)); // i = 0
/// a.bind(top);
/// a.jge_to(3, 0, done); // while i < len
/// a.emit(Instr::LoadB(4, 1, 0)); // tmp = mem[base] -- base advanced below
/// a.emit(Instr::Add(2, 4));
/// a.emit(Instr::AddImm(1, 1));
/// a.emit(Instr::AddImm(3, 1));
/// a.jmp_to(top);
/// a.bind(done);
/// a.emit(Instr::Halt);
/// let program = a.finish();
/// assert!(program.len() == 9);
/// ```
#[derive(Debug, Default)]
pub struct Asm {
    words: Vec<u32>,
    labels: Vec<Option<u16>>,
    fixups: Vec<(usize, Label)>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.words.len() as u16);
    }

    /// Current instruction index.
    pub fn here(&self) -> usize {
        self.words.len()
    }

    /// Emits an instruction.
    pub fn emit(&mut self, i: Instr) -> &mut Self {
        self.words.push(encode(i));
        self
    }

    fn emit_jump(&mut self, i: Instr, label: Label) {
        self.fixups.push((self.words.len(), label));
        self.emit(i);
    }

    /// Emits `Jmp` to a label.
    pub fn jmp_to(&mut self, label: Label) {
        self.emit_jump(Instr::Jmp(0), label);
    }

    /// Emits `Jge dst, src, label`.
    pub fn jge_to(&mut self, dst: Reg, src: Reg, label: Label) {
        self.emit_jump(Instr::Jge(dst, src, 0), label);
    }

    /// Resolves labels and returns the program words.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label is unbound.
    pub fn finish(mut self) -> Vec<u32> {
        for (pos, label) in &self.fixups {
            // analyze:allow(panic-reach): assembler invariant over the
            // static built-in firmware programs — every label they
            // reference is bound before finish(); no runtime input
            // reaches the assembler.
            let target = self.labels[label.0].expect("unbound label referenced");
            self.words[*pos] = (self.words[*pos] & 0xFFFF_0000) | u32::from(target);
        }
        self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_variant() {
        let all = [
            Instr::Nop,
            Instr::MovImm(3, 0xBEEF),
            Instr::Mov(1, 2),
            Instr::Add(7, 6),
            Instr::AddImm(0, 9),
            Instr::Sub(2, 3),
            Instr::Mul(4, 5),
            Instr::Div(1, 1),
            Instr::And(0, 7),
            Instr::Or(5, 2),
            Instr::Xor(3, 3),
            Instr::Shl(2, 4),
            Instr::Shr(6, 1),
            Instr::Load(1, 2, 100),
            Instr::Store(3, 4, 8),
            Instr::LoadB(5, 6, 1),
            Instr::StoreB(7, 0, 2),
            Instr::Jmp(77),
            Instr::Jz(1, 5),
            Instr::Jnz(2, 6),
            Instr::Jlt(3, 4, 7),
            Instr::Jge(5, 6, 8),
            Instr::Assert(4),
            Instr::Halt,
        ];
        for i in all {
            assert_eq!(decode(encode(i)), i, "{i:?}");
        }
    }

    #[test]
    fn bad_opcode_decodes_invalid() {
        let w = 63 << 26;
        assert_eq!(decode(w), Instr::Invalid(w));
    }

    #[test]
    fn nonzero_reserved_bits_decode_invalid() {
        let w = encode(Instr::Add(1, 2)) | (1 << 17);
        assert_eq!(decode(w), Instr::Invalid(w));
    }

    #[test]
    fn assembler_resolves_forward_and_backward_labels() {
        let mut a = Asm::new();
        let top = a.label();
        let end = a.label();
        a.bind(top);
        a.emit(Instr::AddImm(0, 1));
        a.jge_to(1, 2, end); // forward
        a.jmp_to(top); // backward
        a.bind(end);
        a.emit(Instr::Halt);
        let p = a.finish();
        assert_eq!(decode(p[1]), Instr::Jge(1, 2, 3));
        assert_eq!(decode(p[2]), Instr::Jmp(0));
        assert_eq!(decode(p[3]), Instr::Halt);
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.jmp_to(l);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "label bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new();
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }
}
