//! A small eBPF assembler with label resolution.
//!
//! vNetTracer's control-plane compiles filter rules and actions into eBPF
//! bytecode; this assembler is what that compiler (and tests) use to emit
//! instructions without hand-computing jump offsets.
//!
//! # Examples
//!
//! ```
//! use vnet_ebpf::asm::{Asm, Cond, Size, reg::*};
//!
//! // return ctx.pkt_len >= 100 ? 1 : 0   (pkt_len at ctx offset 8)
//! let prog = Asm::new()
//!     .ldx(Size::W, R2, R1, 8)
//!     .jmp_imm(Cond::Ge, R2, 100, "big")
//!     .mov64_imm(R0, 0)
//!     .exit()
//!     .label("big")
//!     .mov64_imm(R0, 1)
//!     .exit()
//!     .build()
//!     .unwrap();
//! assert_eq!(prog.len(), 6);
//! ```

use std::collections::HashMap;

use crate::insn::*;

/// Register name constants (`R0`–`R10`).
pub mod reg {
    /// Return value / scratch.
    pub const R0: u8 = 0;
    /// First argument / context pointer.
    pub const R1: u8 = 1;
    /// Second argument.
    pub const R2: u8 = 2;
    /// Third argument.
    pub const R3: u8 = 3;
    /// Fourth argument.
    pub const R4: u8 = 4;
    /// Fifth argument.
    pub const R5: u8 = 5;
    /// Callee-saved.
    pub const R6: u8 = 6;
    /// Callee-saved.
    pub const R7: u8 = 7;
    /// Callee-saved.
    pub const R8: u8 = 8;
    /// Callee-saved.
    pub const R9: u8 = 9;
    /// Frame pointer (read-only).
    pub const R10: u8 = 10;
}

/// Access size for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// 1 byte.
    B,
    /// 2 bytes.
    H,
    /// 4 bytes.
    W,
    /// 8 bytes.
    DW,
}

impl Size {
    fn bits(self) -> u8 {
        match self {
            Size::W => BPF_W,
            Size::H => BPF_H,
            Size::B => BPF_B,
            Size::DW => BPF_DW,
        }
    }
}

/// Jump condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// `dst & src != 0`.
    Set,
    /// Signed greater-than.
    SGt,
    /// Signed greater-or-equal.
    SGe,
    /// Signed less-than.
    SLt,
    /// Signed less-or-equal.
    SLe,
}

impl Cond {
    fn bits(self) -> u8 {
        match self {
            Cond::Eq => BPF_JEQ,
            Cond::Ne => BPF_JNE,
            Cond::Gt => BPF_JGT,
            Cond::Ge => BPF_JGE,
            Cond::Lt => BPF_JLT,
            Cond::Le => BPF_JLE,
            Cond::Set => BPF_JSET,
            Cond::SGt => BPF_JSGT,
            Cond::SGe => BPF_JSGE,
            Cond::SLt => BPF_JSLT,
            Cond::SLe => BPF_JSLE,
        }
    }
}

/// ALU operation for the generic [`Asm::alu64`] / [`Asm::alu64_imm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Unsigned division.
    Div,
    /// Bitwise OR.
    Or,
    /// Bitwise AND.
    And,
    /// Left shift.
    Lsh,
    /// Logical right shift.
    Rsh,
    /// Unsigned modulo.
    Mod,
    /// Bitwise XOR.
    Xor,
    /// Arithmetic right shift.
    Arsh,
}

impl AluOp {
    fn bits(self) -> u8 {
        match self {
            AluOp::Add => BPF_ADD,
            AluOp::Sub => BPF_SUB,
            AluOp::Mul => BPF_MUL,
            AluOp::Div => BPF_DIV,
            AluOp::Or => BPF_OR,
            AluOp::And => BPF_AND,
            AluOp::Lsh => BPF_LSH,
            AluOp::Rsh => BPF_RSH,
            AluOp::Mod => BPF_MOD,
            AluOp::Xor => BPF_XOR,
            AluOp::Arsh => BPF_ARSH,
        }
    }
}

/// Error produced when assembling fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A jump referenced a label that was never defined.
    UndefinedLabel(String),
    /// A label was defined more than once.
    DuplicateLabel(String),
    /// A jump offset did not fit in 16 bits.
    JumpOutOfRange(String),
}

impl core::fmt::Display for AsmError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AsmError::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmError::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmError::JumpOutOfRange(l) => write!(f, "jump to `{l}` out of 16-bit range"),
        }
    }
}

impl std::error::Error for AsmError {}

#[derive(Debug, Clone)]
struct Fixup {
    insn_index: usize,
    label: String,
}

/// The assembler: a builder accumulating instructions and resolving labels
/// at [`Asm::build`] time.
#[derive(Debug, Clone, Default)]
pub struct Asm {
    insns: Vec<Insn>,
    labels: HashMap<String, usize>,
    fixups: Vec<Fixup>,
}

impl Asm {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Defines a label at the current position.
    pub fn label(mut self, name: &str) -> Self {
        // Duplicates detected at build time so the builder stays infallible.
        if self
            .labels
            .insert(name.to_owned(), self.insns.len())
            .is_some()
        {
            self.labels.insert(format!("__dup__{name}"), usize::MAX);
            self.fixups.push(Fixup {
                insn_index: usize::MAX,
                label: name.to_owned(),
            });
        }
        self
    }

    /// Emits a raw instruction.
    pub fn raw(mut self, insn: Insn) -> Self {
        self.insns.push(insn);
        self
    }

    // --- Moves ---

    /// `dst = imm` (64-bit).
    pub fn mov64_imm(self, dst: u8, imm: i32) -> Self {
        self.raw(Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, dst, 0, 0, imm))
    }

    /// `dst = src` (64-bit).
    pub fn mov64(self, dst: u8, src: u8) -> Self {
        self.raw(Insn::new(BPF_ALU64 | BPF_MOV | BPF_X, dst, src, 0, 0))
    }

    /// `dst = imm` (32-bit, upper half cleared).
    pub fn mov32_imm(self, dst: u8, imm: i32) -> Self {
        self.raw(Insn::new(BPF_ALU | BPF_MOV | BPF_K, dst, 0, 0, imm))
    }

    /// Loads a map fd as a 64-bit pseudo value (two slots), the form the
    /// loader relocates to a live map reference.
    pub fn ld_map_fd(self, dst: u8, fd: i32) -> Self {
        self.raw(Insn::new(
            BPF_LD | BPF_IMM | BPF_DW,
            dst,
            PSEUDO_MAP_FD,
            0,
            fd,
        ))
        .raw(Insn::new(0, 0, 0, 0, 0))
    }

    // --- ALU ---

    /// Generic 64-bit ALU with register operand.
    pub fn alu64(self, op: AluOp, dst: u8, src: u8) -> Self {
        self.raw(Insn::new(BPF_ALU64 | op.bits() | BPF_X, dst, src, 0, 0))
    }

    /// Generic 64-bit ALU with immediate operand.
    pub fn alu64_imm(self, op: AluOp, dst: u8, imm: i32) -> Self {
        self.raw(Insn::new(BPF_ALU64 | op.bits() | BPF_K, dst, 0, 0, imm))
    }

    /// `dst += imm`.
    pub fn add64_imm(self, dst: u8, imm: i32) -> Self {
        self.alu64_imm(AluOp::Add, dst, imm)
    }

    /// `dst += src`.
    pub fn add64(self, dst: u8, src: u8) -> Self {
        self.alu64(AluOp::Add, dst, src)
    }

    /// `dst = htobe16(dst)`.
    pub fn be16(self, dst: u8) -> Self {
        self.raw(Insn::new(BPF_ALU | BPF_END | BPF_X, dst, 0, 0, 16))
    }

    /// `dst = htobe32(dst)`.
    pub fn be32(self, dst: u8) -> Self {
        self.raw(Insn::new(BPF_ALU | BPF_END | BPF_X, dst, 0, 0, 32))
    }

    // --- Memory ---

    /// `dst = *(size*)(src + off)`.
    pub fn ldx(self, size: Size, dst: u8, src: u8, off: i16) -> Self {
        self.raw(Insn::new(BPF_LDX | BPF_MEM | size.bits(), dst, src, off, 0))
    }

    /// `*(size*)(dst + off) = src`.
    pub fn stx(self, size: Size, dst: u8, src: u8, off: i16) -> Self {
        self.raw(Insn::new(BPF_STX | BPF_MEM | size.bits(), dst, src, off, 0))
    }

    /// `*(size*)(dst + off) = imm`.
    pub fn st(self, size: Size, dst: u8, off: i16, imm: i32) -> Self {
        self.raw(Insn::new(BPF_ST | BPF_MEM | size.bits(), dst, 0, off, imm))
    }

    // --- Control flow ---

    /// Unconditional jump to `label`.
    pub fn jump(mut self, label: &str) -> Self {
        self.fixups.push(Fixup {
            insn_index: self.insns.len(),
            label: label.to_owned(),
        });
        self.insns.push(Insn::new(BPF_JMP | BPF_JA, 0, 0, 0, 0));
        self
    }

    /// Conditional jump comparing `reg` against an immediate.
    pub fn jmp_imm(mut self, cond: Cond, reg: u8, imm: i32, label: &str) -> Self {
        self.fixups.push(Fixup {
            insn_index: self.insns.len(),
            label: label.to_owned(),
        });
        self.insns
            .push(Insn::new(BPF_JMP | cond.bits() | BPF_K, reg, 0, 0, imm));
        self
    }

    /// Conditional jump comparing two registers.
    pub fn jmp_reg(mut self, cond: Cond, dst: u8, src: u8, label: &str) -> Self {
        self.fixups.push(Fixup {
            insn_index: self.insns.len(),
            label: label.to_owned(),
        });
        self.insns
            .push(Insn::new(BPF_JMP | cond.bits() | BPF_X, dst, src, 0, 0));
        self
    }

    /// Conditional 32-bit jump comparing `reg` against an immediate.
    pub fn jmp32_imm(mut self, cond: Cond, reg: u8, imm: i32, label: &str) -> Self {
        self.fixups.push(Fixup {
            insn_index: self.insns.len(),
            label: label.to_owned(),
        });
        self.insns
            .push(Insn::new(BPF_JMP32 | cond.bits() | BPF_K, reg, 0, 0, imm));
        self
    }

    /// Calls helper `id`.
    pub fn call(self, id: i32) -> Self {
        self.raw(Insn::new(BPF_JMP | BPF_CALL, 0, 0, 0, id))
    }

    /// Returns from the program (`r0` is the return value).
    pub fn exit(self) -> Self {
        self.raw(Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0))
    }

    /// Resolves labels and returns the instruction stream.
    ///
    /// # Errors
    ///
    /// Returns [`AsmError`] when a label is undefined, duplicated, or a
    /// jump offset does not fit in 16 bits.
    pub fn build(mut self) -> Result<Vec<Insn>, AsmError> {
        for fixup in &self.fixups {
            if fixup.insn_index == usize::MAX {
                return Err(AsmError::DuplicateLabel(fixup.label.clone()));
            }
            let &target = self
                .labels
                .get(&fixup.label)
                .ok_or_else(|| AsmError::UndefinedLabel(fixup.label.clone()))?;
            let rel = target as i64 - fixup.insn_index as i64 - 1;
            let off: i16 = rel
                .try_into()
                .map_err(|_| AsmError::JumpOutOfRange(fixup.label.clone()))?;
            self.insns[fixup.insn_index].off = off;
        }
        Ok(self.insns)
    }
}

#[cfg(test)]
mod tests {
    use super::reg::*;
    use super::*;

    impl Asm {
        /// Loads a 64-bit immediate (two slots).
        pub(crate) fn lddw(self, dst: u8, imm: u64) -> Self {
            let lo = imm as u32 as i32;
            let hi = (imm >> 32) as u32 as i32;
            self.raw(Insn::new(BPF_LD | BPF_IMM | BPF_DW, dst, 0, 0, lo))
                .raw(Insn::new(0, 0, 0, 0, hi))
        }

        /// `dst -= src`.
        pub(crate) fn sub64(self, dst: u8, src: u8) -> Self {
            self.alu64(AluOp::Sub, dst, src)
        }

        /// `dst = -dst` (64-bit).
        pub(crate) fn neg64(self, dst: u8) -> Self {
            self.raw(Insn::new(BPF_ALU64 | BPF_NEG, dst, 0, 0, 0))
        }

        /// `dst = htobe64(dst)`.
        pub(crate) fn be64(self, dst: u8) -> Self {
            self.raw(Insn::new(BPF_ALU | BPF_END | BPF_X, dst, 0, 0, 64))
        }

        /// Atomic `*(size*)(dst + off) += src` (word or double-word only).
        pub(crate) fn atomic_add(self, size: Size, dst: u8, src: u8, off: i16) -> Self {
            self.raw(Insn::new(
                BPF_STX | BPF_ATOMIC | size.bits(),
                dst,
                src,
                off,
                BPF_ADD as i32,
            ))
        }

        /// Atomic fetch-and-add: `src = atomic_fetch_add(dst + off, src)`.
        pub(crate) fn atomic_fetch_add(self, size: Size, dst: u8, src: u8, off: i16) -> Self {
            self.raw(Insn::new(
                BPF_STX | BPF_ATOMIC | size.bits(),
                dst,
                src,
                off,
                BPF_ADD as i32 | BPF_FETCH,
            ))
        }
    }

    #[test]
    fn forward_jump_offsets_resolve() {
        let prog = Asm::new()
            .jmp_imm(Cond::Eq, R1, 0, "zero")
            .mov64_imm(R0, 1)
            .exit()
            .label("zero")
            .mov64_imm(R0, 0)
            .exit()
            .build()
            .unwrap();
        // jmp at 0 targets insn 3: off = 3 - 0 - 1 = 2.
        assert_eq!(prog[0].off, 2);
    }

    #[test]
    fn unconditional_jump() {
        let prog = Asm::new()
            .jump("end")
            .mov64_imm(R0, 9)
            .label("end")
            .exit()
            .build()
            .unwrap();
        assert_eq!(prog[0].off, 1);
        assert_eq!(prog[0].opcode, BPF_JMP | BPF_JA);
    }

    #[test]
    fn undefined_label_errors() {
        let err = Asm::new().jump("nowhere").exit().build().unwrap_err();
        assert_eq!(err, AsmError::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn duplicate_label_errors() {
        let err = Asm::new()
            .label("a")
            .exit()
            .label("a")
            .exit()
            .build()
            .unwrap_err();
        assert_eq!(err, AsmError::DuplicateLabel("a".into()));
    }

    #[test]
    fn lddw_emits_two_slots() {
        let prog = Asm::new()
            .lddw(R1, 0x1122_3344_5566_7788)
            .exit()
            .build()
            .unwrap();
        assert_eq!(prog.len(), 3);
        assert!(prog[0].is_lddw());
        assert_eq!(prog[0].imm as u32, 0x5566_7788);
        assert_eq!(prog[1].imm as u32, 0x1122_3344);
    }

    #[test]
    fn ld_map_fd_marks_pseudo() {
        let prog = Asm::new().ld_map_fd(R1, 5).exit().build().unwrap();
        assert_eq!(prog[0].src, PSEUDO_MAP_FD);
        assert_eq!(prog[0].imm, 5);
    }

    #[test]
    fn memory_forms() {
        let prog = Asm::new()
            .ldx(Size::H, R2, R1, 12)
            .stx(Size::DW, R10, R2, -8)
            .st(Size::B, R10, -16, 0x7f)
            .exit()
            .build()
            .unwrap();
        assert_eq!(prog[0].opcode, BPF_LDX | BPF_MEM | BPF_H);
        assert_eq!(prog[1].opcode, BPF_STX | BPF_MEM | BPF_DW);
        assert_eq!(prog[1].off, -8);
        assert_eq!(prog[2].opcode, BPF_ST | BPF_MEM | BPF_B);
    }

    #[test]
    fn endian_ops() {
        let prog = Asm::new()
            .be16(R1)
            .be32(R2)
            .be64(R3)
            .exit()
            .build()
            .unwrap();
        assert_eq!(prog[0].imm, 16);
        assert_eq!(prog[1].imm, 32);
        assert_eq!(prog[2].imm, 64);
    }

    #[test]
    fn backward_jump_encodes_negative_offset() {
        // The assembler permits it; the verifier is what rejects loops.
        let prog = Asm::new()
            .label("top")
            .mov64_imm(R0, 0)
            .jump("top")
            .exit()
            .build()
            .unwrap();
        assert_eq!(prog[1].off, -2);
    }
}
