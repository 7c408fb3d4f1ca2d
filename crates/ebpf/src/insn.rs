//! The eBPF instruction set.
//!
//! Instructions use the Linux eBPF encoding: a 64-bit slot holding an 8-bit
//! opcode, 4-bit destination and source registers, a 16-bit signed offset
//! and a 32-bit signed immediate. 64-bit immediate loads (`lddw`) occupy
//! two slots. Opcode values match the kernel's `bpf.h` so that programs
//! assembled here are byte-compatible with real eBPF bytecode.

/// Number of general-purpose registers (r0–r10).
pub const NUM_REGS: usize = 11;
/// The read-only frame-pointer register.
pub const REG_FP: u8 = 10;
/// Size of a program's stack frame in bytes (as in Linux).
pub const STACK_SIZE: usize = 512;
/// Maximum number of instructions the verifier accepts (paper §II:
/// "the eBPF program is limited by its size, which allows at most 4k
/// instructions").
pub const MAX_INSNS: usize = 4096;

// --- Instruction classes (low 3 bits of the opcode) ---
/// Immediate 64-bit load class.
pub const BPF_LD: u8 = 0x00;
/// Register memory load class.
pub const BPF_LDX: u8 = 0x01;
/// Immediate memory store class.
pub const BPF_ST: u8 = 0x02;
/// Register memory store class.
pub const BPF_STX: u8 = 0x03;
/// 32-bit ALU class.
pub const BPF_ALU: u8 = 0x04;
/// 64-bit jump class.
pub const BPF_JMP: u8 = 0x05;
/// 32-bit jump class.
pub const BPF_JMP32: u8 = 0x06;
/// 64-bit ALU class.
pub const BPF_ALU64: u8 = 0x07;

// --- Size modifiers (bits 3–4) for load/store ---
/// 4-byte access.
pub const BPF_W: u8 = 0x00;
/// 2-byte access.
pub const BPF_H: u8 = 0x08;
/// 1-byte access.
pub const BPF_B: u8 = 0x10;
/// 8-byte access.
pub const BPF_DW: u8 = 0x18;

// --- Mode modifiers (bits 5–7) for load/store ---
/// Immediate load mode (`lddw`).
pub const BPF_IMM: u8 = 0x00;
/// Regular memory access mode.
pub const BPF_MEM: u8 = 0x60;
/// Atomic read-modify-write mode (`BPF_STX` only).
pub const BPF_ATOMIC: u8 = 0xc0;
/// `imm` flag on atomic ops: also return the old value in the source
/// register (`BPF_FETCH`).
pub const BPF_FETCH: i32 = 0x01;

// --- Source modifier (bit 3) for ALU/JMP ---
/// Operand is the immediate.
pub const BPF_K: u8 = 0x00;
/// Operand is the source register.
pub const BPF_X: u8 = 0x08;

// --- ALU operations (bits 4–7) ---
/// Addition.
pub const BPF_ADD: u8 = 0x00;
/// Subtraction.
pub const BPF_SUB: u8 = 0x10;
/// Multiplication.
pub const BPF_MUL: u8 = 0x20;
/// Unsigned division.
pub const BPF_DIV: u8 = 0x30;
/// Bitwise OR.
pub const BPF_OR: u8 = 0x40;
/// Bitwise AND.
pub const BPF_AND: u8 = 0x50;
/// Left shift.
pub const BPF_LSH: u8 = 0x60;
/// Logical right shift.
pub const BPF_RSH: u8 = 0x70;
/// Negation.
pub const BPF_NEG: u8 = 0x80;
/// Unsigned modulo.
pub const BPF_MOD: u8 = 0x90;
/// Bitwise XOR.
pub const BPF_XOR: u8 = 0xa0;
/// Move.
pub const BPF_MOV: u8 = 0xb0;
/// Arithmetic right shift.
pub const BPF_ARSH: u8 = 0xc0;
/// Endianness conversion.
pub const BPF_END: u8 = 0xd0;

// --- Jump operations (bits 4–7) ---
/// Unconditional jump.
pub const BPF_JA: u8 = 0x00;
/// Jump if equal.
pub const BPF_JEQ: u8 = 0x10;
/// Jump if unsigned greater-than.
pub const BPF_JGT: u8 = 0x20;
/// Jump if unsigned greater-or-equal.
pub const BPF_JGE: u8 = 0x30;
/// Jump if `dst & src`.
pub const BPF_JSET: u8 = 0x40;
/// Jump if not equal.
pub const BPF_JNE: u8 = 0x50;
/// Jump if signed greater-than.
pub const BPF_JSGT: u8 = 0x60;
/// Jump if signed greater-or-equal.
pub const BPF_JSGE: u8 = 0x70;
/// Helper call.
pub const BPF_CALL: u8 = 0x80;
/// Program exit.
pub const BPF_EXIT: u8 = 0x90;
/// Jump if unsigned less-than.
pub const BPF_JLT: u8 = 0xa0;
/// Jump if unsigned less-or-equal.
pub const BPF_JLE: u8 = 0xb0;
/// Jump if signed less-than.
pub const BPF_JSLT: u8 = 0xc0;
/// Jump if signed less-or-equal.
pub const BPF_JSLE: u8 = 0xd0;

/// `src` value marking an `lddw` whose immediate is a map fd
/// (`BPF_PSEUDO_MAP_FD` in the kernel).
pub const PSEUDO_MAP_FD: u8 = 1;

/// One eBPF instruction slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Insn {
    /// Operation code.
    pub opcode: u8,
    /// Destination register (0–10).
    pub dst: u8,
    /// Source register (0–10).
    pub src: u8,
    /// Signed 16-bit offset (jumps, memory).
    pub off: i16,
    /// Signed 32-bit immediate.
    pub imm: i32,
}

impl Insn {
    /// Creates an instruction.
    pub const fn new(opcode: u8, dst: u8, src: u8, off: i16, imm: i32) -> Self {
        Insn {
            opcode,
            dst,
            src,
            off,
            imm,
        }
    }

    /// The instruction class (low three opcode bits).
    pub const fn class(&self) -> u8 {
        self.opcode & 0x07
    }

    /// Whether this is the first slot of a two-slot `lddw`.
    pub const fn is_lddw(&self) -> bool {
        self.opcode == BPF_LD | BPF_IMM | BPF_DW
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_extraction() {
        assert_eq!(
            Insn::new(BPF_ALU64 | BPF_ADD | BPF_K, 0, 0, 0, 1).class(),
            BPF_ALU64
        );
        assert_eq!(
            Insn::new(BPF_LDX | BPF_MEM | BPF_W, 0, 1, 0, 0).class(),
            BPF_LDX
        );
        assert_eq!(Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0).class(), BPF_JMP);
    }

    #[test]
    fn lddw_detection() {
        assert!(Insn::new(BPF_LD | BPF_IMM | BPF_DW, 1, 0, 0, 42).is_lddw());
        assert!(!Insn::new(BPF_LDX | BPF_MEM | BPF_DW, 1, 1, 0, 0).is_lddw());
    }
}
