//! The static verifier.
//!
//! Before a program may attach, it must pass the same class of checks the
//! Linux verifier applies (for the 4.x kernels the paper targets):
//!
//! * at most [`MAX_INSNS`] (4096) instructions — the size limit the paper
//!   calls out in §II;
//! * only known opcodes and registers; `r10` is read-only;
//! * every jump lands in bounds, never into the second slot of an `lddw`,
//!   and never **backwards** — the control-flow graph is a DAG, so every
//!   program provably terminates;
//! * no path falls off the end of the program, and every path reaches
//!   `exit` with `r0` initialised;
//! * no read of an uninitialised register on any path;
//! * no division or modulo by a zero immediate, and no division by a
//!   register whose value the analysis cannot prove nonzero;
//! * helper calls reference registered helpers only;
//! * direct stack accesses through `r10` stay within the 512-byte frame.
//!
//! The data-flow pass is a path-sensitive abstract interpreter over
//! typed register states ([`crate::analysis`]), the same analysis the
//! kernel performs: it tracks pointer/scalar types, known bits and value
//! ranges and narrows states at conditional jumps. Its outputs are a
//! verdict and an explanation, never a licence: every memory access
//! stays bounds-checked at runtime in both tiers, which is equivalent
//! for safety in a simulator (a faulting access aborts the program, it
//! cannot corrupt the host).
//!
//! [`verify`] keeps the historical single-error contract; use
//! [`crate::analysis::analyze`] for every diagnostic plus the joined
//! register state at each instruction.

use crate::insn::*;

/// Why the verifier rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// The program is empty.
    Empty,
    /// More than [`MAX_INSNS`] instructions.
    TooLong(usize),
    /// Unknown or malformed opcode at the given index.
    BadOpcode {
        /// The opcode byte.
        opcode: u8,
        /// Instruction index.
        insn: usize,
    },
    /// A register operand above `r10`.
    BadRegister {
        /// The register number.
        reg: u8,
        /// Instruction index.
        insn: usize,
    },
    /// A write targeting the read-only frame pointer.
    WriteToFramePointer(usize),
    /// Jump target outside the program.
    JumpOutOfBounds(usize),
    /// Jump target is the second slot of an `lddw`.
    JumpIntoLddw(usize),
    /// A backward jump (loops are not allowed).
    BackwardJump(usize),
    /// An `lddw` missing its second slot, or a second slot that is not
    /// all-zero apart from the immediate.
    TruncatedLddw(usize),
    /// Execution can run past the last instruction.
    FallsOffEnd(usize),
    /// A read of a register never written on some path.
    UninitializedRegister {
        /// The register number.
        reg: u8,
        /// Instruction index.
        insn: usize,
    },
    /// Division or modulo by a zero immediate.
    DivisionByZero(usize),
    /// Division or modulo by a register whose value range contains zero
    /// with no guarding branch.
    DivisorMayBeZero {
        /// The divisor register.
        reg: u8,
        /// Instruction index.
        insn: usize,
    },
    /// A call to a helper id that is not registered.
    UnknownHelper {
        /// The helper id.
        id: i32,
        /// Instruction index.
        insn: usize,
    },
    /// A direct `r10`-relative access outside the 512-byte stack frame.
    InvalidStackAccess {
        /// The offset used.
        off: i32,
        /// Instruction index.
        insn: usize,
    },
}

impl core::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            VerifyError::Empty => f.write_str("empty program"),
            VerifyError::TooLong(n) => write!(f, "program has {n} insns, limit is {MAX_INSNS}"),
            VerifyError::BadOpcode { opcode, insn } => {
                write!(f, "unknown opcode {opcode:#04x} at insn {insn}")
            }
            VerifyError::BadRegister { reg, insn } => {
                write!(f, "invalid register r{reg} at insn {insn}")
            }
            VerifyError::WriteToFramePointer(i) => write!(f, "write to read-only r10 at insn {i}"),
            VerifyError::JumpOutOfBounds(i) => write!(f, "jump out of bounds at insn {i}"),
            VerifyError::JumpIntoLddw(i) => write!(f, "jump into lddw body at insn {i}"),
            VerifyError::BackwardJump(i) => write!(f, "back-edge at insn {i} (loops forbidden)"),
            VerifyError::TruncatedLddw(i) => write!(f, "truncated lddw at insn {i}"),
            VerifyError::FallsOffEnd(i) => write!(f, "control falls off program end at insn {i}"),
            VerifyError::UninitializedRegister { reg, insn } => {
                write!(f, "read of uninitialized r{reg} at insn {insn}")
            }
            VerifyError::DivisionByZero(i) => write!(f, "division by zero immediate at insn {i}"),
            VerifyError::DivisorMayBeZero { reg, insn } => {
                write!(f, "divisor r{reg} not proven nonzero at insn {insn}")
            }
            VerifyError::UnknownHelper { id, insn } => {
                write!(f, "unknown helper {id} at insn {insn}")
            }
            VerifyError::InvalidStackAccess { off, insn } => {
                write!(f, "stack access at fp{off:+} outside frame at insn {insn}")
            }
        }
    }
}

impl VerifyError {
    /// The instruction index the error is anchored to, when it has one
    /// (`Empty` and `TooLong` are whole-program errors).
    pub fn insn(&self) -> Option<usize> {
        match self {
            VerifyError::Empty | VerifyError::TooLong(_) => None,
            VerifyError::BadOpcode { insn, .. }
            | VerifyError::BadRegister { insn, .. }
            | VerifyError::UninitializedRegister { insn, .. }
            | VerifyError::UnknownHelper { insn, .. }
            | VerifyError::InvalidStackAccess { insn, .. }
            | VerifyError::DivisorMayBeZero { insn, .. } => Some(*insn),
            VerifyError::WriteToFramePointer(i)
            | VerifyError::JumpOutOfBounds(i)
            | VerifyError::JumpIntoLddw(i)
            | VerifyError::BackwardJump(i)
            | VerifyError::TruncatedLddw(i)
            | VerifyError::FallsOffEnd(i)
            | VerifyError::DivisionByZero(i) => Some(*i),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies `insns`; `helpers` is the set of callable helper ids.
///
/// The first diagnostic [`crate::analysis::analyze`] would report, from
/// the walk the loader runs, which keeps no register state.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify(insns: &[Insn], helpers: &[i32]) -> Result<(), VerifyError> {
    match crate::analysis::verdict(insns, helpers)
        .diagnostics
        .into_iter()
        .next()
    {
        Some(d) => Err(d.error),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{reg::*, Asm, Cond, Size};

    const HELPERS: &[i32] = &[1, 2, 3, 5, 6, 7, 8, 25, 26];

    fn ok(asm: Asm) {
        verify(&asm.build().unwrap(), HELPERS).unwrap();
    }

    fn err(asm: Asm) -> VerifyError {
        verify(&asm.build().unwrap(), HELPERS).unwrap_err()
    }

    #[test]
    fn minimal_program_passes() {
        ok(Asm::new().mov64_imm(R0, 0).exit());
    }

    #[test]
    fn empty_and_too_long_rejected() {
        assert_eq!(verify(&[], HELPERS), Err(VerifyError::Empty));
        let mut asm = Asm::new();
        for _ in 0..MAX_INSNS {
            asm = asm.mov64_imm(R0, 0);
        }
        let e = err(asm.exit());
        assert_eq!(e, VerifyError::TooLong(MAX_INSNS + 1));
    }

    #[test]
    fn exactly_4096_insns_accepted() {
        let mut asm = Asm::new();
        for _ in 0..MAX_INSNS - 2 {
            asm = asm.mov64_imm(R0, 0);
        }
        ok(asm.mov64_imm(R0, 0).exit());
    }

    #[test]
    fn falls_off_end_rejected() {
        assert!(matches!(
            err(Asm::new().mov64_imm(R0, 0)),
            VerifyError::FallsOffEnd(0)
        ));
    }

    #[test]
    fn backward_jump_rejected() {
        let e = err(Asm::new().label("top").mov64_imm(R0, 0).jump("top").exit());
        assert_eq!(e, VerifyError::BackwardJump(1));
    }

    #[test]
    fn jump_out_of_bounds_rejected() {
        let insns = vec![
            Insn::new(BPF_JMP | BPF_JA, 0, 0, 100, 0),
            Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
        ];
        assert_eq!(
            verify(&insns, HELPERS),
            Err(VerifyError::JumpOutOfBounds(0))
        );
    }

    #[test]
    fn jump_into_lddw_body_rejected() {
        let insns = vec![
            Insn::new(BPF_JMP | BPF_JA, 0, 0, 1, 0), // targets slot 2 = lddw body
            Insn::new(BPF_LD | BPF_IMM | BPF_DW, 1, 0, 0, 0),
            Insn::new(0, 0, 0, 0, 0),
            Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
        ];
        assert_eq!(verify(&insns, HELPERS), Err(VerifyError::JumpIntoLddw(0)));
    }

    #[test]
    fn truncated_lddw_rejected() {
        let insns = vec![Insn::new(BPF_LD | BPF_IMM | BPF_DW, 1, 0, 0, 0)];
        assert_eq!(verify(&insns, HELPERS), Err(VerifyError::TruncatedLddw(0)));
    }

    #[test]
    fn uninitialized_register_read_rejected() {
        let e = err(Asm::new().mov64(R0, R3).exit());
        assert_eq!(e, VerifyError::UninitializedRegister { reg: 3, insn: 0 });
    }

    #[test]
    fn exit_requires_r0() {
        let e = err(Asm::new().exit());
        assert_eq!(e, VerifyError::UninitializedRegister { reg: 0, insn: 0 });
    }

    #[test]
    fn call_clobbers_caller_saved_registers() {
        // r2 set before the call must not satisfy a read after it.
        let e = err(Asm::new()
            .mov64_imm(R2, 1)
            .call(5) // ktime_get_ns
            .mov64(R0, R2)
            .exit());
        assert_eq!(e, VerifyError::UninitializedRegister { reg: 2, insn: 2 });
    }

    #[test]
    fn call_initialises_r0() {
        ok(Asm::new().call(5).exit());
    }

    #[test]
    fn callee_saved_survive_calls() {
        ok(Asm::new().mov64_imm(R6, 1).call(5).mov64(R0, R6).exit());
    }

    #[test]
    fn merge_takes_intersection_at_join() {
        // r2 initialised on only one path into the join: read must fail.
        let e = err(Asm::new()
            .jmp_imm(Cond::Eq, R1, 0, "skip")
            .mov64_imm(R2, 5)
            .label("skip")
            .mov64(R0, R2)
            .exit());
        assert_eq!(e, VerifyError::UninitializedRegister { reg: 2, insn: 2 });
        // Initialised on both paths: fine.
        ok(Asm::new()
            .jmp_imm(Cond::Eq, R1, 0, "other")
            .mov64_imm(R2, 5)
            .jump("join")
            .label("other")
            .mov64_imm(R2, 6)
            .label("join")
            .mov64(R0, R2)
            .exit());
    }

    #[test]
    fn division_by_zero_immediate_rejected() {
        let e = err(Asm::new()
            .mov64_imm(R0, 10)
            .alu64_imm(crate::asm::AluOp::Div, R0, 0)
            .exit());
        assert_eq!(e, VerifyError::DivisionByZero(1));
        let e = err(Asm::new()
            .mov64_imm(R0, 10)
            .alu64_imm(crate::asm::AluOp::Mod, R0, 0)
            .exit());
        assert_eq!(e, VerifyError::DivisionByZero(1));
    }

    #[test]
    fn unknown_helper_rejected() {
        let e = err(Asm::new().call(9999).exit());
        assert_eq!(e, VerifyError::UnknownHelper { id: 9999, insn: 0 });
    }

    #[test]
    fn write_to_frame_pointer_rejected() {
        assert_eq!(
            err(Asm::new().mov64_imm(R10, 0).exit()),
            VerifyError::WriteToFramePointer(0)
        );
        assert_eq!(
            err(Asm::new().mov64_imm(R0, 0).ldx(Size::W, R10, R1, 0).exit()),
            VerifyError::WriteToFramePointer(1)
        );
    }

    #[test]
    fn stack_bounds_checked_for_fp_accesses() {
        ok(Asm::new()
            .mov64_imm(R0, 0)
            .stx(Size::DW, R10, R0, -8)
            .exit());
        ok(Asm::new()
            .mov64_imm(R0, 0)
            .stx(Size::B, R10, R0, -512)
            .exit());
        assert!(matches!(
            err(Asm::new()
                .mov64_imm(R0, 0)
                .stx(Size::DW, R10, R0, -516)
                .exit()),
            VerifyError::InvalidStackAccess { off: -516, .. }
        ));
        assert!(matches!(
            err(Asm::new()
                .mov64_imm(R0, 0)
                .stx(Size::DW, R10, R0, -4)
                .exit()),
            VerifyError::InvalidStackAccess { off: -4, .. }
        ));
        assert!(matches!(
            err(Asm::new().mov64_imm(R0, 0).st(Size::W, R10, 8, 1).exit()),
            VerifyError::InvalidStackAccess { off: 8, .. }
        ));
    }

    #[test]
    fn bad_register_rejected() {
        let insns = vec![
            Insn::new(BPF_ALU64 | BPF_MOV | BPF_K, 11, 0, 0, 0),
            Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
        ];
        assert_eq!(
            verify(&insns, HELPERS),
            Err(VerifyError::BadRegister { reg: 11, insn: 0 })
        );
    }

    #[test]
    fn bad_opcode_rejected() {
        let insns = vec![
            Insn::new(0xff, 0, 0, 0, 0),
            Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0),
        ];
        assert!(matches!(
            verify(&insns, HELPERS),
            Err(VerifyError::BadOpcode {
                opcode: 0xff,
                insn: 0
            })
        ));
    }

    #[test]
    fn unreachable_code_is_ignored() {
        // Dead code after exit never executes; it may read anything.
        ok(Asm::new().mov64_imm(R0, 0).exit().mov64(R0, R9).exit());
    }

    #[test]
    fn errors_display() {
        for e in [
            VerifyError::Empty,
            VerifyError::TooLong(5000),
            VerifyError::BackwardJump(3),
            VerifyError::UninitializedRegister { reg: 4, insn: 2 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
