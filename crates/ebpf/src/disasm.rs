//! A disassembler for eBPF programs, in the style of the kernel
//! verifier's listing output (`r2 = *(u16 *)(r7 +12)`, `if r0 == 0 goto
//! +3`, …).
//!
//! Useful when debugging generated trace scripts: the compiler in
//! `vnettracer` emits a few hundred instructions per script, and a
//! readable listing is how one audits what a filter actually checks.

use crate::insn::*;

/// Access sizes by their `BPF_SIZE` bits, as the listing names them.
pub(crate) const SIZES: [(u8, &str); 4] = [
    (BPF_W, "u32"),
    (BPF_H, "u16"),
    (BPF_B, "u8"),
    (BPF_DW, "u64"),
];

/// ALU operations with two operands by their `BPF_OP` bits, as the
/// listing writes them.
pub(crate) const ALU_OPS: [(u8, &str); 12] = [
    (BPF_ADD, "+="),
    (BPF_SUB, "-="),
    (BPF_MUL, "*="),
    (BPF_DIV, "/="),
    (BPF_OR, "|="),
    (BPF_AND, "&="),
    (BPF_LSH, "<<="),
    (BPF_RSH, ">>="),
    (BPF_MOD, "%="),
    (BPF_XOR, "^="),
    (BPF_MOV, "="),
    (BPF_ARSH, "s>>="),
];

/// Conditional jumps by their `BPF_OP` bits, as the listing writes them.
pub(crate) const JMP_OPS: [(u8, &str); 11] = [
    (BPF_JEQ, "=="),
    (BPF_JNE, "!="),
    (BPF_JGT, ">"),
    (BPF_JGE, ">="),
    (BPF_JLT, "<"),
    (BPF_JLE, "<="),
    (BPF_JSET, "&"),
    (BPF_JSGT, "s>"),
    (BPF_JSGE, "s>="),
    (BPF_JSLT, "s<"),
    (BPF_JSLE, "s<="),
];

/// The listing's spelling of `code` in `table`.
fn symbol(table: &[(u8, &'static str)], code: u8) -> Option<&'static str> {
    table.iter().find(|&&(c, _)| c == code).map(|&(_, sym)| sym)
}

/// The bits `table` spells `sym`: the inverse of [`symbol`], for
/// [`crate::parse`].
pub(crate) fn bits(table: &[(u8, &str)], sym: &str) -> Option<u8> {
    table.iter().find(|&&(_, s)| s == sym).map(|&(b, _)| b)
}

fn size_suffix(opcode: u8) -> &'static str {
    symbol(&SIZES, opcode & 0x18).unwrap_or("u64")
}

/// Renders one instruction. For the first slot of an `lddw`, `next` must
/// be the second slot. Unknown encodings render as raw bytes.
pub fn disasm_insn(insn: &Insn, next: Option<&Insn>) -> String {
    let dst = insn.dst;
    let src = insn.src;
    let off = insn.off;
    let imm = insn.imm;
    match insn.class() {
        BPF_ALU | BPF_ALU64 => {
            let narrow = if insn.class() == BPF_ALU { "w" } else { "" };
            let op = insn.opcode & 0xf0;
            if op == BPF_END {
                return format!("r{dst} = be{imm} r{dst}");
            }
            if op == BPF_NEG {
                return format!("{narrow}r{dst} = -{narrow}r{dst}");
            }
            let Some(sym) = symbol(&ALU_OPS, op) else {
                return format!("(bad alu) {insn:?}");
            };
            if insn.opcode & 0x08 == BPF_X {
                format!("{narrow}r{dst} {sym} {narrow}r{src}")
            } else {
                format!("{narrow}r{dst} {sym} {imm}")
            }
        }
        BPF_LD if insn.is_lddw() => {
            let hi = next.map(|n| n.imm as u32 as u64).unwrap_or(0);
            let value = (imm as u32 as u64) | (hi << 32);
            if src == PSEUDO_MAP_FD {
                format!("r{dst} = map_fd({imm})")
            } else {
                format!("r{dst} = {value:#x} ll")
            }
        }
        BPF_LDX => {
            format!("r{dst} = *({} *)(r{src} {off:+})", size_suffix(insn.opcode))
        }
        BPF_ST => {
            format!("*({} *)(r{dst} {off:+}) = {imm}", size_suffix(insn.opcode))
        }
        BPF_STX if insn.opcode & 0xe0 == BPF_ATOMIC => {
            if insn.imm & BPF_FETCH != 0 {
                format!(
                    "r{src} = atomic_fetch_add(({} *)(r{dst} {off:+}), r{src})",
                    size_suffix(insn.opcode)
                )
            } else {
                format!(
                    "lock *({} *)(r{dst} {off:+}) += r{src}",
                    size_suffix(insn.opcode)
                )
            }
        }
        BPF_STX => {
            format!("*({} *)(r{dst} {off:+}) = r{src}", size_suffix(insn.opcode))
        }
        BPF_JMP | BPF_JMP32 => {
            let narrow = if insn.class() == BPF_JMP32 { "w" } else { "" };
            match insn.opcode & 0xf0 {
                BPF_EXIT => "exit".to_owned(),
                BPF_CALL => format!("call {imm}"),
                BPF_JA => format!("goto {off:+}"),
                op => match symbol(&JMP_OPS, op) {
                    Some(sym) if insn.opcode & 0x08 == BPF_X => {
                        format!("if {narrow}r{dst} {sym} {narrow}r{src} goto {off:+}")
                    }
                    Some(sym) => format!("if {narrow}r{dst} {sym} {imm} goto {off:+}"),
                    None => format!("(bad jmp) {insn:?}"),
                },
            }
        }
        _ => format!("(bad insn) {insn:?}"),
    }
}

/// Disassembles a whole program into numbered lines.
pub fn disassemble(insns: &[Insn]) -> Vec<String> {
    let mut out = Vec::with_capacity(insns.len());
    let mut i = 0;
    while i < insns.len() {
        let insn = &insns[i];
        let text = disasm_insn(insn, insns.get(i + 1));
        out.push(format!("{i:4}: {text}"));
        i += if insn.is_lddw() { 2 } else { 1 };
    }
    out
}

/// Disassembles a whole program into numbered lines annotated with the
/// verifier analysis: each reachable instruction carries a `;` comment
/// with the joined register state at its input; unreachable instructions
/// are flagged dead.
pub fn disassemble_annotated(insns: &[Insn], analysis: &crate::analysis::Analysis) -> Vec<String> {
    let mut out = Vec::with_capacity(insns.len());
    let mut i = 0;
    while i < insns.len() {
        let insn = &insns[i];
        let text = disasm_insn(insn, insns.get(i + 1));
        let mut line = format!("{i:4}: {text}");
        let note = match analysis.state_at(i) {
            Some(regs) => crate::analysis::fmt_regs(regs),
            None => "dead".to_owned(),
        };
        if !note.is_empty() {
            line.push_str(" ; ");
            line.push_str(&note);
        }
        out.push(line);
        i += if insn.is_lddw() { 2 } else { 1 };
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{reg::*, AluOp, Asm, Cond, Size};

    fn lines(asm: Asm) -> Vec<String> {
        disassemble(&asm.build().unwrap())
            .into_iter()
            .map(|l| l.split_once(": ").unwrap().1.to_owned())
            .collect()
    }

    #[test]
    fn alu_and_mov_forms() {
        let l = lines(
            Asm::new()
                .mov64_imm(R0, 42)
                .add64_imm(R0, -7)
                .alu64(AluOp::Xor, R0, R3)
                .mov32_imm(R2, 5)
                .neg64(R1)
                .be16(R4)
                .exit(),
        );
        assert_eq!(
            l,
            vec![
                "r0 = 42",
                "r0 += -7",
                "r0 ^= r3",
                "wr2 = 5",
                "r1 = -r1",
                "r4 = be16 r4",
                "exit",
            ]
        );
    }

    #[test]
    fn memory_forms() {
        let l = lines(
            Asm::new()
                .ldx(Size::H, R2, R7, 12)
                .stx(Size::DW, R10, R2, -8)
                .st(Size::B, R10, -16, 1)
                .exit(),
        );
        assert_eq!(
            l,
            vec![
                "r2 = *(u16 *)(r7 +12)",
                "*(u64 *)(r10 -8) = r2",
                "*(u8 *)(r10 -16) = 1",
                "exit",
            ]
        );
    }

    #[test]
    fn jumps_calls_and_lddw() {
        let l = lines(
            Asm::new()
                .jmp_imm(Cond::Eq, R1, 0, "end")
                .jmp32_imm(Cond::Ge, R2, 7, "end")
                .lddw(R3, 0x1122_3344_5566_7788)
                .ld_map_fd(R1, 4)
                .call(5)
                .label("end")
                .mov64_imm(R0, 0)
                .exit(),
        );
        assert_eq!(
            l,
            vec![
                "if r1 == 0 goto +6",
                "if wr2 >= 7 goto +5",
                "r3 = 0x1122334455667788 ll",
                "r1 = map_fd(4)",
                "call 5",
                "r0 = 0",
                "exit",
            ]
        );
    }

    #[test]
    fn compiled_scripts_disassemble_without_bad_lines() {
        // Sanity over a realistic program: every generated instruction
        // renders as something other than "(bad …)".
        let asm = Asm::new()
            .mov64(R6, R1)
            .ldx(Size::DW, R7, R1, 24)
            .jmp_reg(Cond::Gt, R7, R8, "miss")
            .mov64_imm(R0, 1)
            .exit()
            .label("miss")
            .mov64_imm(R0, 0)
            .exit();
        for line in disassemble(&asm.build().unwrap()) {
            assert!(!line.contains("(bad"), "line: {line}");
        }
    }

    #[test]
    fn line_numbers_skip_lddw_bodies() {
        let listing = disassemble(&Asm::new().lddw(R1, 1).exit().build().unwrap());
        assert_eq!(listing.len(), 2);
        assert!(listing[0].starts_with("   0:"));
        assert!(
            listing[1].starts_with("   2:"),
            "exit sits at slot 2: {listing:?}"
        );
    }
}
