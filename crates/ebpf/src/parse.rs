//! A parser for the disassembler's listing syntax — the inverse of
//! [`crate::disasm`].
//!
//! Accepts the kernel-verifier-style lines `disasm` emits (`r2 = *(u16
//! *)(r7 +12)`, `if r0 == 0 goto +3`, …) and rebuilds the bytecode, so a
//! listing can be edited by hand and reassembled, and so tests can assert
//! that disassembly loses no information (`asm → disasm → parse` must
//! reproduce the original instructions bit for bit).

use crate::disasm::{bits, ALU_OPS, JMP_OPS, SIZES};
use crate::insn::*;

/// Error produced when a listing line does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Zero-based line index within the input.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(message: impl Into<String>) -> Result<T, String> {
    Err(message.into())
}

/// Parses `r{n}` or `wr{n}`, returning `(narrow, reg)`.
fn parse_reg(tok: &str) -> Result<(bool, u8), String> {
    let (narrow, rest) = match tok.strip_prefix("wr") {
        Some(r) => (true, r),
        None => match tok.strip_prefix('r') {
            Some(r) => (false, r),
            None => return err(format!("expected register, got `{tok}`")),
        },
    };
    let n: u8 = rest
        .parse()
        .map_err(|_| format!("bad register number in `{tok}`"))?;
    if usize::from(n) >= NUM_REGS {
        return err(format!("register r{n} out of range"));
    }
    Ok((narrow, n))
}

fn parse_i32(tok: &str) -> Result<i32, String> {
    tok.parse()
        .map_err(|_| format!("expected immediate, got `{tok}`"))
}

fn parse_off(tok: &str) -> Result<i16, String> {
    tok.parse()
        .map_err(|_| format!("expected offset, got `{tok}`"))
}

/// A memory reference `({sz} *)(r{reg} {off:+})`, spread over three
/// whitespace tokens whose leading decoration varies by form.
fn parse_mem(size_tok: &str, reg_tok: &str, off_tok: &str) -> Result<(u8, u8, i16), String> {
    let size = bits(&SIZES, size_tok).ok_or_else(|| format!("bad access size `{size_tok}`"))?;
    let reg_tok = reg_tok
        .strip_prefix("*)(")
        .ok_or_else(|| format!("expected `*)(r…`, got `{reg_tok}`"))?;
    let (narrow, reg) = parse_reg(reg_tok)?;
    if narrow {
        return err("memory base register cannot be narrow");
    }
    let off = parse_off(off_tok)?;
    Ok((size, reg, off))
}

/// Strips a trailing `)` (or `),`) from the offset token of a memory
/// reference.
fn strip_close(tok: &str, suffix: &str) -> Result<String, String> {
    tok.strip_suffix(suffix)
        .map(str::to_owned)
        .ok_or_else(|| format!("expected `…{suffix}`, got `{tok}`"))
}

/// Parses one listing line (without a line-number prefix) into one slot,
/// or two for `lddw` forms.
pub fn parse_insn(text: &str) -> Result<Vec<Insn>, String> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    match toks.as_slice() {
        ["exit"] => Ok(vec![Insn::new(BPF_JMP | BPF_EXIT, 0, 0, 0, 0)]),
        ["call", imm] => Ok(vec![Insn::new(
            BPF_JMP | BPF_CALL,
            0,
            0,
            0,
            parse_i32(imm)?,
        )]),
        ["goto", off] => Ok(vec![Insn::new(BPF_JMP | BPF_JA, 0, 0, parse_off(off)?, 0)]),
        ["if", dst, sym, operand, "goto", off] => {
            let (narrow, dst) = parse_reg(dst)?;
            let op = bits(&JMP_OPS, sym).ok_or_else(|| format!("bad jump operator `{sym}`"))?;
            let class = if narrow { BPF_JMP32 } else { BPF_JMP };
            let off = parse_off(off)?;
            match parse_reg(operand) {
                Ok((src_narrow, src)) => {
                    if src_narrow != narrow {
                        return err("jump operand width mismatch");
                    }
                    Ok(vec![Insn::new(class | op | BPF_X, dst, src, off, 0)])
                }
                Err(_) => Ok(vec![Insn::new(
                    class | op | BPF_K,
                    dst,
                    0,
                    off,
                    parse_i32(operand)?,
                )]),
            }
        }
        ["lock", size, reg, off, "+=", src] => {
            let size = size
                .strip_prefix("*(")
                .ok_or_else(|| format!("expected `*({{size}}`, got `{size}`"))?;
            let off = strip_close(off, ")")?;
            let (size, dst, off) = parse_mem(size, reg, &off)?;
            if size != BPF_W && size != BPF_DW {
                return err("atomic add is word or double-word only");
            }
            let (narrow, src) = parse_reg(src)?;
            if narrow {
                return err("atomic source register cannot be narrow");
            }
            Ok(vec![Insn::new(
                BPF_STX | BPF_ATOMIC | size,
                dst,
                src,
                off,
                BPF_ADD as i32,
            )])
        }
        // `*({sz} *)(r{dst} {off:+}) = …` — store immediate or register.
        [size, reg, off, "=", value] if size.starts_with("*(") => {
            let size = size.strip_prefix("*(").expect("guarded").to_owned();
            let off = strip_close(off, ")")?;
            let (size, dst, off) = parse_mem(&size, reg, &off)?;
            match parse_reg(value) {
                Ok((narrow, src)) => {
                    if narrow {
                        return err("store source register cannot be narrow");
                    }
                    Ok(vec![Insn::new(BPF_STX | BPF_MEM | size, dst, src, off, 0)])
                }
                Err(_) => Ok(vec![Insn::new(
                    BPF_ST | BPF_MEM | size,
                    dst,
                    0,
                    off,
                    parse_i32(value)?,
                )]),
            }
        }
        // `r{src} = atomic_fetch_add(({sz} *)(r{dst} {off:+}), r{src})`
        [lhs, "=", size, reg, off, src] if size.starts_with("atomic_fetch_add((") => {
            let (narrow, lhs) = parse_reg(lhs)?;
            if narrow {
                return err("atomic destination register cannot be narrow");
            }
            let size = size.strip_prefix("atomic_fetch_add((").expect("guarded");
            let off = strip_close(off, "),")?;
            let (size, dst, off) = parse_mem(size, reg, &off)?;
            if size != BPF_W && size != BPF_DW {
                return err("atomic fetch-add is word or double-word only");
            }
            let src = strip_close(src, ")")?;
            let (narrow, src) = parse_reg(&src)?;
            if narrow || src != lhs {
                return err("atomic fetch-add must name the source register on both sides");
            }
            Ok(vec![Insn::new(
                BPF_STX | BPF_ATOMIC | size,
                dst,
                src,
                off,
                BPF_ADD as i32 | BPF_FETCH,
            )])
        }
        // `r{dst} = *({sz} *)(r{src} {off:+})` — memory load.
        [dst, "=", size, reg, off] if size.starts_with("*(") => {
            let (narrow, dst) = parse_reg(dst)?;
            if narrow {
                return err("load destination register cannot be narrow");
            }
            let size = size.strip_prefix("*(").expect("guarded");
            let off = strip_close(off, ")")?;
            let (size, src, off) = parse_mem(size, reg, &off)?;
            Ok(vec![Insn::new(BPF_LDX | BPF_MEM | size, dst, src, off, 0)])
        }
        // `r{dst} = {value:#x} ll` — 64-bit immediate load, two slots.
        [dst, "=", value, "ll"] => {
            let (narrow, dst) = parse_reg(dst)?;
            if narrow {
                return err("lddw destination register cannot be narrow");
            }
            let digits = value
                .strip_prefix("0x")
                .ok_or_else(|| format!("expected hex literal, got `{value}`"))?;
            let value = u64::from_str_radix(digits, 16)
                .map_err(|_| format!("bad hex literal `{value}`"))?;
            Ok(vec![
                Insn::new(BPF_LD | BPF_IMM | BPF_DW, dst, 0, 0, value as u32 as i32),
                Insn::new(0, 0, 0, 0, (value >> 32) as u32 as i32),
            ])
        }
        // `r{dst} = map_fd({fd})` — pseudo map load, two slots.
        [dst, "=", fd] if fd.starts_with("map_fd(") => {
            let (narrow, dst) = parse_reg(dst)?;
            if narrow {
                return err("map load destination register cannot be narrow");
            }
            let fd = fd.strip_prefix("map_fd(").expect("guarded");
            let fd = strip_close(fd, ")")?;
            Ok(vec![
                Insn::new(
                    BPF_LD | BPF_IMM | BPF_DW,
                    dst,
                    PSEUDO_MAP_FD,
                    0,
                    parse_i32(&fd)?,
                ),
                Insn::new(0, 0, 0, 0, 0),
            ])
        }
        // `r{dst} = be{bits} r{dst}` — endianness conversion.
        [dst, "=", be, rhs] if be.starts_with("be") => {
            let (narrow, dst) = parse_reg(dst)?;
            if narrow {
                return err("endian conversion register cannot be narrow");
            }
            let bits = parse_i32(be.strip_prefix("be").expect("guarded"))?;
            if !matches!(bits, 16 | 32 | 64) {
                return err(format!("bad endian width `{be}`"));
            }
            let (_, rhs) = parse_reg(rhs)?;
            if rhs != dst {
                return err("endian conversion must name the same register twice");
            }
            Ok(vec![Insn::new(BPF_ALU | BPF_END | BPF_X, dst, 0, 0, bits)])
        }
        // `{n}r{dst} = -{n}r{dst}` — negation.
        [dst, "=", rhs] if rhs.starts_with('-') && parse_reg(&rhs[1..]).is_ok() => {
            let (narrow, dst) = parse_reg(dst)?;
            let (rhs_narrow, rhs) = parse_reg(&rhs[1..]).expect("guarded");
            if rhs != dst || rhs_narrow != narrow {
                return err("negation must name the same register twice");
            }
            let class = if narrow { BPF_ALU } else { BPF_ALU64 };
            Ok(vec![Insn::new(class | BPF_NEG, dst, 0, 0, 0)])
        }
        // `{n}r{dst} {sym} {operand}` — ALU with register or immediate.
        [dst, sym, operand] => {
            let (narrow, dst) = parse_reg(dst)?;
            let op = bits(&ALU_OPS, sym).ok_or_else(|| format!("bad ALU operator `{sym}`"))?;
            let class = if narrow { BPF_ALU } else { BPF_ALU64 };
            match parse_reg(operand) {
                Ok((src_narrow, src)) => {
                    if src_narrow != narrow {
                        return err("ALU operand width mismatch");
                    }
                    Ok(vec![Insn::new(class | op | BPF_X, dst, src, 0, 0)])
                }
                Err(_) => Ok(vec![Insn::new(
                    class | op | BPF_K,
                    dst,
                    0,
                    0,
                    parse_i32(operand)?,
                )]),
            }
        }
        [] => err("empty line"),
        _ => err(format!("unrecognized instruction `{text}`")),
    }
}

/// Parses a whole listing back into bytecode. Lines may carry the
/// `{index}: ` prefix [`crate::disasm::disassemble`] emits (it is
/// ignored) or be bare instruction text; blank lines are skipped, as are
/// `#` comment lines and everything after a `;` (the annotation marker
/// [`crate::disasm::disassemble_annotated`] uses), so annotated listings
/// and commented corpus files reassemble cleanly.
pub fn parse_program<S: AsRef<str>>(lines: &[S]) -> Result<Vec<Insn>, ParseError> {
    let mut out = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let mut text = line.as_ref().trim();
        if text.starts_with('#') {
            continue;
        }
        if let Some((code, _comment)) = text.split_once(';') {
            text = code.trim();
        }
        if let Some((prefix, rest)) = text.split_once(':') {
            if prefix.trim().parse::<usize>().is_ok() {
                text = rest.trim();
            }
        }
        if text.is_empty() {
            continue;
        }
        let insns = parse_insn(text).map_err(|message| ParseError { line: i, message })?;
        out.extend(insns);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{reg::*, AluOp, Asm, Cond, Size};
    use crate::disasm::disassemble;

    fn round_trip(insns: Vec<Insn>) {
        let listing = disassemble(&insns);
        let parsed = parse_program(&listing).expect("listing parses");
        assert_eq!(parsed, insns, "listing: {listing:#?}");
    }

    #[test]
    fn alu_and_endian_forms_round_trip() {
        round_trip(
            Asm::new()
                .mov64_imm(R0, 42)
                .add64_imm(R0, -7)
                .alu64(AluOp::Xor, R0, R3)
                .mov32_imm(R2, 5)
                .neg64(R1)
                .be16(R4)
                .be64(R5)
                .exit()
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn memory_and_atomic_forms_round_trip() {
        round_trip(
            Asm::new()
                .ldx(Size::H, R2, R7, 12)
                .stx(Size::DW, R10, R2, -8)
                .st(Size::B, R10, -16, 1)
                .atomic_add(Size::W, R1, R2, 0)
                .atomic_fetch_add(Size::DW, R1, R2, 8)
                .exit()
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn jumps_and_wide_loads_round_trip() {
        round_trip(
            Asm::new()
                .jmp_imm(Cond::Eq, R1, 0, "end")
                .jmp32_imm(Cond::Ge, R2, 7, "end")
                .jmp_reg(Cond::SLt, R3, R4, "end")
                .lddw(R3, 0x1122_3344_5566_7788)
                .ld_map_fd(R1, 4)
                .call(5)
                .label("end")
                .mov64_imm(R0, 0)
                .exit()
                .build()
                .unwrap(),
        );
    }

    #[test]
    fn numbered_and_bare_lines_both_parse() {
        let bare = parse_program(&["r0 = 1", "exit"]).unwrap();
        let numbered = parse_program(&["   0: r0 = 1", "   1: exit"]).unwrap();
        assert_eq!(bare, numbered);
        assert_eq!(bare.len(), 2);
    }

    #[test]
    fn bad_lines_are_rejected_with_position() {
        let e = parse_program(&["exit", "r0 ?= 3"]).unwrap_err();
        assert_eq!(e.line, 1);
        assert!(e.message.contains("?="), "message: {}", e.message);
        assert!(parse_program(&["r99 = 1"]).is_err());
        assert!(parse_program(&["goto nowhere"]).is_err());
        assert!(parse_program(&["r1 = be17 r1"]).is_err());
        assert!(parse_program(&["r1 = -r2"]).is_err());
    }
}
