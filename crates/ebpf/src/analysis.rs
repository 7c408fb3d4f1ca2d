//! Path-sensitive abstract interpretation over register states.
//!
//! This is the simulator's analogue of the kernel verifier's core analysis
//! (`check_mem_access` / `adjust_reg_min_max_vals` in `verifier.c`): every
//! register carries a *type* ([`RegType`]) plus a known-bits [`Tnum`] and
//! signed/unsigned `[min, max]` ranges, states are propagated per branch
//! with conditional-jump refinement (a `jeq r1, 0` narrows a
//! possibly-null map-value pointer to null/non-null, comparisons narrow
//! scalar ranges), and joined or pruned where paths meet.
//!
//! The analysis produces two things:
//!
//! * **rejection** — it reports every [`VerifyError`] it finds (not just
//!   the first) as a [`Diagnostic`] with the register state at the point
//!   of rejection, including the one rejection class structural checks
//!   cannot see: a register divisor whose range contains zero;
//! * **explanation** — the joined register state at every reachable
//!   instruction is retained for annotated disassembly (`vnt verify`):
//!   the state on an access's line is why the verifier accepted it.
//!
//! [`analyze`] returns both. The loader asks for the rejection alone: it
//! runs the same walk recording only which instructions some path
//! reaches, as the kernel verifier builds its per-instruction log only
//! when the loader asks for one.
//!
//! Soundness contract: on every register live at an instruction (one
//! some path from it reads before writing it), the states there cover
//! every path reaching it (joins and pruning over-approximate), so a
//! program is rejected whenever some path may read an uninitialised
//! register, helper arguments included, divide by a register that may
//! be zero or fall off the end. A dead register's state joins only the
//! states the walk kept. It proves
//! nothing for execution to rely on: every memory access stays
//! runtime-checked in both tiers. Because the CFG is a DAG
//! (no back-edges), visiting instructions in index order is a
//! topological walk and the analysis terminates without widening.

use crate::insn::*;
use crate::tnum::Tnum;
use crate::verifier::VerifyError;
use crate::vm::{helper_args, helper_ids};

/// Per-instruction-pointer cap on distinct branch states; beyond it all
/// states at that instruction are joined into one summary state. Keeps the
/// walk linear on branch-heavy programs (e.g. a 2^k-path option scan).
const STATE_CAP: usize = 48;

/// What a register holds, as proved by the analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegType {
    /// Never written on some path reaching here; reading it is an error.
    Uninit,
    /// A plain number (also the fallback for anything unclassifiable —
    /// accesses through it are bounds-checked at runtime).
    Scalar,
    /// Pointer into the trace context; offset tracked from its base.
    PtrToCtx,
    /// Pointer into the 512-byte stack frame; offset tracked from the
    /// frame *bottom* (so the frame pointer itself has offset 512).
    PtrToStack,
    /// Non-null pointer into a map value slot of the given map fd.
    PtrToMapValue {
        /// The map file descriptor the pointer belongs to.
        fd: i32,
    },
    /// Result of `map_lookup_elem`: either null or a map-value pointer.
    /// A null check on it splits it into `0` and [`RegType::PtrToMapValue`].
    PtrToMapValueOrNull {
        /// The map file descriptor the pointer belongs to.
        fd: i32,
    },
    /// The relocated map handle loaded by `lddw src=1` (pseudo map fd).
    ConstPtrToMap {
        /// The map file descriptor the handle names.
        fd: i32,
    },
}

/// The abstract value of one register: a type plus, for scalars, the
/// value's known bits and ranges — for pointers, the same for the byte
/// *offset* from the region base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegState {
    /// What the register holds.
    pub ty: RegType,
    /// Known bits of the value (scalars) or region offset (pointers).
    pub tnum: Tnum,
    /// Unsigned minimum of the value/offset.
    pub umin: u64,
    /// Unsigned maximum of the value/offset.
    pub umax: u64,
    /// Signed minimum (scalars only; pointers keep the full range).
    pub smin: i64,
    /// Signed maximum (scalars only; pointers keep the full range).
    pub smax: i64,
}

impl RegState {
    /// An unwritten register.
    pub const fn uninit() -> Self {
        RegState {
            ty: RegType::Uninit,
            tnum: Tnum::unknown(),
            umin: 0,
            umax: u64::MAX,
            smin: i64::MIN,
            smax: i64::MAX,
        }
    }

    /// A scalar about which nothing is known.
    pub const fn unknown() -> Self {
        RegState {
            ty: RegType::Scalar,
            tnum: Tnum::unknown(),
            umin: 0,
            umax: u64::MAX,
            smin: i64::MIN,
            smax: i64::MAX,
        }
    }

    /// An exactly-known scalar.
    pub const fn constant(v: u64) -> Self {
        RegState {
            ty: RegType::Scalar,
            tnum: Tnum::constant(v),
            umin: v,
            umax: v,
            smin: v as i64,
            smax: v as i64,
        }
    }

    /// A scalar known only to fit in the low `bits` bits (load results,
    /// byte swaps).
    pub fn unknown_width(bits: u32) -> Self {
        if bits >= 64 {
            return RegState::unknown();
        }
        let mask = (1u64 << bits) - 1;
        RegState {
            ty: RegType::Scalar,
            tnum: Tnum { value: 0, mask },
            umin: 0,
            umax: mask,
            smin: 0,
            smax: mask as i64,
        }
    }

    /// A pointer of type `ty` at offset 0 from its region base.
    pub const fn ptr(ty: RegType) -> Self {
        RegState {
            ty,
            tnum: Tnum::constant(0),
            umin: 0,
            umax: 0,
            smin: i64::MIN,
            smax: i64::MAX,
        }
    }

    /// A pointer of type `ty` at a known constant offset.
    pub const fn ptr_at(ty: RegType, off: u64) -> Self {
        RegState {
            ty,
            tnum: Tnum::constant(off),
            umin: off,
            umax: off,
            smin: i64::MIN,
            smax: i64::MAX,
        }
    }

    /// True when the register was written on every path.
    pub fn is_init(&self) -> bool {
        self.ty != RegType::Uninit
    }

    fn is_region_ptr(&self) -> bool {
        matches!(
            self.ty,
            RegType::PtrToCtx | RegType::PtrToStack | RegType::PtrToMapValue { .. }
        )
    }

    /// Tightens ranges against each other and the tnum. Returns `false`
    /// when the constraints are contradictory (the state is infeasible).
    fn normalize(&mut self) -> bool {
        self.umin = self.umin.max(self.tnum.umin());
        self.umax = self.umax.min(self.tnum.umax());
        if self.ty == RegType::Scalar {
            // Where sign is settled, signed and unsigned orders agree.
            if self.smin >= 0 {
                self.umin = self.umin.max(self.smin as u64);
                self.umax = self.umax.min(self.smax as u64);
            }
            if self.smax < 0 {
                self.umin = self.umin.max(self.smin as u64);
                self.umax = self.umax.min(self.smax as u64);
            }
            if self.umax <= i64::MAX as u64 {
                self.smin = self.smin.max(self.umin as i64);
                self.smax = self.smax.min(self.umax as i64);
            }
            if self.smin > self.smax {
                return false;
            }
        }
        if self.umin > self.umax {
            return false;
        }
        if self.umin == self.umax && !self.tnum.is_const() {
            self.tnum = Tnum::constant(self.umin);
        }
        true
    }

    /// Is the value provably nonzero (for 64-bit division)?
    fn nonzero64(&self) -> bool {
        self.ty == RegType::Scalar && (self.umin > 0 || self.tnum.value != 0)
    }

    /// Are the low 32 bits provably nonzero (for 32-bit division)?
    fn nonzero32(&self) -> bool {
        self.ty == RegType::Scalar
            && (self.tnum.subreg().value != 0 || (self.umax <= u32::MAX as u64 && self.umin > 0))
    }

    /// Least upper bound of two register states.
    fn join(&self, other: &RegState) -> RegState {
        use RegType::*;
        if self == other {
            return *self;
        }
        let ranges = |a: &RegState, b: &RegState, ty: RegType| RegState {
            ty,
            tnum: a.tnum.join(b.tnum),
            umin: a.umin.min(b.umin),
            umax: a.umax.max(b.umax),
            smin: a.smin.min(b.smin),
            smax: a.smax.max(b.smax),
        };
        match (self.ty, other.ty) {
            (Uninit, _) | (_, Uninit) => RegState::uninit(),
            (a, b) if a == b => ranges(self, other, a),
            // A proven pointer joined with its possibly-null form keeps
            // the possibly-null form; a known zero joined with either is
            // exactly "null or valid", which is what OrNull means.
            (PtrToMapValue { fd: f1 }, PtrToMapValueOrNull { fd: f2 }) if f1 == f2 => {
                ranges(self, other, PtrToMapValueOrNull { fd: f1 })
            }
            (PtrToMapValueOrNull { fd: f1 }, PtrToMapValue { fd: f2 }) if f1 == f2 => {
                ranges(self, other, PtrToMapValueOrNull { fd: f1 })
            }
            (Scalar, PtrToMapValue { fd } | PtrToMapValueOrNull { fd })
                if self.umin == 0 && self.umax == 0 =>
            {
                let mut r = *other;
                r.ty = PtrToMapValueOrNull { fd };
                r
            }
            (PtrToMapValue { fd } | PtrToMapValueOrNull { fd }, Scalar)
                if other.umin == 0 && other.umax == 0 =>
            {
                let mut r = *self;
                r.ty = PtrToMapValueOrNull { fd };
                r
            }
            // Mixed types degrade to an unknown scalar: sound in the flat
            // simulator address space, where every access through an
            // unclassified register stays runtime-checked.
            _ => RegState::unknown(),
        }
    }

    /// True when every concrete value of `self` is covered by `other`
    /// *and* `other` is at least as pessimistic (so pruning `self` can
    /// neither hide an error nor narrow a joined state).
    fn subsumed_by(&self, other: &RegState) -> bool {
        use RegType::*;
        match (self.ty, other.ty) {
            (_, Uninit) => true,
            (Uninit, _) => false,
            // Within one type the unknown scalar needs no case of its
            // own: every scalar lies within its full ranges.
            (a, b) if a == b => {
                self.tnum.is_subset_of(&other.tnum)
                    && self.umin >= other.umin
                    && self.umax <= other.umax
                    && self.smin >= other.smin
                    && self.smax <= other.smax
            }
            _ if *other == RegState::unknown() => true,
            (PtrToMapValue { fd: f1 }, PtrToMapValueOrNull { fd: f2 }) if f1 == f2 => {
                self.tnum.is_subset_of(&other.tnum)
                    && self.umin >= other.umin
                    && self.umax <= other.umax
            }
            (Scalar, PtrToMapValueOrNull { .. }) => self.umin == 0 && self.umax == 0,
            _ => false,
        }
    }
}

impl core::fmt::Display for RegState {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        use RegType::*;
        let off = |f: &mut core::fmt::Formatter<'_>, s: &RegState| -> core::fmt::Result {
            if s.tnum.is_const() {
                write!(f, "{:+}", s.tnum.value as i64)
            } else {
                write!(f, "+[{},{}]", s.umin, s.umax)
            }
        };
        match self.ty {
            Uninit => f.write_str("?"),
            Scalar => {
                if self.tnum.is_const() {
                    write!(f, "{}", self.tnum.value as i64)
                } else if *self == RegState::unknown() {
                    f.write_str("scalar")
                } else if self.umax <= i64::MAX as u64 {
                    write!(f, "scalar[{},{}]", self.umin, self.umax)
                } else {
                    write!(f, "scalar(tnum={})", self.tnum)
                }
            }
            PtrToCtx => {
                f.write_str("ctx")?;
                off(f, self)
            }
            PtrToStack => {
                if self.tnum.is_const() {
                    write!(f, "fp{:+}", self.tnum.value as i64 - STACK_SIZE as i64)
                } else {
                    write!(f, "stack+[{},{}]", self.umin, self.umax)
                }
            }
            PtrToMapValue { fd } => {
                write!(f, "map_value(fd={fd})")?;
                off(f, self)
            }
            PtrToMapValueOrNull { fd } => write!(f, "map_value_or_null(fd={fd})"),
            ConstPtrToMap { fd } => write!(f, "map_ptr(fd={fd})"),
        }
    }
}

/// One rejection, with the register state that triggered it.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// The error itself.
    pub error: VerifyError,
    /// The instruction index the error is anchored to.
    pub insn: usize,
    /// Register state on the offending path (absent for structural
    /// errors, which are found before any path is walked).
    pub regs: Option<[RegState; NUM_REGS]>,
}

/// The artifact of verification: all diagnostics, and the joined
/// register states for annotation.
#[derive(Debug, Clone)]
pub struct Analysis {
    diagnostics: Vec<Diagnostic>,
    states: Vec<Option<Box<[RegState; NUM_REGS]>>>,
}

impl Analysis {
    /// True when the program verified cleanly.
    pub fn ok(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// All rejections, in discovery (instruction) order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// The join of all register states reaching `pc` (None: unreachable).
    pub fn state_at(&self, pc: usize) -> Option<&[RegState; NUM_REGS]> {
        self.states.get(pc).and_then(|s| s.as_deref())
    }
}

const ALU_OPS: [u8; 13] = [
    BPF_ADD, BPF_SUB, BPF_MUL, BPF_DIV, BPF_OR, BPF_AND, BPF_LSH, BPF_RSH, BPF_NEG, BPF_MOD,
    BPF_XOR, BPF_MOV, BPF_ARSH,
];
const JMP_OPS: [u8; 13] = [
    BPF_JA, BPF_JEQ, BPF_JGT, BPF_JGE, BPF_JSET, BPF_JNE, BPF_JSGT, BPF_JSGE, BPF_JLT, BPF_JLE,
    BPF_JSLT, BPF_JSLE, BPF_CALL,
];

fn size_bytes(opcode: u8) -> usize {
    match opcode & 0x18 {
        BPF_W => 4,
        BPF_H => 2,
        BPF_B => 1,
        _ => 8, // BPF_DW
    }
}

fn check_stack(off: i16, size: usize, insn: usize) -> Result<(), VerifyError> {
    let off = off as i32;
    if off >= 0 || off < -(STACK_SIZE as i32) || off + size as i32 > 0 {
        return Err(VerifyError::InvalidStackAccess { off, insn });
    }
    Ok(())
}

/// Pass 1: structural checks, collecting *all* errors (at most one per
/// instruction, in the same intra-instruction order the verifier has
/// always used so the first diagnostic matches the old first error).
/// Returns the errors and the lddw-body map.
fn structural(insns: &[Insn], helpers: &[i32]) -> (Vec<VerifyError>, Vec<bool>) {
    let mut errs = Vec::new();
    let mut is_lddw_body = vec![false; insns.len()];
    {
        let mut i = 0;
        while i < insns.len() {
            let insn = &insns[i];
            if insn.is_lddw() {
                if i + 1 >= insns.len() {
                    errs.push(VerifyError::TruncatedLddw(i));
                    break;
                }
                let body = &insns[i + 1];
                if body.opcode != 0 || body.dst != 0 || body.src != 0 || body.off != 0 {
                    errs.push(VerifyError::TruncatedLddw(i));
                }
                is_lddw_body[i + 1] = true;
                i += 2;
            } else {
                i += 1;
            }
        }
    }

    for (i, insn) in insns.iter().enumerate() {
        if is_lddw_body[i] {
            continue;
        }
        if let Err(e) = structural_insn(insns, &is_lddw_body, helpers, i, insn) {
            errs.push(e);
        }
    }
    (errs, is_lddw_body)
}

fn structural_insn(
    insns: &[Insn],
    is_lddw_body: &[bool],
    helpers: &[i32],
    i: usize,
    insn: &Insn,
) -> Result<(), VerifyError> {
    if insn.dst as usize >= NUM_REGS {
        return Err(VerifyError::BadRegister {
            reg: insn.dst,
            insn: i,
        });
    }
    if insn.src as usize >= NUM_REGS && !insn.is_lddw() {
        return Err(VerifyError::BadRegister {
            reg: insn.src,
            insn: i,
        });
    }
    let bad = || VerifyError::BadOpcode {
        opcode: insn.opcode,
        insn: i,
    };
    match insn.class() {
        BPF_ALU | BPF_ALU64 => {
            let op = insn.opcode & 0xf0;
            if op == BPF_END {
                if !matches!(insn.imm, 16 | 32 | 64) {
                    return Err(bad());
                }
            } else if !ALU_OPS.contains(&op) {
                return Err(bad());
            }
            if (op == BPF_DIV || op == BPF_MOD) && insn.opcode & 0x08 == BPF_K && insn.imm == 0 {
                return Err(VerifyError::DivisionByZero(i));
            }
            if insn.dst == REG_FP {
                return Err(VerifyError::WriteToFramePointer(i));
            }
        }
        BPF_JMP | BPF_JMP32 => {
            let op = insn.opcode & 0xf0;
            if op == BPF_EXIT {
                if insn.class() != BPF_JMP {
                    return Err(bad());
                }
                return Ok(());
            }
            if !JMP_OPS.contains(&op) {
                return Err(bad());
            }
            if op == BPF_CALL {
                if insn.class() != BPF_JMP {
                    return Err(bad());
                }
                if !helpers.contains(&insn.imm) {
                    return Err(VerifyError::UnknownHelper {
                        id: insn.imm,
                        insn: i,
                    });
                }
                return Ok(());
            }
            if insn.off < 0 {
                return Err(VerifyError::BackwardJump(i));
            }
            let target = i as i64 + 1 + insn.off as i64;
            if target < 0 || target as usize >= insns.len() {
                return Err(VerifyError::JumpOutOfBounds(i));
            }
            if is_lddw_body[target as usize] {
                return Err(VerifyError::JumpIntoLddw(i));
            }
        }
        BPF_LD => {
            if !insn.is_lddw() {
                return Err(bad());
            }
            if insn.dst == REG_FP {
                return Err(VerifyError::WriteToFramePointer(i));
            }
        }
        BPF_LDX => {
            if insn.opcode & 0xe0 != BPF_MEM {
                return Err(bad());
            }
            if insn.dst == REG_FP {
                return Err(VerifyError::WriteToFramePointer(i));
            }
            if insn.src == REG_FP {
                check_stack(insn.off, size_bytes(insn.opcode), i)?;
            }
        }
        BPF_ST | BPF_STX => {
            let mode = insn.opcode & 0xe0;
            let atomic = mode == BPF_ATOMIC && insn.class() == BPF_STX;
            if mode != BPF_MEM && !atomic {
                return Err(bad());
            }
            if atomic {
                // Only ADD (optionally with FETCH) on W/DW is implemented,
                // as in pre-5.12 kernels (BPF_XADD).
                let sz = insn.opcode & 0x18;
                if (sz != BPF_W && sz != BPF_DW) || (insn.imm & !BPF_FETCH) != BPF_ADD as i32 {
                    return Err(bad());
                }
            }
            if insn.dst == REG_FP {
                check_stack(insn.off, size_bytes(insn.opcode), i)?;
            }
        }
        _ => return Err(bad()),
    }
    Ok(())
}

type Regs = [RegState; NUM_REGS];

/// Runs the full verification analysis: every diagnostic, and the joined
/// register state at every reachable instruction.
pub fn analyze(insns: &[Insn], helpers: &[i32]) -> Analysis {
    let mut states = vec![None; insns.len()];
    let diagnostics = walk(insns, helpers, |pc, kept| {
        states[pc] = Some(Box::new(join_all(kept)));
    });
    Analysis {
        diagnostics,
        states,
    }
}

/// What the loader needs from the verifier: the diagnostics [`analyze`]
/// reports, and which instructions some path reaches. Like the kernel
/// verifier run without a log, it keeps no register state.
#[derive(Debug)]
pub(crate) struct Verdict {
    /// Every rejection, exactly as [`Analysis::diagnostics`] lists them.
    pub(crate) diagnostics: Vec<Diagnostic>,
    /// `reachable[pc]` is [`Analysis::state_at`]`(pc).is_some()`.
    pub(crate) reachable: Vec<bool>,
}

/// The walk of [`analyze`], recording reachability instead of states.
pub(crate) fn verdict(insns: &[Insn], helpers: &[i32]) -> Verdict {
    let mut reachable = vec![false; insns.len()];
    let diagnostics = walk(insns, helpers, |pc, _| reachable[pc] = true);
    Verdict {
        diagnostics,
        reachable,
    }
}

/// The join of `states`, which is not empty.
fn join_all(states: &[Regs]) -> Regs {
    let mut sum = states[0];
    for st in &states[1..] {
        for (a, b) in sum.iter_mut().zip(st.iter()) {
            *a = a.join(b);
        }
    }
    sum
}

/// The verifier's one walk. It returns every diagnostic and hands
/// `record` each reachable instruction with the states kept there after
/// pruning and the cap; what the caller keeps of them changes nothing
/// the walk finds.
fn walk(
    insns: &[Insn],
    helpers: &[i32],
    mut record: impl FnMut(usize, &[Regs]),
) -> Vec<Diagnostic> {
    let mut diagnostics = Vec::new();
    if insns.is_empty() {
        diagnostics.push(Diagnostic {
            error: VerifyError::Empty,
            insn: 0,
            regs: None,
        });
        return diagnostics;
    }
    if insns.len() > MAX_INSNS {
        diagnostics.push(Diagnostic {
            error: VerifyError::TooLong(insns.len()),
            insn: 0,
            regs: None,
        });
        return diagnostics;
    }

    let (structural_errs, is_lddw_body) = structural(insns, helpers);
    if !structural_errs.is_empty() {
        for e in structural_errs {
            let insn = e.insn().unwrap_or(0);
            diagnostics.push(Diagnostic {
                error: e,
                insn,
                regs: None,
            });
        }
        // Malformed programs cannot be walked safely (jump targets or
        // opcodes may be invalid); report the structural errors alone.
        return diagnostics;
    }

    let len = insns.len();
    let live = live_regs(insns, &is_lddw_body);
    let mut pending = Pending {
        at: vec![Vec::new(); len],
        spare: Vec::new(),
    };
    // Register check order for pruning, local to this walk.
    let mut order: [usize; NUM_REGS] = core::array::from_fn(|r| r);

    let mut entry = [RegState::uninit(); NUM_REGS];
    entry[1] = RegState::ptr(RegType::PtrToCtx);
    entry[REG_FP as usize] = RegState::ptr_at(RegType::PtrToStack, STACK_SIZE as u64);
    pending.push(0, &entry);

    let mut diag = |diags: &mut Vec<Diagnostic>, e: VerifyError, pc: usize, regs: &Regs| {
        if !diags.iter().any(|d| d.error == e) {
            diags.push(Diagnostic {
                error: e,
                insn: pc,
                regs: Some(*regs),
            });
        }
    };

    // The CFG has no back-edges, so instruction order is topological:
    // by the time we reach pc every predecessor has already pushed its
    // state, and each pc is processed exactly once.
    for pc in 0..len {
        if is_lddw_body[pc] {
            continue;
        }
        let mut kept = std::mem::take(&mut pending.at[pc]);
        if kept.is_empty() {
            continue; // unreachable
        }
        // Prune states subsumed by an earlier-kept one on the registers
        // live here, cap the rest.
        prune(&mut kept, &mut order, live[pc]);
        if kept.len() > STATE_CAP {
            kept[0] = join_all(&kept);
            kept.truncate(1);
        }
        record(pc, &kept);

        for st in &kept {
            step(insns, pc, st, &mut pending, &mut diagnostics, &mut diag);
        }
        kept.clear();
        pending.spare.push(kept);
    }
    diagnostics
}

/// The states waiting at each instruction. A buffer whose instruction has
/// been walked goes back to `spare` and is handed to the next instruction
/// that receives a state, so the walk reuses a handful of buffers instead
/// of growing a fresh one at every instruction. A slot holds a buffer
/// exactly while it holds a state.
struct Pending {
    at: Vec<Vec<Regs>>,
    spare: Vec<Vec<Regs>>,
}

impl Pending {
    /// Appends a copy of `st` to the states waiting at `pc` and hands it
    /// back, so the successor is built where it will be walked.
    fn push(&mut self, pc: usize, st: &Regs) -> &mut Regs {
        let slot = &mut self.at[pc];
        if slot.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *slot = buf;
            }
        }
        slot.push(*st);
        slot.last_mut().expect("a state was just pushed")
    }

    /// Drops the state last pushed at `pc`: an edge found infeasible.
    fn pop(&mut self, pc: usize) {
        let slot = &mut self.at[pc];
        slot.pop();
        if slot.is_empty() {
            self.spare.push(std::mem::take(slot));
        }
    }
}

/// The registers live on entry to each instruction, as a bit mask: those
/// some path from it reads before writing. A use is an operand read,
/// `r0` at `exit`, or at a call the helper's arguments `r1`..`rN`; a
/// call defines `r0`–`r5`. Every edge points forward, so one pass in
/// reverse index order sees each successor before its predecessors.
fn live_regs(insns: &[Insn], is_lddw_body: &[bool]) -> Vec<u16> {
    let len = insns.len();
    let mut live = vec![0u16; len];
    let at = |live: &[u16], pc: usize| live.get(pc).copied().unwrap_or(0);
    for pc in (0..len).rev() {
        if is_lddw_body[pc] {
            continue;
        }
        let insn = &insns[pc];
        // An `lddw`'s `src` is a pseudo-source tag, not a register, and
        // is unchecked; masking keeps its unused bit in range.
        let (dst, src) = (1u16 << insn.dst, 1u16 << (insn.src & 0xf));
        let is_x = insn.opcode & 0x08 == BPF_X;
        let operand = if is_x { src } else { 0 };
        // (uses, defs, live after)
        let (uses, defs, out) = match insn.class() {
            BPF_ALU | BPF_ALU64 => {
                let uses = match insn.opcode & 0xf0 {
                    BPF_MOV => operand,
                    BPF_NEG | BPF_END => dst,
                    _ => dst | operand,
                };
                (uses, dst, at(&live, pc + 1))
            }
            BPF_LD => (0, dst, at(&live, pc + 2)),
            BPF_LDX => (src, dst, at(&live, pc + 1)),
            BPF_ST => (dst, 0, at(&live, pc + 1)),
            BPF_STX => (dst | src, 0, at(&live, pc + 1)),
            _ => match insn.opcode & 0xf0 {
                BPF_EXIT => (1, 0, 0),
                BPF_CALL => {
                    let args = (1u16 << (helper_args(insn.imm) + 1)) - 2;
                    (args, 0x3f, at(&live, pc + 1))
                }
                BPF_JA => (0, 0, at(&live, pc + 1 + insn.off as usize)),
                _ => {
                    let taken = at(&live, pc + 1 + insn.off as usize);
                    (dst | operand, 0, at(&live, pc + 1) | taken)
                }
            },
        };
        live[pc] = uses | (out & !defs);
    }
    live
}

/// Drops, in place and keeping the order of the rest, every state
/// subsumed by an earlier kept one on the registers in `live`; a kept
/// state is copied down only past a dropped one. A
/// register no later instruction reads before writing it cannot change
/// what the walk from here finds, so a state that differs from a kept
/// one only there adds nothing.
///
/// Subsumption is a conjunction over registers, so the order in which
/// the registers are checked cannot change the answer. `order` moves the
/// register that refuted the last test to the front: the states the walk
/// produces mostly differ in the same few registers, so a failing test
/// usually fails on its first check.
fn prune(states: &mut Vec<Regs>, order: &mut [usize; NUM_REGS], live: u16) {
    let mut kept = 0;
    for i in 0..states.len() {
        let (head, tail) = states.split_at(i);
        let covered = head[..kept].iter().any(|k| {
            let refutes = |&r: &usize| live & 1 << r != 0 && !tail[0][r].subsumed_by(&k[r]);
            match order.iter().position(refutes) {
                Some(j) => {
                    order[..=j].rotate_right(1);
                    false
                }
                None => true,
            }
        });
        if !covered {
            if kept != i {
                states[kept] = states[i];
            }
            kept += 1;
        }
    }
    states.truncate(kept);
}

/// Abstractly executes `insns[pc]` on `st`, pushing successor states and
/// reporting diagnostics. A state that errors is dropped (not
/// propagated): the program is rejected anyway.
///
/// `st` is read, never moved: each successor is one copy of it, pushed
/// into the slot of the instruction it reaches and edited there, so a
/// 616-byte state is copied once per edge and not again on the way.
fn step<D>(
    insns: &[Insn],
    pc: usize,
    st: &Regs,
    pending: &mut Pending,
    diags: &mut Vec<Diagnostic>,
    diag: &mut D,
) where
    D: FnMut(&mut Vec<Diagnostic>, VerifyError, usize, &Regs),
{
    let insn = &insns[pc];
    let len = insns.len();
    macro_rules! require {
        ($reg:expr) => {
            if !st[$reg as usize].is_init() {
                diag(
                    diags,
                    VerifyError::UninitializedRegister {
                        reg: $reg,
                        insn: pc,
                    },
                    pc,
                    st,
                );
                return;
            }
        };
    }
    // The successor at `$to`: a copy of `st` edited by `$edit` in its
    // pending slot. Past the last instruction the same edit is made to a
    // local copy, which the diagnostic records.
    macro_rules! goto {
        ($to:expr) => {
            goto!($to, |_s| ())
        };
        ($to:expr, |$s:ident| $edit:expr) => {{
            let to = $to;
            if to < len {
                let $s = pending.push(to, st);
                $edit;
            } else {
                let mut local = *st;
                let $s = &mut local;
                $edit;
                diag(diags, VerifyError::FallsOffEnd(pc), pc, $s);
            }
        }};
    }

    let dst = insn.dst as usize;
    let src = insn.src as usize;
    match insn.class() {
        BPF_ALU | BPF_ALU64 => {
            let op = insn.opcode & 0xf0;
            let is64 = insn.class() == BPF_ALU64;
            let is_x = insn.opcode & 0x08 == BPF_X;
            let v = match op {
                BPF_MOV => {
                    if is_x {
                        require!(insn.src);
                        if is64 {
                            st[src]
                        } else {
                            truncate32(&st[src])
                        }
                    } else if is64 {
                        RegState::constant(insn.imm as i64 as u64)
                    } else {
                        RegState::constant(insn.imm as u32 as u64)
                    }
                }
                BPF_NEG => {
                    require!(insn.dst);
                    alu_transfer(BPF_SUB, is64, &RegState::constant(0), &st[dst])
                }
                BPF_END => {
                    require!(insn.dst);
                    RegState::unknown_width(insn.imm as u32)
                }
                _ => {
                    require!(insn.dst);
                    if is_x {
                        require!(insn.src);
                    }
                    let rhs = if is_x {
                        st[src]
                    } else if is64 {
                        RegState::constant(insn.imm as i64 as u64)
                    } else {
                        RegState::constant(insn.imm as u32 as u64)
                    };
                    if (op == BPF_DIV || op == BPF_MOD) && is_x {
                        let ok = if is64 {
                            rhs.nonzero64()
                        } else {
                            rhs.nonzero32()
                        };
                        if !ok {
                            diag(
                                diags,
                                VerifyError::DivisorMayBeZero {
                                    reg: insn.src,
                                    insn: pc,
                                },
                                pc,
                                st,
                            );
                            return;
                        }
                    }
                    alu_transfer(op, is64, &st[dst], &rhs)
                }
            };
            goto!(pc + 1, |s| s[dst] = v);
        }
        BPF_LD => {
            // lddw (structurally guaranteed).
            let v = if insn.src == PSEUDO_MAP_FD {
                RegState::ptr(RegType::ConstPtrToMap { fd: insn.imm })
            } else {
                let lo = insns[pc].imm as u32 as u64;
                let hi = insns[pc + 1].imm as u32 as u64;
                RegState::constant((hi << 32) | lo)
            };
            goto!(pc + 2, |s| s[dst] = v);
        }
        BPF_LDX => {
            require!(insn.src);
            let v = RegState::unknown_width(size_bytes(insn.opcode) as u32 * 8);
            goto!(pc + 1, |s| s[dst] = v);
        }
        BPF_ST => {
            require!(insn.dst);
            goto!(pc + 1);
        }
        BPF_STX => {
            require!(insn.dst);
            require!(insn.src);
            if insn.opcode & 0xe0 == BPF_ATOMIC && insn.imm & BPF_FETCH != 0 {
                let v = RegState::unknown_width(size_bytes(insn.opcode) as u32 * 8);
                goto!(pc + 1, |s| s[src] = v);
            } else {
                goto!(pc + 1);
            }
        }
        BPF_JMP | BPF_JMP32 => {
            let op = insn.opcode & 0xf0;
            match op {
                BPF_EXIT => {
                    require!(0u8);
                }
                BPF_CALL => {
                    // The helper reads its arguments, `r1`..`rN`.
                    for r in 1..=helper_args(insn.imm) {
                        require!(r as u8);
                    }
                    let r0 = if insn.imm == helper_ids::MAP_LOOKUP_ELEM {
                        match st[1].ty {
                            RegType::ConstPtrToMap { fd } => {
                                RegState::ptr(RegType::PtrToMapValueOrNull { fd })
                            }
                            _ => RegState::unknown(),
                        }
                    } else {
                        RegState::unknown()
                    };
                    goto!(pc + 1, |s| {
                        s[0] = r0;
                        s[1..=5].fill(RegState::uninit());
                    });
                }
                BPF_JA => {
                    pending.push(pc + 1 + insn.off as usize, st);
                }
                _ => {
                    require!(insn.dst);
                    let is_x = insn.opcode & 0x08 == BPF_X;
                    if is_x {
                        require!(insn.src);
                    }
                    let is32 = insn.class() == BPF_JMP32;
                    // The structural pass keeps the target in bounds, and
                    // the fall-through comes no later, so neither edge
                    // falls off the end. Each edge refines its own copy of
                    // `st`, taken first; an infeasible one is dropped again.
                    let target = pc + 1 + insn.off as usize;
                    for (to, outcome) in [(target, true), (pc + 1, false)] {
                        if !refine_branch(pending.push(to, st), insn, is32, outcome) {
                            pending.pop(to);
                        }
                    }
                }
            }
        }
        _ => unreachable!("structural pass validated classes"),
    }
}

/// Truncation to the low 32 bits with zero extension (ALU32 results).
fn truncate32(r: &RegState) -> RegState {
    if r.ty != RegType::Scalar {
        return RegState::unknown_width(32);
    }
    let tnum = r.tnum.subreg();
    let mut out = RegState {
        ty: RegType::Scalar,
        tnum,
        umin: tnum.umin(),
        umax: tnum.umax(),
        smin: 0,
        smax: u32::MAX as i64,
    };
    if r.umax <= u32::MAX as u64 {
        // The value already fit: truncation preserved it.
        out.umin = out.umin.max(r.umin);
        out.umax = out.umax.min(r.umax);
    }
    out.smin = 0;
    out.smax = out.umax as i64;
    if !out.normalize() {
        return RegState::unknown_width(32);
    }
    out
}

/// ALU transfer function for everything except MOV/NEG/END (handled by
/// the caller). Pointer arithmetic supports `ptr ± scalar` (and
/// `scalar + ptr`); every other pointer operation degrades to an unknown
/// scalar, whose accesses stay runtime-checked.
fn alu_transfer(op: u8, is64: bool, d: &RegState, r: &RegState) -> RegState {
    use RegType::Scalar;
    if is64 {
        match op {
            BPF_ADD if d.is_region_ptr() && r.ty == Scalar => return ptr_offset(d, r, false),
            BPF_ADD if d.ty == Scalar && r.is_region_ptr() => return ptr_offset(r, d, false),
            BPF_SUB if d.is_region_ptr() && r.ty == Scalar => return ptr_offset(d, r, true),
            _ => {}
        }
    }
    if d.ty != Scalar || r.ty != Scalar {
        return if is64 {
            RegState::unknown()
        } else {
            RegState::unknown_width(32)
        };
    }
    if is64 {
        let mut out = scalar_alu(op, d, r, 63);
        if !out.normalize() {
            return RegState::unknown();
        }
        out
    } else {
        let d32 = truncate32(d);
        let r32 = truncate32(r);
        truncate32(&scalar_alu(op, &d32, &r32, 31))
    }
}

/// `ptr ± scalar`: the region offset moves, the type is preserved.
fn ptr_offset(ptr: &RegState, delta: &RegState, sub: bool) -> RegState {
    let tnum = if sub {
        ptr.tnum.sub(delta.tnum)
    } else {
        ptr.tnum.add(delta.tnum)
    };
    let bounds = if sub {
        (
            ptr.umin.checked_sub(delta.umax),
            ptr.umax.checked_sub(delta.umin),
        )
    } else {
        (
            ptr.umin.checked_add(delta.umin),
            ptr.umax.checked_add(delta.umax),
        )
    };
    let (umin, umax) = match bounds {
        (Some(lo), Some(hi)) => (lo.max(tnum.umin()), hi.min(tnum.umax())),
        _ => (tnum.umin(), tnum.umax()),
    };
    RegState {
        ty: ptr.ty,
        tnum,
        umin,
        umax,
        smin: i64::MIN,
        smax: i64::MAX,
    }
}

/// Scalar × scalar transfer. `shift_mask` is 63 (64-bit) or 31 (32-bit).
fn scalar_alu(op: u8, d: &RegState, r: &RegState, shift_mask: u32) -> RegState {
    let mut out = RegState::unknown();
    match op {
        BPF_ADD => {
            out.tnum = d.tnum.add(r.tnum);
            if let (Some(lo), Some(hi)) = (d.umin.checked_add(r.umin), d.umax.checked_add(r.umax)) {
                out.umin = lo;
                out.umax = hi;
            }
            if let (Some(lo), Some(hi)) = (d.smin.checked_add(r.smin), d.smax.checked_add(r.smax)) {
                out.smin = lo;
                out.smax = hi;
            }
        }
        BPF_SUB => {
            out.tnum = d.tnum.sub(r.tnum);
            if let (Some(lo), Some(hi)) = (d.umin.checked_sub(r.umax), d.umax.checked_sub(r.umin)) {
                out.umin = lo;
                out.umax = hi;
            }
            if let (Some(lo), Some(hi)) = (d.smin.checked_sub(r.smax), d.smax.checked_sub(r.smin)) {
                out.smin = lo;
                out.smax = hi;
            }
        }
        BPF_MUL => {
            out.tnum = d.tnum.mul(r.tnum);
        }
        BPF_DIV | BPF_MOD => {
            // Exact only when both operands are constants (matching the
            // interpreter's div-by-zero semantics: div → 0, mod → lhs).
            if d.tnum.is_const() && r.tnum.is_const() {
                let (a, b) = (d.tnum.value, r.tnum.value);
                let v = match (op, b) {
                    (BPF_DIV, 0) => 0,
                    (BPF_MOD, 0) => a,
                    (BPF_DIV, _) => a / b,
                    (BPF_MOD, _) => a % b,
                    _ => unreachable!(),
                };
                return RegState::constant(v);
            }
            // Unsigned div/mod never grows the dividend (with the
            // rhs == 0 semantics above, the result is still ≤ lhs).
            out.umax = d.umax;
            if d.umax <= i64::MAX as u64 {
                out.smin = 0;
                out.smax = d.umax as i64;
            }
        }
        BPF_OR => {
            out.tnum = d.tnum.or(r.tnum);
            out.umin = d.umin.max(r.umin).max(out.tnum.umin());
            out.umax = out.tnum.umax();
        }
        BPF_AND => {
            out.tnum = d.tnum.and(r.tnum);
            out.umin = out.tnum.umin();
            out.umax = d.umax.min(r.umax).min(out.tnum.umax());
        }
        BPF_XOR => {
            out.tnum = d.tnum.xor(r.tnum);
            out.umin = out.tnum.umin();
            out.umax = out.tnum.umax();
        }
        BPF_LSH | BPF_RSH | BPF_ARSH => {
            if !r.tnum.is_const() {
                return RegState::unknown();
            }
            let sh = (r.tnum.value as u32) & shift_mask;
            match op {
                BPF_LSH => {
                    out.tnum = d.tnum.lshift(sh);
                    if d.umax.leading_zeros() >= sh {
                        out.umin = d.umin << sh;
                        out.umax = d.umax << sh;
                    }
                }
                BPF_RSH => {
                    out.tnum = d.tnum.rshift(sh);
                    out.umin = d.umin >> sh;
                    out.umax = d.umax >> sh;
                }
                _ => {
                    out.tnum = d.tnum.arshift(sh);
                    out.smin = d.smin >> sh;
                    out.smax = d.smax >> sh;
                    out.umin = out.tnum.umin();
                    out.umax = out.tnum.umax();
                }
            }
        }
        _ => {}
    }
    out
}

/// The jump conditions, with `NSet` as the negation of `Set`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cond {
    Eq,
    Ne,
    Gt,
    Ge,
    Lt,
    Le,
    SGt,
    SGe,
    SLt,
    SLe,
    Set,
    NSet,
}

impl Cond {
    fn from_op(op: u8) -> Cond {
        match op {
            BPF_JEQ => Cond::Eq,
            BPF_JNE => Cond::Ne,
            BPF_JGT => Cond::Gt,
            BPF_JGE => Cond::Ge,
            BPF_JLT => Cond::Lt,
            BPF_JLE => Cond::Le,
            BPF_JSGT => Cond::SGt,
            BPF_JSGE => Cond::SGe,
            BPF_JSLT => Cond::SLt,
            BPF_JSLE => Cond::SLe,
            BPF_JSET => Cond::Set,
            _ => unreachable!("not a conditional jump"),
        }
    }

    fn negate(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Gt => Cond::Le,
            Cond::Le => Cond::Gt,
            Cond::Ge => Cond::Lt,
            Cond::Lt => Cond::Ge,
            Cond::SGt => Cond::SLe,
            Cond::SLe => Cond::SGt,
            Cond::SGe => Cond::SLt,
            Cond::SLt => Cond::SGe,
            Cond::Set => Cond::NSet,
            Cond::NSet => Cond::Set,
        }
    }

    fn is_signed(self) -> bool {
        matches!(self, Cond::SGt | Cond::SGe | Cond::SLt | Cond::SLe)
    }
}

/// Refines `st` in place to the register state on the `outcome` edge of
/// a conditional jump, and returns whether that edge is feasible (false:
/// the branch direction is statically decided, and `st` is to be
/// dropped). Refinement applies to scalars and to the null-check of a
/// possibly-null map-value pointer; comparisons involving any other
/// pointer refine nothing (both edges stay feasible with unchanged state)
/// — claiming less is always sound.
fn refine_branch(st: &mut Regs, insn: &Insn, is32: bool, outcome: bool) -> bool {
    let dst = insn.dst as usize;
    let is_x = insn.opcode & 0x08 == BPF_X;
    let cond = Cond::from_op(insn.opcode & 0xf0);
    let eff = if outcome { cond } else { cond.negate() };

    // Null-check narrowing: `if rX ==/!= 0` on a maybe-null map value.
    if !is32 && !is_x && insn.imm == 0 && matches!(cond, Cond::Eq | Cond::Ne) {
        if let RegType::PtrToMapValueOrNull { fd } = st[dst].ty {
            if matches!(eff, Cond::Eq) {
                st[dst] = RegState::constant(0);
            } else {
                st[dst].ty = RegType::PtrToMapValue { fd };
            }
            return true;
        }
    }

    let d = st[dst];
    let rhs_reg = is_x.then_some(insn.src as usize);
    let r = match rhs_reg {
        Some(s) => st[s],
        None => {
            if is32 {
                RegState::constant(insn.imm as u32 as u64)
            } else {
                RegState::constant(insn.imm as i64 as u64)
            }
        }
    };
    if d.ty != RegType::Scalar || r.ty != RegType::Scalar {
        return true; // pointers compare at runtime; no refinement
    }
    if is32 {
        // Narrow compares refine only when both operands provably fit in
        // 32 bits (then the low words *are* the values); signed narrow
        // compares additionally need the sign bit clear.
        let fits = d.umax <= u32::MAX as u64 && r.umax <= u32::MAX as u64;
        let signed_ok = d.umax <= i32::MAX as u64 && r.umax <= i32::MAX as u64;
        if !fits || (eff.is_signed() && !signed_ok) {
            return true;
        }
    }
    let Some((nd, nr)) = apply_cond(eff, d, r) else {
        return false;
    };
    st[dst] = nd;
    if let Some(s) = rhs_reg {
        st[s] = nr;
    }
    true
}

/// Narrows `d` and `r` under the assumption `d <cond> r` holds. Returns
/// `None` when the assumption is contradictory.
fn apply_cond(cond: Cond, mut d: RegState, mut r: RegState) -> Option<(RegState, RegState)> {
    match cond {
        Cond::Eq => {
            let tnum = d.tnum.meet(r.tnum)?;
            let m = RegState {
                ty: RegType::Scalar,
                tnum,
                umin: d.umin.max(r.umin),
                umax: d.umax.min(r.umax),
                smin: d.smin.max(r.smin),
                smax: d.smax.min(r.smax),
            };
            d = m;
            r = m;
        }
        Cond::Ne => {
            if d.tnum.is_const() && r.tnum.is_const() {
                if d.tnum.value == r.tnum.value {
                    return None;
                }
            } else if r.tnum.is_const() {
                nudge_ne(&mut d, r.tnum.value);
            } else if d.tnum.is_const() {
                nudge_ne(&mut r, d.tnum.value);
            }
        }
        Cond::Gt => {
            d.umin = d.umin.max(r.umin.checked_add(1)?);
            r.umax = r.umax.min(d.umax.checked_sub(1)?);
        }
        Cond::Ge => {
            d.umin = d.umin.max(r.umin);
            r.umax = r.umax.min(d.umax);
        }
        Cond::Lt => {
            d.umax = d.umax.min(r.umax.checked_sub(1)?);
            r.umin = r.umin.max(d.umin.checked_add(1)?);
        }
        Cond::Le => {
            d.umax = d.umax.min(r.umax);
            r.umin = r.umin.max(d.umin);
        }
        Cond::SGt => {
            d.smin = d.smin.max(r.smin.checked_add(1)?);
            r.smax = r.smax.min(d.smax.checked_sub(1)?);
        }
        Cond::SGe => {
            d.smin = d.smin.max(r.smin);
            r.smax = r.smax.min(d.smax);
        }
        Cond::SLt => {
            d.smax = d.smax.min(r.smax.checked_sub(1)?);
            r.smin = r.smin.max(d.smin.checked_add(1)?);
        }
        Cond::SLe => {
            d.smax = d.smax.min(r.smax);
            r.smin = r.smin.max(d.smin);
        }
        Cond::Set => {
            // `d & r != 0` needs a common possibly-set bit.
            if (d.tnum.umax() & r.tnum.umax()) == 0 {
                return None;
            }
        }
        Cond::NSet => {
            // `d & r == 0`: a bit known-set in both contradicts; bits
            // known-set in a constant rhs are known-clear in d.
            if d.tnum.value & r.tnum.value != 0 {
                return None;
            }
            if r.tnum.is_const() {
                d.tnum.mask &= !r.tnum.value;
            }
            if d.tnum.is_const() {
                r.tnum.mask &= !d.tnum.value;
            }
        }
    }
    if !d.normalize() || !r.normalize() {
        return None;
    }
    Some((d, r))
}

/// `reg != c`: trims `c` off range endpoints.
fn nudge_ne(reg: &mut RegState, c: u64) {
    if reg.umin == c {
        reg.umin = reg.umin.saturating_add(1);
    }
    if reg.umax == c {
        reg.umax = reg.umax.saturating_sub(1);
    }
    let sc = c as i64;
    if reg.smin == sc {
        reg.smin = reg.smin.saturating_add(1);
    }
    if reg.smax == sc {
        reg.smax = reg.smax.saturating_sub(1);
    }
}

/// Renders the kernel-style verifier log: the annotated listing (joined
/// register state at each reachable instruction's *inputs*) followed by
/// every diagnostic with the register state at the point of rejection.
pub fn render_log(insns: &[Insn], analysis: &Analysis) -> String {
    use core::fmt::Write as _;
    let mut out = crate::disasm::disassemble_annotated(insns, analysis).join("\n");
    out.push('\n');
    if analysis.ok() {
        out.push_str("verification OK\n");
    } else {
        for d in analysis.diagnostics() {
            let _ = writeln!(out, "error at insn {}: {}", d.insn, d.error);
            if let Some(regs) = &d.regs {
                let _ = writeln!(out, "  {}", fmt_regs(regs));
            }
        }
        let _ = writeln!(
            out,
            "verification FAILED: {} error(s)",
            analysis.diagnostics().len()
        );
    }
    out
}

/// Formats the interesting (initialised) registers of a state on one line.
pub(crate) fn fmt_regs(regs: &[RegState; NUM_REGS]) -> String {
    let mut parts = Vec::new();
    for (i, r) in regs.iter().enumerate() {
        if r.is_init() && *r != RegState::unknown() {
            parts.push(format!("R{i}={r}"));
        }
    }
    parts.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_program;
    use crate::vm::standard_helpers;

    // ---- helpers ---------------------------------------------------

    /// Does the abstract state admit the concrete value `v`?
    fn contains(r: &RegState, v: u64) -> bool {
        r.ty == RegType::Scalar
            && v >= r.umin
            && v <= r.umax
            && (v as i64) >= r.smin
            && (v as i64) <= r.smax
            && r.tnum.contains(v)
    }

    /// The tightest abstract state covering a concrete value set, built
    /// the same way the analysis would: joining exact constants.
    fn abstract_of(values: &[u64]) -> RegState {
        let mut st = RegState::constant(values[0]);
        for &v in &values[1..] {
            st = st.join(&RegState::constant(v));
        }
        st
    }

    fn regs() -> Regs {
        [RegState::unknown(); NUM_REGS]
    }

    /// The state on the `outcome` edge of `insn` from `st`, or `None`
    /// when that edge is infeasible.
    fn refined(st: &Regs, insn: &Insn, is32: bool, outcome: bool) -> Option<Regs> {
        let mut out = *st;
        refine_branch(&mut out, insn, is32, outcome).then_some(out)
    }

    fn analyze_src(src: &str) -> Analysis {
        let lines: Vec<&str> = src.lines().collect();
        let insns = parse_program(&lines).expect("test listing parses");
        analyze(&insns, &standard_helpers())
    }

    // ---- the loader's walk -----------------------------------------

    #[test]
    fn the_verdict_walk_agrees_with_analyze() {
        // `load` runs the walk recording reachability, `analyze` runs it
        // recording joined states. Over the corpus, `diamonds(6)` and
        // the 2 400 `analysis_pin` mutants (same seed, same order), then
        // the state-cap program and the two rack record scripts, both
        // report the same diagnostics, registers included, and an
        // instruction is reachable exactly where `state_at` has a row.
        // The emitted programs and their mutants are checked through
        // `load` and `verify` in `vnettracer`'s `compile::tests`.
        use crate::test_programs::{corpus, diamonds, mutants, record_scripts, Rng};
        let helpers = standard_helpers();
        let mut pin = corpus();
        pin.push(diamonds(6, false));
        let pin_mutants = mutants(&mut Rng(0x5eed_a11a), &pin, 2_400);
        let mutant_ids = pin.len()..pin.len() + pin_mutants.len();
        let programs = pin
            .into_iter()
            .chain(pin_mutants)
            .chain([diamonds(6, true)])
            .chain(record_scripts());
        let (mut n, mut reached, mut kinds) = (0, 0, [0usize; 3]);
        for insns in programs {
            let a = analyze(&insns, &helpers);
            let v = verdict(&insns, &helpers);
            if mutant_ids.contains(&n) {
                kinds[match &a.diagnostics[..] {
                    [] => 0,
                    ds if ds.iter().any(|d| d.regs.is_some()) => 1,
                    _ => 2,
                }] += 1;
            }
            let key = |d: &Diagnostic| (d.error.clone(), d.insn, d.regs);
            assert_eq!(
                v.diagnostics.iter().map(key).collect::<Vec<_>>(),
                a.diagnostics.iter().map(key).collect::<Vec<_>>(),
                "program {n}"
            );
            assert_eq!(v.reachable.len(), insns.len());
            for (pc, &r) in v.reachable.iter().enumerate() {
                assert_eq!(r, a.state_at(pc).is_some(), "program {n} pc {pc}");
                reached += usize::from(r);
            }
            n += 1;
        }
        assert_eq!(n, 13 + 1 + 2_400 + 1 + 2);
        assert_eq!(kinds, [779, 1020, 601], "not analysis_pin's mutants");
        assert!(reached > 0);
    }

    // ---- how the walk builds successors -----------------------------

    /// The states the walk keeps at `pc` of `src`, after pruning, and
    /// its diagnostics.
    fn kept_at(src: &str, pc: usize) -> (Vec<Regs>, Vec<Diagnostic>) {
        let lines: Vec<&str> = src.lines().collect();
        let insns = parse_program(&lines).expect("test listing parses");
        let mut at = Vec::new();
        let diags = walk(&insns, &standard_helpers(), |p, kept| {
            if p == pc {
                at = kept.to_vec();
            }
        });
        (at, diags)
    }

    #[test]
    fn a_jump_whose_edges_share_a_slot_keeps_the_feasible_states_in_order() {
        // Three states reach the `goto +0` at pc 6, whose target and
        // fall-through are both pc 7: `r2` an unknown byte (both edges
        // feasible), `r2 = 0` (the taken edge is infeasible) and
        // `r2 = 7` (the fall-through is). `r3` tells the paths apart and
        // is read behind the jump, so pruning keeps every state.
        let src = "r2 = *(u8 *)(r1 +0)\n\
                   r3 = *(u8 *)(r1 +1)\n\
                   if r3 == 0 goto +3\n\
                   r2 = 0\n\
                   if r3 == 1 goto +1\n\
                   r2 = 7\n\
                   if r2 == 7 goto +0\n\
                   r0 = r2\n\
                   r0 += r3\n\
                   exit";
        let (c, byte) = (RegState::constant, RegState::unknown_width(8));
        let r3_from_2 = RegState {
            umin: 2,
            smin: 2,
            ..byte
        };
        let r2_r3 = |states: &[Regs]| states.iter().map(|s| (s[2], s[3])).collect::<Vec<_>>();

        let (at_jump, diags) = kept_at(src, 6);
        assert!(diags.is_empty(), "{diags:?}");
        assert_eq!(
            r2_r3(&at_jump),
            [(byte, c(0)), (c(0), c(1)), (c(7), r3_from_2)]
        );
        // Each state's taken edge is pushed before its fall-through, and
        // an infeasible edge leaves nothing behind.
        let (after, _) = kept_at(src, 7);
        assert_eq!(
            r2_r3(&after),
            [(c(7), c(0)), (byte, c(0)), (c(0), c(1)), (c(7), r3_from_2)]
        );
        for st in &after {
            assert_eq!(st[1], RegState::ptr(RegType::PtrToCtx));
        }
    }

    #[test]
    fn a_successor_past_the_end_is_reported_with_its_edited_state() {
        let falls_off = |src: &str| {
            let a = analyze_src(src);
            let [d] = a.diagnostics() else {
                panic!("{src}: {:?}", a.diagnostics())
            };
            assert!(matches!(d.error, VerifyError::FallsOffEnd(_)), "{src}");
            d.regs.expect("found on a walked path")
        };
        let ctx = RegState::ptr(RegType::PtrToCtx);

        // An ALU result computed from the input state.
        let regs = falls_off("r2 = 5\nr2 += 3");
        assert_eq!((regs[1], regs[2]), (ctx, RegState::constant(8)));

        // A wide load: its successor would be two slots on.
        let regs = falls_off("r0 = 0\nr2 = map_fd(3)");
        let map = RegState::ptr(RegType::ConstPtrToMap { fd: 3 });
        assert_eq!((regs[0], regs[2]), (RegState::constant(0), map));

        // A call, the jump-class instruction with a fall-through: `r0`
        // is the helper's result and `r1`..`r5` are clobbered.
        let regs = falls_off("r2 = 1\ncall 5");
        assert_eq!(regs[0], RegState::unknown());
        assert!(regs[1..=5].iter().all(|r| !r.is_init()));
        assert_eq!(
            regs[10],
            RegState::ptr_at(RegType::PtrToStack, STACK_SIZE as u64)
        );

        // A conditional jump cannot be last: its target would lie past
        // the end, which the structural pass rejects before any walk.
        // So its fall-through, which comes no later than its target,
        // never falls off the end.
        let a = analyze_src("r2 = 1\nif r2 == 1 goto +0");
        let [d] = a.diagnostics() else {
            panic!("{:?}", a.diagnostics())
        };
        assert_eq!((&d.error, d.regs), (&VerifyError::JumpOutOfBounds(1), None));
    }

    // ---- join ------------------------------------------------------

    #[test]
    fn join_of_constants_covers_both() {
        let j = RegState::constant(3).join(&RegState::constant(7));
        assert_eq!(j.ty, RegType::Scalar);
        assert_eq!((j.umin, j.umax), (3, 7));
        assert_eq!((j.smin, j.smax), (3, 7));
        assert!(j.tnum.contains(3) && j.tnum.contains(7));
        // Bit 2 differs between 0b011 and 0b111, the rest are shared.
        assert_eq!((j.tnum.value, j.tnum.mask), (0b011, 0b100));
    }

    #[test]
    fn join_with_uninit_is_uninit() {
        let j = RegState::constant(1).join(&RegState::uninit());
        assert_eq!(j.ty, RegType::Uninit);
        let j = RegState::uninit().join(&RegState::ptr(RegType::PtrToCtx));
        assert_eq!(j.ty, RegType::Uninit);
    }

    #[test]
    fn join_ptr_with_maybe_null_keeps_maybe_null() {
        let p = RegState::ptr(RegType::PtrToMapValue { fd: 3 });
        let q = RegState::ptr(RegType::PtrToMapValueOrNull { fd: 3 });
        assert_eq!(p.join(&q).ty, RegType::PtrToMapValueOrNull { fd: 3 });
        assert_eq!(q.join(&p).ty, RegType::PtrToMapValueOrNull { fd: 3 });
    }

    #[test]
    fn join_map_ptr_with_zero_is_maybe_null() {
        let p = RegState::ptr(RegType::PtrToMapValue { fd: 3 });
        let zero = RegState::constant(0);
        assert_eq!(p.join(&zero).ty, RegType::PtrToMapValueOrNull { fd: 3 });
        assert_eq!(zero.join(&p).ty, RegType::PtrToMapValueOrNull { fd: 3 });
    }

    #[test]
    fn join_of_mixed_types_degrades_to_unknown_scalar() {
        let p = RegState::ptr(RegType::PtrToCtx);
        let s = RegState::constant(4);
        assert_eq!(p.join(&s), RegState::unknown());
        let m1 = RegState::ptr(RegType::PtrToMapValue { fd: 1 });
        let m2 = RegState::ptr(RegType::PtrToMapValue { fd: 2 });
        assert_eq!(m1.join(&m2), RegState::unknown());
    }

    #[test]
    fn join_is_an_upper_bound() {
        let samples = [
            RegState::constant(0),
            RegState::constant(u64::MAX),
            RegState::unknown_width(16),
            RegState::ptr_at(RegType::PtrToStack, 504),
            RegState::ptr(RegType::PtrToMapValueOrNull { fd: 0 }),
            RegState::unknown(),
        ];
        for a in &samples {
            for b in &samples {
                let j = a.join(b);
                assert!(a.subsumed_by(&j), "{a:?} not below join {j:?}");
                assert!(b.subsumed_by(&j), "{b:?} not below join {j:?}");
            }
        }
    }

    // ---- subsumption (pruning order) -------------------------------

    #[test]
    fn constant_subsumed_by_covering_range() {
        let five = RegState::constant(5);
        let wide = abstract_of(&[0, 5, 9]);
        assert!(five.subsumed_by(&wide));
        assert!(!wide.subsumed_by(&five));
        assert!(five.subsumed_by(&RegState::unknown()));
    }

    #[test]
    fn uninit_is_most_pessimistic() {
        // Pruning a state against a *more* pessimistic one is safe:
        // anything may be dropped in favour of uninit, and uninit may
        // only be dropped for uninit.
        let u = RegState::uninit();
        assert!(RegState::constant(1).subsumed_by(&u));
        assert!(u.subsumed_by(&u));
        assert!(!u.subsumed_by(&RegState::unknown()));
    }

    #[test]
    fn nonnull_subsumed_by_maybe_null_same_fd_only() {
        let p = RegState::ptr(RegType::PtrToMapValue { fd: 3 });
        let or3 = RegState::ptr(RegType::PtrToMapValueOrNull { fd: 3 });
        let or4 = RegState::ptr(RegType::PtrToMapValueOrNull { fd: 4 });
        assert!(p.subsumed_by(&or3));
        assert!(!p.subsumed_by(&or4));
        // The reverse direction would *strengthen* a null-safety claim.
        assert!(!or3.subsumed_by(&p));
        assert!(RegState::constant(0).subsumed_by(&or3));
        assert!(!RegState::constant(1).subsumed_by(&or3));
    }

    // ---- branch refinement: every jump condition -------------------

    /// Concrete truth of `a <cond> b` per eBPF semantics.
    fn concrete(cond: u8, is32: bool, a: u64, b: u64) -> bool {
        let (au, bu) = if is32 {
            (a as u32 as u64, b as u32 as u64)
        } else {
            (a, b)
        };
        let (asi, bsi) = if is32 {
            (a as u32 as i32 as i64, b as u32 as i32 as i64)
        } else {
            (a as i64, b as i64)
        };
        match cond {
            BPF_JEQ => au == bu,
            BPF_JNE => au != bu,
            BPF_JGT => au > bu,
            BPF_JGE => au >= bu,
            BPF_JLT => au < bu,
            BPF_JLE => au <= bu,
            BPF_JSGT => asi > bsi,
            BPF_JSGE => asi >= bsi,
            BPF_JSLT => asi < bsi,
            BPF_JSLE => asi <= bsi,
            BPF_JSET => au & bu != 0,
            _ => unreachable!(),
        }
    }

    const ALL_JUMPS: [u8; 11] = [
        BPF_JEQ, BPF_JNE, BPF_JGT, BPF_JGE, BPF_JLT, BPF_JLE, BPF_JSGT, BPF_JSGE, BPF_JSLT,
        BPF_JSLE, BPF_JSET,
    ];

    /// For every jump condition, both widths, both edges, and both the
    /// immediate and register forms: the refined state on an edge must
    /// still admit every concrete value that takes that edge, and an
    /// edge taken by some concrete value must stay feasible.
    #[test]
    fn refinement_is_sound_for_every_condition() {
        let dvals: &[u64] = &[0, 1, 5, 8, 15, u64::MAX, i64::MIN as u64];
        let rvals: &[u64] = &[0, 6, 8];
        for &cond in &ALL_JUMPS {
            for is32 in [false, true] {
                // Narrow compares only refine when both sides provably
                // fit in 32 (signed: 31) bits; use a fitting value set.
                let dvals: &[u64] = if is32 { &[0, 1, 5, 8, 15] } else { dvals };
                for (is_x, rhs) in [(false, 8i32), (true, 0)] {
                    let rset: &[u64] = if is_x { rvals } else { &[8] };
                    let mut st = regs();
                    st[1] = abstract_of(dvals);
                    if is_x {
                        st[2] = abstract_of(rset);
                    }
                    let class = if is32 { BPF_JMP32 } else { BPF_JMP };
                    let mode = if is_x { BPF_X } else { BPF_K };
                    let insn = Insn::new(class | cond | mode, 1, 2, 1, rhs);
                    for outcome in [true, false] {
                        let refined = refined(&st, &insn, is32, outcome);
                        let takers: Vec<(u64, u64)> = dvals
                            .iter()
                            .flat_map(|&a| rset.iter().map(move |&b| (a, b)))
                            .filter(|&(a, b)| concrete(cond, is32, a, b) == outcome)
                            .collect();
                        if takers.is_empty() {
                            continue; // edge may (but need not) be pruned
                        }
                        let out = refined.unwrap_or_else(|| {
                            panic!("cond {cond:#x} is32={is32} outcome={outcome}: feasible edge pruned")
                        });
                        for (a, b) in takers {
                            assert!(
                                contains(&out[1], a),
                                "cond {cond:#x} is32={is32} is_x={is_x} outcome={outcome}: \
                                 lost dst value {a} from {:?}",
                                out[1]
                            );
                            if is_x {
                                assert!(
                                    contains(&out[2], b),
                                    "cond {cond:#x} is32={is32} outcome={outcome}: \
                                     lost src value {b} from {:?}",
                                    out[2]
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn eq_refines_to_the_constant() {
        let mut st = regs();
        st[1] = abstract_of(&[0, 5, 200]);
        let insn = Insn::new(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 1, 5);
        let taken = refined(&st, &insn, false, true).unwrap();
        assert_eq!(taken[1], RegState::constant(5));
    }

    #[test]
    fn contradictory_edge_is_infeasible() {
        let mut st = regs();
        st[1] = RegState::constant(5);
        // `if r1 == 5`: the fall-through edge asserts r1 != 5.
        let insn = Insn::new(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 1, 5);
        assert!(refined(&st, &insn, false, false).is_none());
        assert!(refined(&st, &insn, false, true).is_some());
        // `if r1 > 5` can never hold for a constant 5.
        let insn = Insn::new(BPF_JMP | BPF_JGT | BPF_K, 1, 0, 1, 5);
        assert!(refined(&st, &insn, false, true).is_none());
    }

    #[test]
    fn unsigned_bounds_tighten_both_operands() {
        let mut st = regs();
        st[1] = abstract_of(&[20, 100]);
        st[2] = abstract_of(&[10, 50]);
        let insn = Insn::new(BPF_JMP | BPF_JLT | BPF_X, 1, 2, 1, 0);
        let taken = refined(&st, &insn, false, true).unwrap();
        assert_eq!(taken[1].umax, 49); // r1 < r2 <= 50
        assert_eq!(taken[2].umin, 21); // r2 > r1 >= 20
                                       // The fall-through (r1 >= r2) stays feasible, bounds intact.
        let fall = refined(&st, &insn, false, false).unwrap();
        assert_eq!((fall[1].umin, fall[2].umax), (20, 50));
    }

    #[test]
    fn signed_refinement_keeps_negative_values() {
        let mut st = regs();
        st[1] = abstract_of(&[u64::MAX, 1, 7]); // {-1, 1, 7} as signed
        let insn = Insn::new(BPF_JMP | BPF_JSGT | BPF_K, 1, 0, 1, 0);
        let taken = refined(&st, &insn, false, true).unwrap();
        assert!(contains(&taken[1], 1) && contains(&taken[1], 7));
        assert_eq!(taken[1].smin, 1);
        let fall = refined(&st, &insn, false, false).unwrap();
        assert!(contains(&fall[1], u64::MAX));
        assert_eq!(fall[1].smax, 0);
    }

    #[test]
    fn nset_fallthrough_clears_known_bits() {
        let mut st = regs();
        st[1] = abstract_of(&[0, 1, 2, 3]);
        // `if r1 & 1 goto`: fall-through proves the low bit clear.
        let insn = Insn::new(BPF_JMP | BPF_JSET | BPF_K, 1, 0, 1, 1);
        let fall = refined(&st, &insn, false, false).unwrap();
        assert_eq!(fall[1].tnum.value & 1, 0);
        assert_eq!(fall[1].tnum.mask & 1, 0);
        assert!(contains(&fall[1], 0) && contains(&fall[1], 2));
        assert!(!contains(&fall[1], 1));
    }

    #[test]
    fn narrow_compare_refines_nothing_for_wide_values() {
        let mut st = regs();
        st[1] = RegState::unknown(); // may exceed u32::MAX
        let insn = Insn::new(BPF_JMP32 | BPF_JGT | BPF_K, 1, 0, 1, 10);
        // The low word being > 10 says nothing about the 64-bit range.
        let taken = refined(&st, &insn, true, true).unwrap();
        assert_eq!(taken[1], RegState::unknown());
    }

    #[test]
    fn null_check_splits_maybe_null_pointer() {
        let mut st = regs();
        st[1] = RegState::ptr(RegType::PtrToMapValueOrNull { fd: 7 });
        let insn = Insn::new(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 1, 0);
        let null_edge = refined(&st, &insn, false, true).unwrap();
        assert_eq!(null_edge[1], RegState::constant(0));
        let ok_edge = refined(&st, &insn, false, false).unwrap();
        assert_eq!(ok_edge[1].ty, RegType::PtrToMapValue { fd: 7 });
    }

    #[test]
    fn comparisons_on_other_pointers_refine_nothing() {
        let mut st = regs();
        st[1] = RegState::ptr(RegType::PtrToCtx);
        let insn = Insn::new(BPF_JMP | BPF_JEQ | BPF_K, 1, 0, 1, 0);
        // Both edges stay feasible with unchanged state.
        assert_eq!(refined(&st, &insn, false, true).unwrap()[1], st[1]);
        assert_eq!(refined(&st, &insn, false, false).unwrap()[1], st[1]);
    }

    // ---- whole programs --------------------------------------------

    #[test]
    fn merge_joins_constant_ranges() {
        let a = analyze_src(
            "r2 = 3\n\
             if r1 == 0 goto +1\n\
             r2 = 7\n\
             r0 = r2\n\
             exit",
        );
        assert!(a.ok());
        let r2 = a.state_at(3).expect("reachable")[2];
        assert_eq!((r2.umin, r2.umax), (3, 7));
        assert!(r2.tnum.contains(3) && r2.tnum.contains(7));
    }

    #[test]
    fn statically_false_branch_is_never_taken_and_kills_the_tail() {
        let a = analyze_src(
            "r2 = 3\n\
             if r2 > 5 goto +2\n\
             r0 = 0\n\
             exit\n\
             r0 = r9\n\
             exit",
        );
        // The dead tail reads uninitialized r9 — accepted only because
        // the analysis proved it unreachable.
        assert!(a.ok());
        assert!(a.state_at(2).is_some());
        assert!(a.state_at(4).is_none());
    }

    #[test]
    fn statically_true_branch_is_always_taken() {
        let a = analyze_src(
            "r2 = 9\n\
             if r2 > 5 goto +2\n\
             r0 = r9\n\
             exit\n\
             r0 = 0\n\
             exit",
        );
        assert!(a.ok());
        assert!(a.state_at(2).is_none());
        assert!(a.state_at(4).is_some());
    }

    #[test]
    fn unproven_register_divisor_is_rejected() {
        let a = analyze_src(
            "r2 = *(u64 *)(r1 +0)\n\
             r0 = 100\n\
             r0 /= r2\n\
             exit",
        );
        assert!(!a.ok());
        let err = &a.diagnostics()[0].error;
        assert!(matches!(
            err,
            VerifyError::DivisorMayBeZero { reg: 2, insn: 2 }
        ));
    }

    #[test]
    fn guarded_divisor_is_proved_nonzero() {
        let a = analyze_src(
            "r2 = *(u64 *)(r1 +0)\n\
             r0 = 100\n\
             if r2 == 0 goto +1\n\
             r0 /= r2\n\
             exit",
        );
        assert!(a.ok(), "guarded division rejected: {:?}", a.diagnostics());
        assert_eq!(a.state_at(3).expect("reachable")[2].umin, 1);
    }

    #[test]
    fn known_bits_prove_divisor_nonzero() {
        let a = analyze_src(
            "r2 = *(u64 *)(r1 +0)\n\
             r2 |= 1\n\
             r0 = 100\n\
             r0 %= r2\n\
             exit",
        );
        assert!(a.ok());
        assert_eq!(a.state_at(3).expect("reachable")[2].tnum.value & 1, 1);
    }

    #[test]
    fn null_check_makes_the_lookup_result_a_map_value_pointer() {
        for off in [0, 128] {
            let a = analyze_src(&format!(
                "r1 = 0\n\
                 *(u64 *)(r10 -8) = r1\n\
                 r2 = r10\n\
                 r2 += -8\n\
                 r1 = map_fd(0)\n\
                 call 1\n\
                 if r0 == 0 goto +2\n\
                 r1 = *(u64 *)(r0 +{off})\n\
                 r0 = 0\n\
                 exit"
            ));
            // Any offset is accepted: the access stays runtime-checked
            // against the map's value size (permissiveness contract).
            assert!(a.ok(), "map idiom rejected: {:?}", a.diagnostics());
            // lddw occupies insns 4–5; the deref behind the null check is 8.
            let r0 = a.state_at(8).expect("reachable")[0];
            assert_eq!(r0, RegState::ptr(RegType::PtrToMapValue { fd: 0 }));
            let r0 = a.state_at(7).expect("reachable")[0];
            assert_eq!(r0.ty, RegType::PtrToMapValueOrNull { fd: 0 });
        }
    }
}
