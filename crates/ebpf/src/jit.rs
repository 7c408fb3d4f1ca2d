//! The threaded-code compilation tier.
//!
//! The paper attributes vNetTracer's low overhead to the kernel's JIT
//! (§II: "the JIT compiling minimizes the execution overhead of the eBPF
//! code"). This module is the simulator's equivalent: it lowers a
//! verified [`LoadedProgram`] once, into a dense array of pre-decoded
//! typed ops, and then executes that instead of re-decoding raw bytecode
//! on every probe firing.
//!
//! What compilation buys, concretely:
//!
//! * **decode once** — opcode/class/size splitting, immediate sign
//!   extension and `lddw` pairing happen at compile time, never in the
//!   hot loop;
//! * **jump pre-resolution** — branch targets are op-array indices, not
//!   signed instruction offsets to be re-computed per taken branch;
//! * **helper binding** — each `call` site holds a direct function
//!   pointer (a `HelperFn`), resolved from the shared helper table at
//!   compile time, so there is no id lookup at run time;
//! * **`r10` stack indexing** — the verifier proves every `r10`-relative
//!   access lands inside the 512-byte stack and that `r10` is never
//!   written, so stack loads/stores compile to direct array indexing
//!   with no region dispatch. Every other access goes through the
//!   checked `Memory` path;
//! * **fusion** — sequences the trace-program compiler emits constantly
//!   become single ops: load(+byteswap)+compare-branch (filter field
//!   checks), load(+byteswap)+store-to-stack (field extraction),
//!   load+add-imm+store (counter increments, resolved against the map
//!   value once), mov+add-imm address formation, map-lookup +
//!   null-check (counter programs), runs of immediate stack stores
//!   (key/scratch initialisation), and mov-imm-to-`r0`+`exit` returns.
//!
//! Each instruction has exactly one lowering, chosen from the
//! instruction stream alone: the tier does not read the verifier's
//! analysis, whose register states explain why the verifier accepted
//! the program (rendered by `vnt verify`) and license no dropped
//! runtime check.
//!
//! Execution semantics are bit-identical to the interpreter — same
//! `Memory` address space, same map-value slot allocation order, same
//! error values — which the differential proptests in
//! `tests/proptests.rs` enforce. Both charge a run the path's toll under
//! the shared table in [`crate::cost`]; what compilation adds to the sim
//! cost model is the one-time [`crate::vm::jit_compile_cost_ns`]. The
//! tracer runs every probe on this tier; the interpreter is its oracle.

use crate::context::TraceContext;
use crate::insn::*;
use crate::map::MapRegistry;
use crate::program::LoadedProgram;
use crate::vm::{
    access_size, alu32, alu64, helper_by_id, helper_ids, helper_map_lookup, jump_taken, read_le,
    write_le, HelperFn, Memory, VmEnv, VmError,
};

/// One immediate store to a statically-bounded stack slot, part of a
/// fused [`Op::StoreRun`]. Kept in a side table so `Op` stays small.
#[derive(Debug, Clone, Copy)]
struct StackStore {
    idx: u16,
    len: u8,
    imm: u64,
}

/// A pre-decoded op. Everything static — operand widths, sign-extended
/// immediates, resolved jump targets, bound helper thunks — is baked in
/// at compile time.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// 64-bit ALU with pre-sign-extended immediate.
    Alu64Imm { op: u8, dst: u8, imm: u64 },
    /// 64-bit ALU, register operand.
    Alu64Reg { op: u8, dst: u8, src: u8 },
    /// 32-bit ALU with pre-truncated immediate.
    Alu32Imm { op: u8, dst: u8, imm: u32 },
    /// 32-bit ALU, register operand.
    Alu32Reg { op: u8, dst: u8, src: u8 },
    /// `be16`/`be32`/`be64` (width 16/32/64).
    Endian { dst: u8, width: u8 },
    /// `lddw`: both slots pre-combined (map handles pre-materialised at
    /// load time). Retires one instruction, like the interpreter.
    MovImm64 { dst: u8, imm: u64 },
    /// `r10`-relative stack load, indexed directly (verifier-proven
    /// bounds).
    LoadStack { size: u8, dst: u8, idx: u16 },
    /// `r10`-relative stack store of a register, indexed directly.
    StoreStackReg { size: u8, src: u8, idx: u16 },
    /// `r10`-relative stack store of an immediate, indexed directly.
    StoreStackImm { size: u8, idx: u16, imm: u64 },
    /// General load through the tagged address space.
    Load {
        size: u8,
        dst: u8,
        src: u8,
        off: i16,
    },
    /// General register store through the tagged address space.
    StoreReg {
        size: u8,
        dst: u8,
        src: u8,
        off: i16,
    },
    /// General immediate store through the tagged address space.
    StoreImm {
        size: u8,
        dst: u8,
        off: i16,
        imm: u64,
    },
    /// Atomic add (plain RMW in the single-threaded VM).
    AtomicAdd {
        size: u8,
        dst: u8,
        src: u8,
        off: i16,
        fetch: bool,
    },
    /// Unconditional jump to a pre-resolved op index.
    Ja { target: u32 },
    /// 64-bit conditional branch against a pre-sign-extended immediate.
    JmpImm {
        op: u8,
        dst: u8,
        rhs: u64,
        target: u32,
    },
    /// 64-bit conditional branch against a register.
    JmpReg {
        op: u8,
        dst: u8,
        src: u8,
        target: u32,
    },
    /// 32-bit conditional branch against an immediate.
    Jmp32Imm {
        op: u8,
        dst: u8,
        rhs: u32,
        target: u32,
    },
    /// 32-bit conditional branch against a register.
    Jmp32Reg {
        op: u8,
        dst: u8,
        src: u8,
        target: u32,
    },
    /// Helper call bound to a direct thunk at compile time. `cost` is
    /// the static charge (dispatch + per-helper) from [`crate::cost`],
    /// captured here because the thunk erases the helper id.
    Call { thunk: HelperFn, cost: u32 },
    /// Call to a helper id with no bound implementation; aborts with
    /// [`VmError::UnknownHelper`] exactly as the interpreter would.
    CallUnknown { id: i32 },
    /// Program exit.
    Exit,
    /// An instruction the tier cannot execute; aborts with
    /// [`VmError::BadInstruction`] exactly as the interpreter would.
    Abort { pc: u32 },
    /// Fused load (+ optional byteswap) + compare-branch — the shape of
    /// every filter field check. Still writes the loaded (swapped)
    /// value to `dst`, so register state matches the interpreter.
    LoadBranch {
        size: u8,
        dst: u8,
        src: u8,
        off: i16,
        /// 0 = no byteswap, else 16/32/64.
        be: u8,
        cond: u8,
        /// The branch compares 32-bit (`BPF_JMP32`).
        narrow: bool,
        rhs: u64,
        target: u32,
        retire: u8,
    },
    /// Fused load (+ optional byteswap) + store of the loaded register
    /// into a verifier-proven stack slot — the record-building idiom
    /// (`ldx; be*; stx [fp-n]`). Still writes `dst`, so register state
    /// matches the interpreter.
    LoadToStack {
        size: u8,
        dst: u8,
        src: u8,
        off: i16,
        /// 0 = no byteswap, else 16/32/64.
        be: u8,
        st_size: u8,
        idx: u16,
        retire: u8,
    },
    /// Fused address computation: `mov64 dst, src; dst += imm`.
    Lea { dst: u8, src: u8, imm: u64 },
    /// Fused read-modify-write: `ldx dst, [src+off]; dst += imm;
    /// stx [src+off], dst` — the counter-increment idiom. One region
    /// resolution (and, for map values, one map lookup) covers both
    /// accesses; still leaves the full 64-bit sum in `dst`, matching
    /// the interpreter. Retires three instructions.
    LoadAddStore {
        size: u8,
        dst: u8,
        src: u8,
        off: i16,
        imm: u64,
    },
    /// Fused `call map_lookup_elem` + null-check branch (`cond` is
    /// `BPF_JEQ` or `BPF_JNE` against 0). The lookup is dispatched as a
    /// direct (inlinable) call rather than through a bound thunk.
    /// Retires two instructions.
    MapLookupNull { cond: u8, target: u32 },
    /// Fused `mov64 r0, imm; exit` — the universal return idiom.
    /// Retires two instructions.
    ExitImm { imm: u64 },
    /// Fused run of immediate stack stores; `count` side-table entries
    /// starting at `start`, retiring `count` instructions.
    StoreRun { start: u32, count: u16 },
}

/// Result of a compiled execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JitOutcome {
    /// The program's return value (`r0` at exit).
    pub ret: u64,
    /// Pre-decoded ops dispatched: fewer than `insns_retired` wherever a
    /// fused op ran.
    pub ops_executed: u64,
    /// Original instructions retired — matches the interpreter's
    /// `insns_executed` for the same input, fused ops retiring several.
    pub insns_retired: u64,
    /// The path's dynamic cost under the shared static cost table
    /// ([`crate::cost`]). Fused ops charge the sum of their components,
    /// so this matches the interpreter's `cost_ns` for the same input
    /// and is bounded by the program's certificate.
    pub cost_ns: u64,
    /// Fused ops dispatched this run.
    pub fused_hits: u64,
}

/// A program lowered to threaded code, ready to execute.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    ops: Box<[Op]>,
    /// Static charge per op under the shared cost table, precomputed so
    /// the dispatch loop pays one indexed add instead of a match.
    op_costs: Box<[u32]>,
    stores: Box<[StackStore]>,
    fused_ops: usize,
}

/// The static charge of one pre-decoded op: the [`crate::cost`] table
/// applied per component, so a fused op costs exactly what its source
/// instructions would under the interpreter.
fn op_cost(op: &Op) -> u32 {
    use crate::cost::{
        helper_cost_ns, ALU_COST_NS, ATOMIC_COST_NS, CALL_DISPATCH_COST_NS, MEM_COST_NS,
    };
    use crate::vm::helper_ids::MAP_LOOKUP_ELEM;
    let (alu, mem) = (ALU_COST_NS as u32, MEM_COST_NS as u32);
    match *op {
        Op::Load { .. }
        | Op::LoadStack { .. }
        | Op::StoreReg { .. }
        | Op::StoreImm { .. }
        | Op::StoreStackReg { .. }
        | Op::StoreStackImm { .. } => mem,
        Op::AtomicAdd { .. } => ATOMIC_COST_NS as u32,
        Op::Call { cost, .. } => cost,
        Op::MapLookupNull { .. } => {
            (CALL_DISPATCH_COST_NS + helper_cost_ns(MAP_LOOKUP_ELEM)) as u32 + alu
        }
        Op::LoadBranch { be, .. } => mem + alu + if be != 0 { alu } else { 0 },
        Op::LoadToStack { be, .. } => mem + mem + if be != 0 { alu } else { 0 },
        Op::Lea { .. } => alu + alu,
        Op::LoadAddStore { .. } => mem + alu + mem,
        Op::ExitImm { .. } => alu + alu,
        Op::StoreRun { count, .. } => mem * u32::from(count),
        // ALU, moves, endian swaps, branches, exit, aborts: one dispatch
        // each.
        _ => alu,
    }
}

impl CompiledProgram {
    /// Number of pre-decoded ops in the compiled body.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of fused ops in the compiled body (static count, not hits).
    pub fn fused_op_count(&self) -> usize {
        self.fused_ops
    }

    /// Executes the compiled program. Same contract as
    /// [`crate::vm::Vm::execute`]: identical results, map side effects,
    /// error values and per-path cost, differing only in speed.
    ///
    /// # Errors
    ///
    /// Returns the same [`VmError`] the interpreter would for the same
    /// program and input.
    pub fn execute(
        &self,
        ctx: &TraceContext,
        packet: &[u8],
        maps: &mut MapRegistry,
        env: &mut dyn VmEnv,
    ) -> Result<JitOutcome, VmError> {
        let mut reg = [0u64; NUM_REGS];
        let mut mem = Memory::new(ctx, packet, env.smp_processor_id() as usize);
        reg[1] = crate::vm::CTX_BASE;
        reg[10] = crate::vm::STACK_BASE + STACK_SIZE as u64;

        let mut ip = 0usize;
        let mut ops_executed: u64 = 0;
        let mut retired: u64 = 0;
        let mut cost_ns: u64 = 0;
        let mut fused_hits: u64 = 0;
        // Grows on first helper use; branch-heavy filter runs that call
        // no helpers never pay the allocation.
        let mut scratch = Vec::new();

        loop {
            let op = self.ops.get(ip).ok_or(VmError::BadInstruction(ip))?;
            ops_executed += 1;
            retired += 1;
            cost_ns += u64::from(self.op_costs[ip]);
            match *op {
                Op::Alu64Imm { op, dst, imm } => {
                    reg[dst as usize] = alu64(op, reg[dst as usize], imm);
                    ip += 1;
                }
                Op::Alu64Reg { op, dst, src } => {
                    reg[dst as usize] = alu64(op, reg[dst as usize], reg[src as usize]);
                    ip += 1;
                }
                Op::Alu32Imm { op, dst, imm } => {
                    reg[dst as usize] = u64::from(alu32(op, reg[dst as usize] as u32, imm));
                    ip += 1;
                }
                Op::Alu32Reg { op, dst, src } => {
                    reg[dst as usize] = u64::from(alu32(
                        op,
                        reg[dst as usize] as u32,
                        reg[src as usize] as u32,
                    ));
                    ip += 1;
                }
                Op::Endian { dst, width } => {
                    reg[dst as usize] = byteswap(reg[dst as usize], width);
                    ip += 1;
                }
                Op::MovImm64 { dst, imm } => {
                    reg[dst as usize] = imm;
                    ip += 1;
                }
                Op::LoadStack { size, dst, idx } => {
                    reg[dst as usize] = stack_load(&mem, idx, size);
                    ip += 1;
                }
                Op::StoreStackReg { size, src, idx } => {
                    stack_store(&mut mem, idx, size, reg[src as usize]);
                    ip += 1;
                }
                Op::StoreStackImm { size, idx, imm } => {
                    stack_store(&mut mem, idx, size, imm);
                    ip += 1;
                }
                Op::Load {
                    size,
                    dst,
                    src,
                    off,
                } => {
                    let addr = reg[src as usize].wrapping_add(off as i64 as u64);
                    reg[dst as usize] = mem.read_scalar(maps, addr, size as usize)?;
                    ip += 1;
                }
                Op::StoreReg {
                    size,
                    dst,
                    src,
                    off,
                } => {
                    let addr = reg[dst as usize].wrapping_add(off as i64 as u64);
                    mem.write(maps, addr, size as usize, reg[src as usize])?;
                    ip += 1;
                }
                Op::StoreImm {
                    size,
                    dst,
                    off,
                    imm,
                } => {
                    let addr = reg[dst as usize].wrapping_add(off as i64 as u64);
                    mem.write(maps, addr, size as usize, imm)?;
                    ip += 1;
                }
                Op::AtomicAdd {
                    size,
                    dst,
                    src,
                    off,
                    fetch,
                } => {
                    let addr = reg[dst as usize].wrapping_add(off as i64 as u64);
                    let old = mem.read_scalar(maps, addr, size as usize)?;
                    let new = if size == 4 {
                        u64::from((old as u32).wrapping_add(reg[src as usize] as u32))
                    } else {
                        old.wrapping_add(reg[src as usize])
                    };
                    mem.write(maps, addr, size as usize, new)?;
                    if fetch {
                        reg[src as usize] = old;
                    }
                    ip += 1;
                }
                Op::Ja { target } => ip = target as usize,
                Op::JmpImm {
                    op,
                    dst,
                    rhs,
                    target,
                } => {
                    ip = if jump_taken(op, reg[dst as usize], rhs, false) {
                        target as usize
                    } else {
                        ip + 1
                    };
                }
                Op::JmpReg {
                    op,
                    dst,
                    src,
                    target,
                } => {
                    ip = if jump_taken(op, reg[dst as usize], reg[src as usize], false) {
                        target as usize
                    } else {
                        ip + 1
                    };
                }
                Op::Jmp32Imm {
                    op,
                    dst,
                    rhs,
                    target,
                } => {
                    ip = if jump_taken(
                        op,
                        u64::from(reg[dst as usize] as u32),
                        u64::from(rhs),
                        true,
                    ) {
                        target as usize
                    } else {
                        ip + 1
                    };
                }
                Op::Jmp32Reg {
                    op,
                    dst,
                    src,
                    target,
                } => {
                    ip = if jump_taken(
                        op,
                        u64::from(reg[dst as usize] as u32),
                        u64::from(reg[src as usize] as u32),
                        true,
                    ) {
                        target as usize
                    } else {
                        ip + 1
                    };
                }
                Op::Call { thunk, .. } => {
                    thunk(&mut reg, &mut mem, maps, env, &mut scratch)?;
                    ip += 1;
                }
                Op::CallUnknown { id } => return Err(VmError::UnknownHelper(id)),
                Op::Exit => {
                    return Ok(JitOutcome {
                        ret: reg[0],
                        ops_executed,
                        insns_retired: retired,
                        cost_ns,
                        fused_hits,
                    })
                }
                Op::Abort { pc } => return Err(VmError::BadInstruction(pc as usize)),
                Op::LoadBranch {
                    size,
                    dst,
                    src,
                    off,
                    be,
                    cond,
                    narrow,
                    rhs,
                    target,
                    retire,
                } => {
                    fused_hits += 1;
                    retired += u64::from(retire) - 1;
                    let addr = reg[src as usize].wrapping_add(off as i64 as u64);
                    let mut val = mem.read_scalar(maps, addr, size as usize)?;
                    if be != 0 {
                        val = byteswap(val, be);
                    }
                    reg[dst as usize] = val;
                    let (lhs, cmp) = if narrow {
                        (u64::from(val as u32), u64::from(rhs as u32))
                    } else {
                        (val, rhs)
                    };
                    ip = if jump_taken(cond, lhs, cmp, narrow) {
                        target as usize
                    } else {
                        ip + 1
                    };
                }
                Op::LoadToStack {
                    size,
                    dst,
                    src,
                    off,
                    be,
                    st_size,
                    idx,
                    retire,
                } => {
                    fused_hits += 1;
                    retired += u64::from(retire) - 1;
                    let addr = reg[src as usize].wrapping_add(off as i64 as u64);
                    let mut val = mem.read_scalar(maps, addr, size as usize)?;
                    if be != 0 {
                        val = byteswap(val, be);
                    }
                    reg[dst as usize] = val;
                    stack_store(&mut mem, idx, st_size, val);
                    ip += 1;
                }
                Op::Lea { dst, src, imm } => {
                    fused_hits += 1;
                    retired += 1;
                    reg[dst as usize] = reg[src as usize].wrapping_add(imm);
                    ip += 1;
                }
                Op::LoadAddStore {
                    size,
                    dst,
                    src,
                    off,
                    imm,
                } => {
                    fused_hits += 1;
                    retired += 2;
                    let addr = reg[src as usize].wrapping_add(off as i64 as u64);
                    reg[dst as usize] = mem.rmw_add(maps, addr, size as usize, imm)?;
                    ip += 1;
                }
                Op::MapLookupNull { cond, target } => {
                    fused_hits += 1;
                    retired += 1;
                    helper_map_lookup(&mut reg, &mut mem, maps, env, &mut scratch)?;
                    ip = if jump_taken(cond, reg[0], 0, false) {
                        target as usize
                    } else {
                        ip + 1
                    };
                }
                Op::ExitImm { imm } => {
                    fused_hits += 1;
                    retired += 1;
                    return Ok(JitOutcome {
                        ret: imm,
                        ops_executed,
                        insns_retired: retired,
                        cost_ns,
                        fused_hits,
                    });
                }
                Op::StoreRun { start, count } => {
                    fused_hits += 1;
                    retired += u64::from(count) - 1;
                    for s in &self.stores[start as usize..start as usize + count as usize] {
                        stack_store(&mut mem, s.idx, s.len, s.imm);
                    }
                    ip += 1;
                }
            }
        }
    }
}

#[inline]
fn byteswap(val: u64, width: u8) -> u64 {
    match width {
        16 => u64::from((val as u16).to_be()),
        32 => u64::from((val as u32).to_be()),
        _ => val.to_be(),
    }
}

#[inline]
fn stack_load(mem: &Memory<'_>, idx: u16, len: u8) -> u64 {
    read_le(&mem.stack[idx as usize..], len as usize)
}

#[inline]
fn stack_store(mem: &mut Memory<'_>, idx: u16, len: u8, val: u64) {
    write_le(&mut mem.stack[idx as usize..], len as usize, val);
}

/// For an `r10`-relative access the verifier proved in-bounds, the
/// direct stack index (`off` is in `[-512, -size]`).
fn stack_idx(off: i16) -> u16 {
    (STACK_SIZE as i32 + i32::from(off)) as u16
}

/// Lowers a verified program into threaded code. Total: any instruction
/// the tier cannot lower (impossible for verifier-accepted programs)
/// becomes an `Op::Abort` that reproduces the interpreter's runtime
/// error, so compilation itself never fails. Each sequence is fused if
/// it can be, and each remaining instruction lowers to its one op.
pub fn compile(prog: &LoadedProgram) -> CompiledProgram {
    let insns = prog.insns();
    let targets = jump_targets(insns);

    let mut ops: Vec<Op> = Vec::with_capacity(insns.len());
    let mut stores: Vec<StackStore> = Vec::new();
    let mut fused_ops = 0usize;
    // pc -> op index, u32::MAX for pcs consumed into a predecessor
    // (lddw high slots, fused tails) — never jump targets, per the
    // verifier and the fusion guard below.
    let mut pc2op = vec![u32::MAX; insns.len() + 1];
    // (op index, original jump pc) pairs needing target remapping.
    let mut fixups: Vec<(usize, usize)> = Vec::new();

    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        pc2op[pc] = ops.len() as u32;
        let consumed = try_fuse(insns, pc, &targets, &mut ops, &mut stores, &mut fixups);
        if consumed > 0 {
            fused_ops += 1;
            pc += consumed;
            continue;
        }
        match insn.class() {
            BPF_ALU64 | BPF_ALU => {
                let is64 = insn.class() == BPF_ALU64;
                let op = insn.opcode & 0xf0;
                if op == BPF_END {
                    let width = match insn.imm {
                        16 => 16,
                        32 => 32,
                        _ => 64,
                    };
                    ops.push(Op::Endian {
                        dst: insn.dst,
                        width,
                    });
                } else if insn.opcode & 0x08 == BPF_X {
                    ops.push(if is64 {
                        Op::Alu64Reg {
                            op,
                            dst: insn.dst,
                            src: insn.src,
                        }
                    } else {
                        Op::Alu32Reg {
                            op,
                            dst: insn.dst,
                            src: insn.src,
                        }
                    });
                } else {
                    ops.push(if is64 {
                        Op::Alu64Imm {
                            op,
                            dst: insn.dst,
                            imm: insn.imm as i64 as u64,
                        }
                    } else {
                        Op::Alu32Imm {
                            op,
                            dst: insn.dst,
                            imm: insn.imm as u32,
                        }
                    });
                }
                pc += 1;
            }
            BPF_LD => match insns.get(pc + 1) {
                Some(hi) => {
                    let imm = (insn.imm as u32 as u64) | ((hi.imm as u32 as u64) << 32);
                    ops.push(Op::MovImm64 { dst: insn.dst, imm });
                    pc += 2;
                }
                None => {
                    ops.push(Op::Abort { pc: pc as u32 });
                    pc += 1;
                }
            },
            BPF_LDX => {
                let size = access_size(insn.opcode) as u8;
                if insn.src == REG_FP {
                    ops.push(Op::LoadStack {
                        size,
                        dst: insn.dst,
                        idx: stack_idx(insn.off),
                    });
                } else {
                    ops.push(Op::Load {
                        size,
                        dst: insn.dst,
                        src: insn.src,
                        off: insn.off,
                    });
                }
                pc += 1;
            }
            BPF_ST | BPF_STX => {
                let size = access_size(insn.opcode) as u8;
                if insn.class() == BPF_STX && insn.opcode & 0xe0 == BPF_ATOMIC {
                    ops.push(Op::AtomicAdd {
                        size,
                        dst: insn.dst,
                        src: insn.src,
                        off: insn.off,
                        fetch: insn.imm & BPF_FETCH != 0,
                    });
                } else if insn.class() == BPF_STX {
                    if insn.dst == REG_FP {
                        ops.push(Op::StoreStackReg {
                            size,
                            src: insn.src,
                            idx: stack_idx(insn.off),
                        });
                    } else {
                        ops.push(Op::StoreReg {
                            size,
                            dst: insn.dst,
                            src: insn.src,
                            off: insn.off,
                        });
                    }
                } else if insn.dst == REG_FP {
                    ops.push(Op::StoreStackImm {
                        size,
                        idx: stack_idx(insn.off),
                        imm: insn.imm as i64 as u64,
                    });
                } else {
                    ops.push(Op::StoreImm {
                        size,
                        dst: insn.dst,
                        off: insn.off,
                        imm: insn.imm as i64 as u64,
                    });
                }
                pc += 1;
            }
            BPF_JMP | BPF_JMP32 => {
                let op = insn.opcode & 0xf0;
                match op {
                    BPF_EXIT => ops.push(Op::Exit),
                    BPF_CALL => ops.push(match helper_by_id(insn.imm) {
                        Some(thunk) => Op::Call {
                            thunk,
                            cost: (crate::cost::CALL_DISPATCH_COST_NS
                                + crate::cost::helper_cost_ns(insn.imm))
                                as u32,
                        },
                        None => Op::CallUnknown { id: insn.imm },
                    }),
                    BPF_JA => {
                        fixups.push((ops.len(), pc));
                        ops.push(Op::Ja { target: 0 });
                    }
                    _ => {
                        fixups.push((ops.len(), pc));
                        let narrow = insn.class() == BPF_JMP32;
                        ops.push(if insn.opcode & 0x08 == BPF_X {
                            if narrow {
                                Op::Jmp32Reg {
                                    op,
                                    dst: insn.dst,
                                    src: insn.src,
                                    target: 0,
                                }
                            } else {
                                Op::JmpReg {
                                    op,
                                    dst: insn.dst,
                                    src: insn.src,
                                    target: 0,
                                }
                            }
                        } else if narrow {
                            Op::Jmp32Imm {
                                op,
                                dst: insn.dst,
                                rhs: insn.imm as u32,
                                target: 0,
                            }
                        } else {
                            Op::JmpImm {
                                op,
                                dst: insn.dst,
                                rhs: insn.imm as i64 as u64,
                                target: 0,
                            }
                        });
                    }
                }
                pc += 1;
            }
            _ => {
                ops.push(Op::Abort { pc: pc as u32 });
                pc += 1;
            }
        }
    }

    // Resolve branch targets: original pc offsets -> op indices.
    for (op_idx, jmp_pc) in fixups {
        let insn = insns[jmp_pc];
        let tgt_pc = (jmp_pc as i64 + 1 + i64::from(insn.off)) as usize;
        let tgt = pc2op.get(tgt_pc).copied().unwrap_or(u32::MAX);
        let tgt = if tgt == u32::MAX {
            // Out-of-range or mid-op target (impossible post-verify):
            // land on an op index past the end, which faults with
            // BadInstruction at run time like the interpreter would.
            ops.len() as u32
        } else {
            tgt
        };
        set_target(&mut ops[op_idx], tgt);
    }

    let op_costs: Vec<u32> = ops.iter().map(op_cost).collect();
    CompiledProgram {
        ops: ops.into_boxed_slice(),
        op_costs: op_costs.into_boxed_slice(),
        stores: stores.into_boxed_slice(),
        fused_ops,
    }
}

fn set_target(op: &mut Op, tgt: u32) {
    match op {
        Op::Ja { target }
        | Op::JmpImm { target, .. }
        | Op::JmpReg { target, .. }
        | Op::Jmp32Imm { target, .. }
        | Op::Jmp32Reg { target, .. }
        | Op::LoadBranch { target, .. }
        | Op::MapLookupNull { target, .. } => *target = tgt,
        _ => unreachable!("fixup on non-branch op"),
    }
}

/// Marks every instruction index some jump lands on. Fusion must not
/// swallow a marked instruction into a predecessor, or the jump would
/// land mid-op.
fn jump_targets(insns: &[Insn]) -> Vec<bool> {
    let mut t = vec![false; insns.len() + 1];
    let mut pc = 0usize;
    while pc < insns.len() {
        let insn = insns[pc];
        if insn.class() == BPF_LD {
            pc += 2;
            continue;
        }
        if matches!(insn.class(), BPF_JMP | BPF_JMP32) {
            let op = insn.opcode & 0xf0;
            if op != BPF_CALL && op != BPF_EXIT {
                let tgt = pc as i64 + 1 + i64::from(insn.off);
                if (0..=insns.len() as i64).contains(&tgt) {
                    t[tgt as usize] = true;
                }
            }
        }
        pc += 1;
    }
    t
}

/// Attempts to fuse the sequence starting at `pc` into a single op.
/// Returns the number of instructions consumed (0 = no fusion). A
/// sequence only fuses when its tail instructions are not jump targets.
fn try_fuse(
    insns: &[Insn],
    pc: usize,
    targets: &[bool],
    ops: &mut Vec<Op>,
    stores: &mut Vec<StackStore>,
    fixups: &mut Vec<(usize, usize)>,
) -> usize {
    let insn = insns[pc];

    // --- load (+ byteswap) + compare-branch: filter field checks ---
    if insn.class() == BPF_LDX {
        let mut at = pc + 1;
        let mut be = 0u8;
        // Optional byteswap of the loaded register.
        if let Some(next) = insns.get(at) {
            if !targets[at]
                && matches!(next.class(), BPF_ALU | BPF_ALU64)
                && next.opcode & 0xf0 == BPF_END
                && next.dst == insn.dst
            {
                be = match next.imm {
                    16 => 16,
                    32 => 32,
                    _ => 64,
                };
                at += 1;
            }
        }
        if let Some(next) = insns.get(at) {
            let op = next.opcode & 0xf0;
            let tail_clear = !targets[pc + 1..=at].iter().any(|&t| t);
            if tail_clear
                && matches!(next.class(), BPF_JMP | BPF_JMP32)
                && !matches!(op, BPF_CALL | BPF_EXIT | BPF_JA)
                && next.opcode & 0x08 == BPF_K
                && next.dst == insn.dst
            {
                let narrow = next.class() == BPF_JMP32;
                fixups.push((ops.len(), at));
                ops.push(Op::LoadBranch {
                    size: access_size(insn.opcode) as u8,
                    dst: insn.dst,
                    src: insn.src,
                    off: insn.off,
                    be,
                    cond: op,
                    narrow,
                    rhs: if narrow {
                        u64::from(next.imm as u32)
                    } else {
                        next.imm as i64 as u64
                    },
                    target: 0,
                    retire: (at + 1 - pc) as u8,
                });
                return at + 1 - pc;
            }
            // ldx (+ be) + stx of the loaded register into a stack slot.
            if tail_clear
                && next.class() == BPF_STX
                && next.opcode & 0xe0 == BPF_MEM
                && next.dst == REG_FP
                && next.src == insn.dst
            {
                ops.push(Op::LoadToStack {
                    size: access_size(insn.opcode) as u8,
                    dst: insn.dst,
                    src: insn.src,
                    off: insn.off,
                    be,
                    st_size: access_size(next.opcode) as u8,
                    idx: stack_idx(next.off),
                    retire: (at + 1 - pc) as u8,
                });
                return at + 1 - pc;
            }
        }
        // ldx + add imm + stx back to the same address and width: the
        // counter-increment idiom. `src != dst` keeps the address
        // register intact through the sequence, as the fused op assumes.
        if be == 0 && insn.src != insn.dst {
            if let (Some(add), Some(st)) = (insns.get(pc + 1), insns.get(pc + 2)) {
                if !targets[pc + 1]
                    && !targets[pc + 2]
                    && add.class() == BPF_ALU64
                    && add.opcode & 0xf8 == BPF_ADD | BPF_K
                    && add.dst == insn.dst
                    && st.class() == BPF_STX
                    && st.opcode & 0xe0 == BPF_MEM
                    && access_size(st.opcode) == access_size(insn.opcode)
                    && st.dst == insn.src
                    && st.src == insn.dst
                    && st.off == insn.off
                {
                    ops.push(Op::LoadAddStore {
                        size: access_size(insn.opcode) as u8,
                        dst: insn.dst,
                        src: insn.src,
                        off: insn.off,
                        imm: add.imm as i64 as u64,
                    });
                    return 3;
                }
            }
        }
        return 0;
    }

    // --- mov64 reg + add64 imm: address computation (lea) ---
    if insn.class() == BPF_ALU64 && insn.opcode & 0xf8 == BPF_MOV | BPF_X {
        if let Some(add) = insns.get(pc + 1) {
            if !targets[pc + 1]
                && add.class() == BPF_ALU64
                && add.opcode & 0xf8 == BPF_ADD | BPF_K
                && add.dst == insn.dst
            {
                ops.push(Op::Lea {
                    dst: insn.dst,
                    src: insn.src,
                    imm: add.imm as i64 as u64,
                });
                return 2;
            }
        }
        return 0;
    }

    // --- mov64 r0, imm + exit: the universal return idiom ---
    if insn.class() == BPF_ALU64 && insn.opcode & 0xf8 == BPF_MOV | BPF_K && insn.dst == 0 {
        if let Some(next) = insns.get(pc + 1) {
            if !targets[pc + 1] && next.class() == BPF_JMP && next.opcode & 0xf0 == BPF_EXIT {
                ops.push(Op::ExitImm {
                    imm: insn.imm as i64 as u64,
                });
                return 2;
            }
        }
        return 0;
    }

    // --- map-lookup + null-check: the counter-program idiom ---
    if insn.class() == BPF_JMP
        && insn.opcode & 0xf0 == BPF_CALL
        && insn.imm == helper_ids::MAP_LOOKUP_ELEM
    {
        if let Some(br) = insns.get(pc + 1) {
            let op = br.opcode & 0xf0;
            if !targets[pc + 1]
                && br.class() == BPF_JMP
                && matches!(op, BPF_JEQ | BPF_JNE)
                && br.opcode & 0x08 == BPF_K
                && br.dst == 0
                && br.imm == 0
            {
                fixups.push((ops.len(), pc + 1));
                ops.push(Op::MapLookupNull {
                    cond: op,
                    target: 0,
                });
                return 2;
            }
        }
        return 0;
    }

    // --- runs of immediate stack stores: key/scratch initialisation ---
    if insn.class() == BPF_ST && insn.opcode & 0xe0 == BPF_MEM && insn.dst == REG_FP {
        let mut at = pc + 1;
        while at < insns.len()
            && !targets[at]
            && insns[at].class() == BPF_ST
            && insns[at].opcode & 0xe0 == BPF_MEM
            && insns[at].dst == REG_FP
        {
            at += 1;
        }
        let count = at - pc;
        if count >= 2 {
            let start = stores.len() as u32;
            for s in &insns[pc..at] {
                stores.push(StackStore {
                    idx: stack_idx(s.off),
                    len: access_size(s.opcode) as u8,
                    imm: s.imm as i64 as u64,
                });
            }
            ops.push(Op::StoreRun {
                start,
                count: count as u16,
            });
            return count;
        }
        return 0;
    }

    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::{reg::*, Asm, Cond, Size};
    use crate::map::MapDef;
    use crate::program::{load, Program};
    use crate::vm::{standard_helpers, FixedEnv, Vm};

    fn compile_asm(asm: Asm, maps: &MapRegistry) -> CompiledProgram {
        let prog = Program::new("t", asm.build().expect("assembles"));
        let loaded = load(prog, maps, &standard_helpers()).expect("verifies");
        compile(&loaded)
    }

    fn both_tiers(asm: Asm) -> (u64, u64) {
        let maps = MapRegistry::new();
        let prog = Program::new("t", asm.build().expect("assembles"));
        let loaded = load(prog, &maps, &standard_helpers()).expect("verifies");
        let ctx = TraceContext::default();
        let mut m1 = MapRegistry::new();
        let mut m2 = MapRegistry::new();
        let mut e1 = FixedEnv::default();
        let mut e2 = FixedEnv::default();
        let i = Vm::new()
            .execute(&loaded, &ctx, &[], &mut m1, &mut e1)
            .expect("interp");
        let j = compile(&loaded)
            .execute(&ctx, &[], &mut m2, &mut e2)
            .expect("jit");
        assert_eq!(
            i.insns_executed, j.insns_retired,
            "retired-instruction accounting must match the interpreter"
        );
        (i.ret, j.ret)
    }

    #[test]
    fn arithmetic_matches_interpreter() {
        let (i, j) = both_tiers(
            Asm::new()
                .mov64_imm(R0, 7)
                .alu64_imm(crate::asm::AluOp::Mul, R0, 6)
                .alu64_imm(crate::asm::AluOp::Add, R0, -2)
                .exit(),
        );
        assert_eq!(i, j);
        assert_eq!(j, 40);
    }

    #[test]
    fn stack_roundtrip_indexes_the_stack_directly() {
        let (i, j) = both_tiers(
            Asm::new()
                .mov64_imm(R1, 0x1122_3344)
                .stx(Size::W, R10, R1, -8)
                .ldx(Size::W, R0, R10, -8)
                .exit(),
        );
        assert_eq!(i, j);
        assert_eq!(j, 0x1122_3344);
    }

    #[test]
    fn store_run_fuses_and_matches() {
        let maps = MapRegistry::new();
        let asm = Asm::new()
            .st(Size::W, R10, -8, 0x55)
            .st(Size::B, R10, -4, 0x7f)
            .st(Size::H, R10, -2, 0x0102)
            .ldx(Size::DW, R0, R10, -8)
            .exit();
        let compiled = compile_asm(asm.clone(), &maps);
        assert!(compiled.fused_op_count() >= 1, "store run should fuse");
        let (i, j) = both_tiers(asm);
        assert_eq!(i, j);
    }

    #[test]
    fn counter_increment_fuses_to_one_rmw_op() {
        // `ldx; add imm; stx` back to the same address fuses into a
        // single read-modify-write op that must still leave the full
        // 64-bit sum in the destination register.
        let maps = MapRegistry::new();
        let asm = Asm::new()
            .mov64_imm(R1, 41)
            .stx(Size::DW, R10, R1, -8)
            .mov64(R2, R10)
            .alu64_imm(crate::asm::AluOp::Add, R2, -8)
            .ldx(Size::DW, R3, R2, 0)
            .alu64_imm(crate::asm::AluOp::Add, R3, 1)
            .stx(Size::DW, R2, R3, 0)
            .ldx(Size::DW, R0, R10, -8)
            .exit();
        let compiled = compile_asm(asm.clone(), &maps);
        assert!(
            compiled.fused_op_count() >= 2,
            "lea and rmw sequences should fuse"
        );
        let (i, j) = both_tiers(asm);
        assert_eq!(i, j);
        assert_eq!(j, 42, "stored value must reflect the increment");
    }

    #[test]
    fn load_branch_fusion_preserves_register() {
        // The fused compare-branch must still leave the loaded value in
        // the destination register for code after the branch.
        let asm = Asm::new()
            .mov64_imm(R1, 0xbeef)
            .stx(Size::H, R10, R1, -2)
            .mov64(R2, R10)
            .alu64_imm(crate::asm::AluOp::Add, R2, -2)
            .ldx(Size::H, R3, R2, 0)
            .jmp_imm(Cond::Ne, R3, 0xbeef, "miss")
            .mov64(R0, R3)
            .exit()
            .label("miss")
            .mov64_imm(R0, 0)
            .exit();
        let (i, j) = both_tiers(asm);
        assert_eq!(i, j);
        assert_eq!(j, 0xbeef);
    }

    #[test]
    fn map_lookup_null_check_fuses() {
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::array(8, 4), 1).unwrap();
        let mut maps2 = MapRegistry::new();
        assert_eq!(maps2.create(MapDef::array(8, 4), 1).unwrap(), fd);
        let asm = Asm::new()
            .st(Size::W, R10, -4, 0)
            .mov64(R2, R10)
            .alu64_imm(crate::asm::AluOp::Add, R2, -4)
            .ld_map_fd(R1, fd)
            .call(helper_ids::MAP_LOOKUP_ELEM)
            .jmp_imm(Cond::Eq, R0, 0, "miss")
            .ldx(Size::DW, R1, R0, 0)
            .alu64_imm(crate::asm::AluOp::Add, R1, 1)
            .stx(Size::DW, R0, R1, 0)
            .mov64_imm(R0, 1)
            .exit()
            .label("miss")
            .mov64_imm(R0, 0)
            .exit();
        let prog = Program::new("count", asm.build().unwrap());
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let compiled = compile(&loaded);
        assert!(compiled.fused_op_count() >= 1, "lookup+null should fuse");

        let ctx = TraceContext::default();
        let mut env = FixedEnv::default();
        let i = Vm::new()
            .execute(&loaded, &ctx, &[], &mut maps, &mut env)
            .unwrap();
        let j = compiled.execute(&ctx, &[], &mut maps2, &mut env).unwrap();
        assert_eq!(i.ret, j.ret);
        assert_eq!(i.insns_executed, j.insns_retired);
        assert!(j.ops_executed < i.insns_executed, "fusion reduces op count");
        assert!(j.fused_hits >= 1);
        // Identical map side effects.
        let a = maps
            .get_mut(fd)
            .unwrap()
            .lookup(&0u32.to_le_bytes(), 0)
            .unwrap()
            .to_vec();
        let b = maps2
            .get_mut(fd)
            .unwrap()
            .lookup(&0u32.to_le_bytes(), 0)
            .unwrap()
            .to_vec();
        assert_eq!(a, b);
    }

    #[test]
    fn oob_access_faults_identically() {
        let asm = Asm::new().mov64_imm(R1, 0).ldx(Size::DW, R0, R1, 0).exit();
        let maps = MapRegistry::new();
        let prog = Program::new("oob", asm.build().unwrap());
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();
        let ctx = TraceContext::default();
        let mut m1 = MapRegistry::new();
        let mut m2 = MapRegistry::new();
        let mut env = FixedEnv::default();
        let i = Vm::new().execute(&loaded, &ctx, &[], &mut m1, &mut env);
        let j = compile(&loaded).execute(&ctx, &[], &mut m2, &mut env);
        assert_eq!(i.unwrap_err(), j.unwrap_err());
    }

    #[test]
    fn fused_branch_target_lands_on_whole_op() {
        // The tail of a fusable ldx+branch pair is itself a jump target
        // here: fusion must be blocked, or the jump to "check" would
        // land mid-op (the compiler maps it to an out-of-range index
        // and the run aborts — caught by the equality asserts).
        let asm = Asm::new()
            .mov64_imm(R1, 0)
            .mov64_imm(R2, 1)
            .stx(Size::DW, R10, R2, -8)
            .jmp_imm(Cond::Eq, R1, 0, "check")
            .ldx(Size::DW, R2, R10, -8)
            .label("check")
            .jmp_imm(Cond::Ne, R2, 1, "bad")
            .mov64_imm(R0, 9)
            .exit()
            .label("bad")
            .mov64_imm(R0, 0)
            .exit();
        let (i, j) = both_tiers(asm);
        assert_eq!(i, j);
        assert_eq!(j, 9);
    }

    #[test]
    fn statically_decided_branches_match_interpreter() {
        // Never taken: the compare still runs and retires.
        let never = Asm::new()
            .mov64_imm(R2, 3)
            .jmp_imm(Cond::Gt, R2, 5, "dead")
            .mov64_imm(R0, 1)
            .exit()
            .label("dead")
            .mov64_imm(R0, 0)
            .exit();
        let (i, j) = both_tiers(never); // asserts retired parity
        assert_eq!(i, j);
        assert_eq!(j, 1);

        // Always taken.
        let always = Asm::new()
            .mov64_imm(R2, 9)
            .jmp_imm(Cond::Gt, R2, 5, "tgt")
            .mov64_imm(R0, 0)
            .exit()
            .label("tgt")
            .mov64_imm(R0, 7)
            .exit();
        let (i, j) = both_tiers(always);
        assert_eq!(i, j);
        assert_eq!(j, 7);
    }

    #[test]
    fn proven_nonzero_register_divisor_matches_interpreter() {
        // `r2 = ctx[0] | 1` is nonzero by known bits, so the verifier
        // accepts the register division; both tiers still test it.
        let asm = Asm::new()
            .ldx(Size::DW, R2, R1, 0)
            .alu64_imm(crate::asm::AluOp::Or, R2, 1)
            .mov64_imm(R0, 100)
            .alu64(crate::asm::AluOp::Div, R0, R2)
            .exit();
        let (i, j) = both_tiers(asm);
        assert_eq!(i, j);
        assert_eq!(j, 100); // divisor is 0 | 1 = 1
    }

    #[test]
    fn null_checked_map_value_load_matches_interpreter() {
        // An unfused load through the looked-up value pointer goes
        // through the checked map-value path on both tiers.
        let mut maps = MapRegistry::new();
        let fd = maps.create(MapDef::array(8, 4), 1).unwrap();
        let asm = Asm::new()
            .st(Size::W, R10, -4, 0)
            .mov64(R2, R10)
            .add64_imm(R2, -4)
            .ld_map_fd(R1, fd)
            .call(helper_ids::MAP_LOOKUP_ELEM)
            .jmp_imm(Cond::Eq, R0, 0, "miss")
            .ldx(Size::DW, R3, R0, 0)
            .mov64(R0, R3)
            .exit()
            .label("miss")
            .mov64_imm(R0, 1)
            .exit();
        let prog = Program::new("m", asm.build().unwrap());
        let loaded = load(prog, &maps, &standard_helpers()).unwrap();

        let ctx = TraceContext::default();
        let mut env = FixedEnv::default();
        let mut maps2 = MapRegistry::new();
        assert_eq!(maps2.create(MapDef::array(8, 4), 1).unwrap(), fd);
        let i = Vm::new()
            .execute(&loaded, &ctx, &[], &mut maps, &mut env)
            .unwrap();
        let j = compile(&loaded)
            .execute(&ctx, &[], &mut maps2, &mut env)
            .unwrap();
        assert_eq!((i.ret, i.insns_executed), (j.ret, j.insns_retired));
        assert_eq!(j.ret, 0, "array slot pre-zeroed, lookup hits");
    }
}
